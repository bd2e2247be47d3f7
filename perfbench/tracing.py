"""Layer spans recorded from outside the program.

The tracer rebinds the public functions of each gmachines module, and a few
methods that carry the set and map algebra, to wrappers that record a span
per call: name, start, end, span id, parent span id, call id and thread.
Spans stay in memory and are written out when the run ends.  Parents are
tracked per thread, so the worker threads of `compare` and `roundtrip` start
their own span trees; their spans share the call id of the `cli.main` call
that started them, and `cli.main`'s self time includes waiting on them.

Nothing under src/ changes: the wrappers call straight through, and the run
checks that every call's output is byte-identical with and without them.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "space", "microcosm", "graphings", "execution", "measurement",
          "words", "machines", "automata", "encodings")

# Public functions called once per element rather than once per operation;
# a span each would cost more than the work it times.
SKIP = {"space.rat", "space.rat_str", "automata.successors",
        "execution.expansion_cap", "microcosm.apply", "microcosm.apply_box"}

# Methods traced under one span name per family.
METHODS = (
    ("space", "MSet", ("intersect", "union", "difference", "measure"),
     "space.mset"),
    ("microcosm", "TransformationDescriptor",
     ("compose", "inverse", "apply_mset", "power", "order"),
     "microcosm.descriptor"),
)


def _measure_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return f"measurement.measure_graphings.{mode}"


def _count_plug(tr, out, args, kwargs):
    tr.add("execution.plug.edges_out", len(out.edges))


def _count_essentialize(tr, out, args, kwargs):
    tr.add("machines.essentialize.edges_out", len(out.graphing.edges))


def _count_compile(tr, out, args, kwargs):
    tr.add("encodings.automaton_to_machine.edges_out", len(out.graphing.edges))


def _count_extract(tr, out, args, kwargs):
    tr.add("encodings.machine_to_automaton.transitions_out",
           len(out.transitions))


def _count_circuits(tr, out, args, kwargs):
    tr.add("measurement.circuits.found", len(out))
    tr.raise_to("measurement.circuits.max_len",
                kwargs.get("max_len", args[2] if len(args) > 2 else 8))


COUNTERS = {
    "execution.plug": _count_plug,
    "machines.essentialize": _count_essentialize,
    "encodings.automaton_to_machine": _count_compile,
    "encodings.machine_to_automaton": _count_extract,
    "measurement.circuits": _count_circuits,
}
NAMERS = {"measurement.measure_graphings": _measure_name}


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.call_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    def add(self, key: str, n: int):
        with self._lock:
            self.counts[key] += n

    def raise_to(self, key: str, n: int):
        with self._lock:
            self.counts[key] = max(self.counts[key], n)

    def wrap(self, name: str, fn):
        namer = NAMERS.get(name)
        counter = COUNTERS.get(name)
        local = self._local
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((namer(args, kwargs) if namer else name, start,
                              end, span_id, parent, self.call_id,
                              threading.get_ident()))
            if counter:
                counter(self, out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict):
        """Wrap the layers' public functions wherever gmachines binds them,
        and the methods in METHODS on their classes."""
        everywhere = list(modules.values())
        for layer in LAYERS:
            mod = modules[layer]
            names = ["main"] if layer == "cli" else mod.__all__
            for attr in names:
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if (name in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap(name, fn)
                for owner in everywhere:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._undo.append((owner, key, fn))
                            setattr(owner, key, traced)
        for layer, cls_name, methods, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(name, fn))
        graphing = modules["graphings"].GraphingRep
        fn = graphing.__dict__["from_json"]
        self._undo.append((graphing, "from_json", fn))
        graphing.from_json = classmethod(self.wrap("graphings.from_json",
                                                   fn.__func__))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: total self time and number of spans.

    A span's self time is its duration minus the part of it that its
    child spans cover; children that overlap each other count once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, _sid, parent, *_ in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for name, start, end, sid, *_ in spans:
        row = out[name]
        row[0] += (end - start) - _covered(children.get(sid, []), start, end)
        row[1] += 1
    return {name: (row[0], row[1]) for name, row in out.items()}
