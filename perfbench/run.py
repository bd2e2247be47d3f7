"""Benchmark of the gmachines command line verdict paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src and the reference oracles from ./tests/oracles.py.  Every call goes
through `gmachines.cli.main(argv)` in this process, one after another, with
stdout captured.  The process is pinned to one CPU (pin_to_one_cpu).

A run has three phases.

1. Set-up, repeated SETUP_REPEATS times and reported as the median: a fresh
   import of gmachines, generating the seeded inputs, writing the graphing
   JSON files, and a few small warm-up calls.
2. Check pass: every call of one round once, untimed.  Each output is
   checked against an independent reference (reference.py).
3. With --trace 0, the timed pass: whole rounds for about --seconds, and at
   least the workload's MIN_ROUNDS.  Every call must print byte-for-byte
   what it printed in the check pass.  The end-to-end metrics come from
   this pass.
   With --trace 1, instead, one untraced round and then one round with
   every layer's public functions wrapped (tracing.py); the per-layer
   metrics come from the traced round's spans, which are written to
   .perfbench_out/, and the difference between the two rounds is the
   tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Metric names and units are read from
BENCHMARK.json.  The lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import gen
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# The default budget of 10,000 arrows stops `decide zeros-ones` with
# IterationCapExceeded on every word of 8 letters or more, and the cap=
# argument of decide_against_test does not reach the search inside
# `orthogonal`, so the environment variable is the only way to lift it.
CAP_ENV = "GM_MAX_PATH_LEN"
LIFTED_CAP = str(10**12)

SETUP_REPEATS = 11
# Rounds a run times at least.  They also fix the tail percentile (tail()),
# so that its rank sits inside a group of calls of close cost and not in a
# gap between two groups, where host noise would decide which group it
# reads: with three decide-long rounds, 3.3 calls a round lie beyond it,
# inside the three 12-letter zeros-ones calls; with four sweep or
# measure-series rounds, 2.5, inside the four costliest calls.
MIN_ROUNDS = {"decide-long": 3, "sweep": 4, "measure-series": 4}
# Beyond the tail percentile there must be at least this many calls.
TAIL_BEYOND = 10

WORKLOADS = ("decide-long", "sweep", "measure-series")


@dataclass
class Call:
    label: str          # groups calls in the report, e.g. "zeros-ones 24"
    argv: list[str]
    ops: int
    check: str          # name of the Reference method that checks it
    params: tuple       # its leading arguments
    mirror: str | None = None   # calls sharing this key must print the same


def build(workload: str, seed: int, workdir: Path):
    """One round of calls, and the warm-up calls, for a workload."""
    calls: list[Call] = []
    if workload == "decide-long":
        for automaton, word in gen.decide_calls(seed):
            calls.append(Call(f"{automaton} {len(word)}",
                              ["decide", automaton, word], 1, "decide",
                              (automaton, word)))
        warm = [["decide", "parity", "0110"], ["decide", "zeros-ones", "0011"]]
    elif workload == "sweep":
        for command, automaton, mode, max_len in gen.SWEEP_CALLS:
            argv = [command, automaton, "--max-len", str(max_len)]
            if mode:
                argv += ["--mode", mode]
            calls.append(Call(" ".join(argv), argv,
                              2 ** (max_len + 1) - 1, "table",
                              (command, automaton, max_len)))
        for automaton, word in gen.correspond_words(seed):
            steps = gen.CORRESPOND_STEPS
            calls.append(Call(f"correspond {automaton}",
                              ["correspond", automaton, "--word", word,
                               "--max-steps", str(steps)],
                              1, "correspond", (automaton, word, steps)))
        warm = [["compare", "parity", "--max-len", "2"],
                ["roundtrip", "zeros-ones", "--max-len", "2"],
                ["correspond", "zeros-ones", "--word", "01"]]
    elif workload == "measure-series":
        workdir.mkdir(parents=True, exist_ok=True)
        for name, f, g, value in gen.series_instances(seed):
            paths = []
            for side, doc in (("f", f), ("g", g)):
                path = workdir / f"{name}-{side}.json"
                path.write_text(json.dumps(doc))
                paths.append(str(path))
            for a, b, suffix in ((0, 1, ""), (1, 0, " mirrored")):
                calls.append(Call(name + suffix,
                                  ["measure", paths[a], paths[b],
                                   "--mode", "series"],
                                  1, "series", (value,), mirror=name))
        warm = [calls[0].argv]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls, warm


def invoke(cli, argv):
    """(exit code or error text, stdout, stderr, seconds) of one call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = f"exit {exc.code}"
    except Exception as exc:  # a raising call is a failed op, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def pin_to_one_cpu():
    """Keep this process, and the CLI's worker threads, on one CPU.  The
    threads take turns on the GIL, so they never run Python in parallel,
    and handing the GIL between two CPUs of a shared host adds waits that
    follow the host's load: on a 2-CPU x86 host, pinning halved the
    run-to-run range of sweep.  A change that gains by running on several
    CPUs at once will not show here."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def fresh_import():
    for name in [n for n in sys.modules if n.split(".")[0] == "gmachines"]:
        del sys.modules[name]
    importlib.import_module("gmachines.cli")
    return {n.rsplit(".", 1)[-1]: m for n, m in sys.modules.items()
            if n.split(".")[0] == "gmachines"}


def set_up(workload: str, seed: int, workdir: Path):
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        modules = fresh_import()
        calls, warm = build(workload, seed, workdir)
        for argv in warm:
            code, _out, err, _dt = invoke(modules["cli"], argv)
            if code not in (0, 1):
                raise RuntimeError(f"warm-up {argv} failed: {code} {err}")
        times.append(time.perf_counter() - start)
    return modules, calls, statistics.median(times)


class Tally:
    """Attempted and failed ops, with the first few failures described."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, call: Call, failed: int, why: str):
        self.attempted += call.ops
        self.failed += failed
        if failed and len(self.notes) < 10:
            self.notes.append(f"{' '.join(call.argv)}: {why}")


def check_pass(cli, calls, ref, tally):
    """Run one round untimed and check every output against the reference;
    returns the outputs."""
    base, failed, why = [], [], []
    for call in calls:
        code, out, err, _dt = invoke(cli, call.argv)
        base.append((code, out))
        failed.append(getattr(ref, call.check)(*call.params, code, out))
        why.append(f"exit {code}, stdout {out[:200]!r} {err[:200]}")
    mirrors = defaultdict(list)
    for i, call in enumerate(calls):
        if call.mirror:
            mirrors[call.mirror].append(i)
    for idx in mirrors.values():
        if len({base[i][1] for i in idx}) > 1:
            for i in idx:
                failed[i] = calls[i].ops
                why[i] += "; differs from its mirrored pair"
    for call, f, w in zip(calls, failed, why):
        tally.add(call, f, w)
    return base


def same_as_base(call, base, code, out, tally, phase):
    """Byte identity with the check pass; a difference fails every op."""
    ok = (code, out) == base
    tally.add(call, 0 if ok else call.ops,
              f"{phase} pass printed {out[:200]!r} (exit {code}), "
              f"check pass {base[1][:200]!r} (exit {base[0]})")


def tail(times: list[float], round_size: int,
         min_rounds: int) -> tuple[float, float]:
    """(percentile, value): the percentile is fixed per workload so that
    TAIL_BEYOND calls lie beyond it in min_rounds rounds; nearest rank."""
    pct = 1 - TAIL_BEYOND / (min_rounds * round_size)
    ordered = sorted(times)
    rank = max(1, math.ceil(pct * len(ordered) - 1e-9))
    return 100 * pct, ordered[rank - 1]


def timed_pass(cli, calls, base, seconds, min_rounds, tally):
    """Whole rounds, at least min_rounds, and no more once another round
    of the mean length so far would end past `seconds`."""
    times: list[float] = []
    by_label: dict[str, list[float]] = defaultdict(list)
    ops = 0
    rounds = 0
    start = time.perf_counter()
    elapsed = 0.0
    while rounds < min_rounds or elapsed * (rounds + 1) / rounds <= seconds:
        for call, b in zip(calls, base):
            code, out, _err, dt = invoke(cli, call.argv)
            times.append(dt)
            by_label[call.label].append(dt)
            ops += call.ops
            same_as_base(call, b, code, out, tally, "timed")
        rounds += 1
        elapsed = time.perf_counter() - start
    return times, by_label, ops, rounds


def traced_pass(modules, calls, base, tally, spans_path):
    """One untraced round, then one traced round; the difference in their
    call time is the tracing overhead."""
    cli = modules["cli"]
    untraced = 0.0
    for call, b in zip(calls, base):
        code, out, _err, dt = invoke(cli, call.argv)
        untraced += dt
        same_as_base(call, b, code, out, tally, "untraced")
    tracer = tracing.Tracer()
    tracer.install(modules)
    traced = 0.0
    try:
        for i, (call, b) in enumerate(zip(calls, base), 1):
            tracer.call_id = i
            code, out, _err, dt = invoke(cli, call.argv)
            traced += dt
            same_as_base(call, b, code, out, tally, "traced")
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    return tracer, traced, untraced


def layer_value(name: str, selfs: dict, counts: dict):
    for suffix, pick in ((".self_s", 0), (".calls", 1)):
        if name.endswith(suffix):
            return selfs.get(name[:-len(suffix)], (0.0, 0))[pick]
    return counts.get(name, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "gmachines" / "__init__.py").is_file():
        print(f"error: no gmachines sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    os.environ[CAP_ENV] = LIFTED_CAP
    pin_to_one_cpu()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir = OUT_DIR / f"inputs-{tag}"
    try:
        modules, calls, setup_s = set_up(args.workload, args.seed, workdir)
        oracles = reference.load_oracles(ROOT)
        automata = modules["automata"]
        ref = reference.Reference(oracles, {
            "parity": automata.parity_automaton().to_json(),
            "zeros-ones": automata.zeros_ones_automaton().to_json()})
        tally = Tally()
        cli = modules["cli"]
        base = check_pass(cli, calls, ref, tally)
        report = [f"workload {args.workload}, seed {args.seed}, "
                  f"{len(calls)} calls per round"]
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer, traced_wall, untraced_wall = traced_pass(
                modules, calls, base, tally, spans_path)
            selfs = tracing.self_times(tracer.spans)
            wanted = spec["per_layer"]
            values = {m["name"]: layer_value(m["name"], selfs, tracer.counts)
                      for m in wanted}
            report.append(f"traced round {traced_wall:.3f} s, untraced "
                          f"{untraced_wall:.3f} s, tracing overhead "
                          f"{traced_wall - untraced_wall:.3f} s; "
                          f"{len(tracer.spans)} spans in {spans_path.name}")
        else:
            wanted = spec["end_to_end"]
            min_rounds = MIN_ROUNDS[args.workload]
            times, by_label, ops, rounds = timed_pass(
                cli, calls, base, args.seconds, min_rounds, tally)
            pct, tail_s = tail(times, len(calls), min_rounds)
            values = {
                "ops_per_s": ops / sum(times),
                "call_p50_s": statistics.median(times),
                "call_tail_s": tail_s,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": setup_s,
            }
            report.append(f"timed {rounds} rounds, {len(times)} calls, "
                          f"{ops} ops in {sum(times):.3f} s; tail is "
                          f"p{pct:.1f} of {len(times)} calls")
            report.append("median call time per label (s):")
            for label in sorted(by_label, key=lambda k: (k.split()[0],
                                                         len(k), k)):
                report.append(f"  {label:<32} "
                              f"{statistics.median(by_label[label]):.4f}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.append(f"failed_share {tally.failed / tally.attempted:.4f} "
                  f"({tally.failed} of {tally.attempted} ops)")
    for line in report:
        print(line)
    for m in wanted:
        print(f"  {m['name']:<48} {metrics[m['name']]['value']} {m['unit']}")
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
