"""Multihead finite automata over the binary alphabet with a marker.

Words are laid out cyclically: position 0 holds the marker, positions 1
through k hold the letters, and every head move steps one position along
the cycle, inward or outward.  Acceptance is co-acceptance: a word is
accepted when no run reaches the reject state.  Halting transitions do
not execute their move component.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Sequence

from .space import _int_field
from .words import IN, OUT, _check_word, _words_upto

__all__ = [
    "MARKER",
    "IN",
    "OUT",
    "Transition",
    "MultiheadAutomaton",
    "Configuration",
    "successors",
    "co_accepts",
    "trace_counts",
    "language_a",
    "parity_automaton",
    "zeros_ones_automaton",
]

MARKER = "*"
HALTING = ("accept", "reject")


def _str_field(value, field: str) -> str:
    """A JSON field that must be a string, or ValueError naming it."""
    if not isinstance(value, str):
        raise ValueError(f"{field!r} must be a string, got {value!r}")
    return value


def _str_list(value, field: str) -> tuple[str, ...]:
    """A JSON field that must be a list of strings, or ValueError naming it."""
    if not isinstance(value, list):
        raise ValueError(f"{field!r} must be a list of strings, got {value!r}")
    return tuple(_str_field(v, field) for v in value)


class Transition(NamedTuple):
    read: tuple[str, ...]
    state: str
    head: int
    direction: str
    next: str

    def to_json(self) -> dict:
        return {
            "read": list(self.read),
            "state": self.state,
            "head": self.head,
            "dir": self.direction,
            "next": self.next,
        }

    @classmethod
    def from_json(cls, data) -> "Transition":
        for key in ("read", "state", "head", "dir", "next"):
            if not isinstance(data, dict) or key not in data:
                raise ValueError(f"transition needs a {key!r} field, got {data!r}")
        return cls(
            _str_list(data["read"], "read"),
            _str_field(data["state"], "state"),
            _int_field(data["head"], "head"),
            _str_field(data["dir"], "dir"),
            _str_field(data["next"], "next"),
        )


class Configuration(NamedTuple):
    state: str
    heads: tuple[int, ...]


class MultiheadAutomaton:
    def __init__(self, heads: int, states: Sequence[str],
                 transitions: Sequence[Transition], start: str = "init"):
        self.heads = int(heads)
        self.states = tuple(states)
        self.transitions = tuple(transitions)
        self.start = start
        problems = self.check()
        if problems:
            raise ValueError("; ".join(problems))
        index: dict[tuple[str, tuple[str, ...]], list[Transition]] = {}
        for t in self.transitions:
            index.setdefault((t.state, t.read), []).append(t)
        self._index = index

    def check(self) -> list[str]:
        out = []
        if self.heads < 1:
            out.append("need at least one head")
        known = set(self.states)
        if self.start not in known:
            out.append(f"start state {self.start!r} missing")
        for h in HALTING:
            if h not in known:
                out.append(f"halting state {h!r} missing")
        seen = set()
        for t in self.transitions:
            if t.state in HALTING:
                out.append(f"transition leaves halting state {t.state!r}")
            if t.state not in known or t.next not in known:
                out.append(f"transition {t} uses unknown states")
            if len(t.read) != self.heads:
                out.append(f"transition {t} reads {len(t.read)} symbols, "
                           f"expected {self.heads}")
            for s in t.read:
                if s not in (MARKER, "0", "1"):
                    out.append(f"transition {t} reads bad symbol {s!r}")
            if not (1 <= t.head <= self.heads):
                out.append(f"transition {t} moves head {t.head} of {self.heads}")
            if t.direction not in (IN, OUT):
                out.append(f"transition {t} has direction {t.direction!r}")
            key = (t.state, t.read, t.head, t.direction, t.next)
            if key in seen:
                out.append(f"duplicate transition {t}")
            seen.add(key)
        return out

    def to_json(self) -> dict:
        return {
            "heads": self.heads,
            "states": list(self.states),
            "transitions": [t.to_json() for t in self.transitions],
        }

    @classmethod
    def from_json(cls, data) -> "MultiheadAutomaton":
        for key in ("heads", "states"):
            if not isinstance(data, dict) or key not in data:
                raise ValueError(f"automaton needs a {key!r} field, got {data!r}")
        transitions = data.get("transitions", [])
        if not isinstance(transitions, list):
            raise ValueError(f"'transitions' must be a list, got {transitions!r}")
        return cls(
            _int_field(data["heads"], "heads"),
            _str_list(data["states"], "states"),
            [Transition.from_json(t) for t in transitions],
            _str_field(data.get("start", "init"), "start"),
        )

    def initial(self) -> Configuration:
        return Configuration(self.start, (0,) * self.heads)


def _symbol(w: str, pos: int) -> str:
    return MARKER if pos == 0 else w[pos - 1]


def successors(a: MultiheadAutomaton, w: str,
               cfg: Configuration) -> list[tuple[Transition, Configuration]]:
    if cfg.state in HALTING:
        return []
    modulus = len(w) + 1
    reads = tuple(_symbol(w, p) for p in cfg.heads)
    out = []
    for t in a._index.get((cfg.state, reads), ()):
        if t.next in HALTING:
            out.append((t, Configuration(t.next, cfg.heads)))
            continue
        heads = list(cfg.heads)
        step = 1 if t.direction == IN else -1
        heads[t.head - 1] = (heads[t.head - 1] + step) % modulus
        out.append((t, Configuration(t.next, tuple(heads))))
    return out


def co_accepts(a: MultiheadAutomaton, w: str) -> bool:
    """No run on w may reach the reject state."""
    _check_word(w)
    start = a.initial()
    seen = {start}
    queue = deque([start])
    while queue:
        cfg = queue.popleft()
        if cfg.state == "reject":
            return False
        for _t, nxt in successors(a, w, cfg):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def trace_counts(a: MultiheadAutomaton, w: str, max_len: int) -> dict[int, int]:
    """How many runs of each positive length start from the initial
    configuration."""
    _check_word(w)
    counts: dict[int, int] = {}
    layer = {a.initial(): 1}
    for length in range(1, max_len + 1):
        nxt: dict[Configuration, int] = {}
        for cfg, n in layer.items():
            for _t, c2 in successors(a, w, cfg):
                nxt[c2] = nxt.get(c2, 0) + n
        total = sum(nxt.values())
        if total == 0:
            break
        counts[length] = total
        layer = nxt
    return counts


def language_a(a: MultiheadAutomaton, max_len: int) -> list[str]:
    """All co-accepted words up to the given length, shortest first."""
    return [w for w in _words_upto(max_len) if co_accepts(a, w)]


def parity_automaton() -> MultiheadAutomaton:
    """One head; accepts exactly the words with an even number of ones."""
    t = Transition
    return MultiheadAutomaton(1, (
        "init", "even", "odd", "accept", "reject",
    ), (
        t(("*",), "init", 1, IN, "even"),
        t(("0",), "even", 1, IN, "even"),
        t(("1",), "even", 1, IN, "odd"),
        t(("0",), "odd", 1, IN, "odd"),
        t(("1",), "odd", 1, IN, "even"),
        t(("*",), "even", 1, IN, "accept"),
        t(("*",), "odd", 1, IN, "reject"),
    ))


def zeros_ones_automaton() -> MultiheadAutomaton:
    """Two heads; accepts exactly the words of the form 0^n 1^n.

    Head one skips the zeros and then walks the ones while head two walks
    the zeros in lockstep; the word is good exactly when head one wraps to
    the marker as head two reaches the first one, after which head two
    winds forward to the marker and the automaton accepts.  Every failure
    rewinds both heads before rejecting, so halting always happens on the
    marker.
    """
    t = Transition
    trans = [
        t(("*", "*"), "init", 1, IN, "start1"),
        # empty word
        t(("*", "*"), "start1", 1, IN, "accept"),
        t(("0", "*"), "start1", 1, IN, "scan0"),
        t(("1", "*"), "start1", 1, IN, "rej1"),
        # head one skips the block of zeros
        t(("0", "*"), "scan0", 1, IN, "scan0"),
        t(("1", "*"), "scan0", 2, IN, "match"),
        t(("*", "*"), "scan0", 1, IN, "reject"),
        # one step of head one per step of head two
        t(("1", "0"), "match", 1, IN, "midm"),
        t(("*", "1"), "match", 2, IN, "windup"),
        t(("1", "1"), "match", 1, IN, "rej1"),
        t(("0", "0"), "match", 1, IN, "rej1"),
        t(("0", "1"), "match", 1, IN, "rej1"),
        t(("*", "0"), "match", 2, IN, "rej2"),
        t(("1", "0"), "midm", 2, IN, "match"),
        t(("*", "0"), "midm", 2, IN, "match"),
        t(("0", "0"), "midm", 1, IN, "rej1"),
        # success: wind head two forward to the marker
        t(("*", "1"), "windup", 2, IN, "windup"),
        t(("*", "*"), "windup", 1, IN, "accept"),
        # failure: rewind head one, then head two, then halt
        t(("0", "*"), "rej1", 1, IN, "rej1"),
        t(("0", "0"), "rej1", 1, IN, "rej1"),
        t(("0", "1"), "rej1", 1, IN, "rej1"),
        t(("1", "*"), "rej1", 1, IN, "rej1"),
        t(("1", "0"), "rej1", 1, IN, "rej1"),
        t(("1", "1"), "rej1", 1, IN, "rej1"),
        t(("*", "0"), "rej1", 2, IN, "rej2"),
        t(("*", "1"), "rej1", 2, IN, "rej2"),
        t(("*", "*"), "rej1", 1, IN, "reject"),
        t(("*", "0"), "rej2", 2, IN, "rej2"),
        t(("*", "1"), "rej2", 2, IN, "rej2"),
        t(("*", "*"), "rej2", 1, IN, "reject"),
    ]
    return MultiheadAutomaton(2, (
        "init", "start1", "scan0", "match", "midm", "windup",
        "rej1", "rej2", "accept", "reject",
    ), trans)
