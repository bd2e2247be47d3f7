"""Multihead finite automata over the binary alphabet with a marker.

Words are laid out cyclically: position 0 holds the marker, positions 1
through k hold the letters, and every head move steps one position along
the cycle, inward or outward.  Acceptance is co-acceptance: a word is
accepted when no run reaches the reject state.  Halting transitions do
not execute their move component.
"""

from __future__ import annotations

from operator import getitem
from typing import NamedTuple, Sequence

from .space import _int_field
from .words import IN, OUT, SYMBOLS, _check_word, _words_upto

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
_SYM = {s: c for c, s in enumerate(SYMBOLS)}


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
        # The step table: states and symbols as codes, one slot per state
        # and reads, holding (transition, next code, head index, step).
        # Each distinct reads tuple is summed once.
        self._code = code = {q: c for c, q in enumerate(self.states)}
        self._width = width = 3 ** self.heads
        reads: dict[tuple[str, ...], int] = {}
        table: dict[int, list] = {}
        for t in self.transitions:
            read, state, head, direction, nxt = t
            r = reads.get(read)
            if r is None:
                r = reads[read] = sum(_SYM[s] * 3 ** i for i, s in enumerate(read))
            step = 0 if nxt in HALTING else 1 if direction == IN else -1
            table.setdefault(code[state] * width + r, []).append(
                (t, code[nxt], head - 1, step))
        self._table = table

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
            read, state, head, direction, nxt = t
            if state in HALTING:
                out.append(f"transition leaves halting state {state!r}")
            if state not in known or nxt not in known:
                out.append(f"transition {t} uses unknown states")
            if len(read) != self.heads:
                out.append(f"transition {t} reads {len(read)} symbols, "
                           f"expected {self.heads}")
            for s in read:
                if s not in SYMBOLS:
                    out.append(f"transition {t} reads bad symbol {s!r}")
            if not (1 <= head <= self.heads):
                out.append(f"transition {t} moves head {head} of {self.heads}")
            if direction not in (IN, OUT):
                out.append(f"transition {t} has direction {direction!r}")
            if t in seen:
                out.append(f"duplicate transition {t}")
            seen.add(t)
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


def _rows(a: MultiheadAutomaton, w) -> list[list[int]]:
    """Per head i, the code of each position's symbol times 3**i: what
    head i adds to a slot."""
    row = [0] + [_SYM[c] for c in _check_word(w)]
    return [row] + [[s * 3 ** i for s in row] for i in range(1, a.heads)]


def _fire(a: MultiheadAutomaton, rows, q: int, heads: tuple[int, ...]):
    """Each table entry that fires from state code q, with its moved heads."""
    n = len(rows[0])
    for entry in a._table.get(q * a._width + sum(map(getitem, rows, heads)), ()):
        i, step = entry[2], entry[3]
        yield entry, heads[:i] + ((heads[i] + step) % n,) + heads[i + 1:]


def successors(a: MultiheadAutomaton, w: str,
               cfg: Configuration) -> list[tuple[Transition, Configuration]]:
    return [(t, Configuration(t.next, heads)) for (t, *_), heads
            in _fire(a, _rows(a, w), a._code[cfg.state], cfg.heads)]


def co_accepts(a: MultiheadAutomaton, w: str) -> bool:
    """No run on w may reach the reject state.

    A depth-first search on the step table.  A configuration is (state
    code, heads), the heads packed into one integer in base len(w) + 1;
    each stack entry also carries what its heads add to a slot, which a
    step updates for the one head it moves."""
    rows = _rows(a, w)
    if a.start in HALTING:
        return a.start == "accept"
    n = len(rows[0])
    place = [n ** i for i in range(a.heads)]
    table, width, reject = a._table, a._width, a._code["reject"]
    start = (a._code[a.start], 0)
    seen = {start}
    stack = [(*start, 0)]
    while stack:
        q, pos, r = stack.pop()
        for _t, q2, i, step in table.get(q * width + r, ()):
            if q2 == reject:
                return False
            if step:
                h = pos // place[i] % n
                h2 = (h + step) % n
                nxt = (q2, pos + (h2 - h) * place[i])
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((*nxt, r + rows[i][h2] - rows[i][h]))
    return True


def trace_counts(a: MultiheadAutomaton, w: str, max_len: int) -> dict[int, int]:
    """How many runs of each positive length start from the initial
    configuration."""
    rows = _rows(a, w)
    counts: dict[int, int] = {}
    layer = {(a._code[a.start], (0,) * a.heads): 1}
    for length in range(1, max_len + 1):
        nxt: dict[tuple, int] = {}
        for (q, heads), k in layer.items():
            for entry, moved in _fire(a, rows, q, heads):
                c2 = (entry[1], moved)
                nxt[c2] = nxt.get(c2, 0) + k
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
