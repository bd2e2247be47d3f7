"""Binary words as labelled graphs and as graphings.

A word w of length k lives on a circular tape with a left marker, so the
positions are 0..k with position 0 holding the marker.  The word graph has
one rightward edge and one leftward edge per position; the graphing version
realizes those edges as block translations between the interface blocks of
a vertex table, with the position recorded in the dialect.

Promotion trades the dialect for a geometric grid on coordinate 1: state i
of n+1 becomes the column [i/(n+1), (i+1)/(n+1)) and each edge picks up the
matching circle shift.  Renaming the dialect before promoting scrambles
which column is which position; decisions downstream must not care.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import BadAlphabet, PairingRequired
from .graphings import Edge, GraphingRep, ONE, rename_dialect
from .microcosm import TransformationDescriptor
from .space import Box, Interval, MSet

__all__ = [
    "SYMBOLS",
    "VertexTable",
    "DEFAULT_PSI",
    "ALT_PSI",
    "WordGraph",
    "word_graph",
    "word_graphing",
    "promote",
    "representation",
]

SYMBOLS = ("*", "0", "1")
IN, OUT = "In", "Out"


class VertexTable:
    """Assignment of unit blocks to the interface vertices.

    Vertices are the six (symbol, direction) pairs plus the two answer
    vertices "a" and "r".  Each vertex owns the block [k, k+1) for its
    table entry k; entries must be pairwise distinct.
    """

    def __init__(self, table: Mapping):
        want = {(s, d) for s in SYMBOLS for d in (IN, OUT)} | {"a", "r"}
        got = set(table.keys())
        if got != want:
            raise ValueError(f"vertex table must cover exactly {sorted(map(str, want))}")
        blocks = [int(v) for v in table.values()]
        if len(set(blocks)) != len(blocks):
            raise ValueError("vertex table blocks must be distinct")
        self._table = {k: int(v) for k, v in table.items()}
        self._sets = {v: MSet([Box(Interval(k, k + 1))]) for v, k in self._table.items()}
        # one translation per difference of blocks
        self._moves = {b - a: TransformationDescriptor.translation(b - a)
                       for a in self._table.values() for b in self._table.values()}
        self._interface = self.mset(*[(s, d) for s in SYMBOLS for d in (IN, OUT)])
        self._answers = self.mset("a", "r")
        self._support = self._interface.union(self._answers)

    def block(self, vertex) -> int:
        return self._table[vertex]

    def interval(self, vertex) -> Interval:
        k = self.block(vertex)
        return Interval(k, k + 1)

    def mset(self, *vertices) -> MSet:
        if len(vertices) == 1:
            return self._sets[vertices[0]]
        return MSet([Box(self.interval(v)) for v in vertices])

    def interface_mset(self) -> MSet:
        """The six symbol/direction blocks."""
        return self._interface

    def answers_mset(self) -> MSet:
        return self._answers

    def machine_support(self) -> MSet:
        return self._support

    def translation(self, src, tgt) -> TransformationDescriptor:
        return self._moves[self.block(tgt) - self.block(src)]

    def items(self):
        return dict(self._table)


DEFAULT_PSI = VertexTable({
    ("*", IN): 0, ("*", OUT): 1,
    ("0", IN): 2, ("0", OUT): 3,
    ("1", IN): 4, ("1", OUT): 5,
    "a": 6, "r": 7,
})

# A second layout used to check that nothing downstream leans on the
# default block arrangement.
ALT_PSI = VertexTable({
    ("*", IN): 5, ("*", OUT): 2,
    ("0", IN): 7, ("0", OUT): 0,
    ("1", IN): 3, ("1", OUT): 6,
    "a": 1, "r": 4,
})


def _check_word(w) -> tuple[str, ...]:
    if isinstance(w, str):
        letters = tuple(w)
    else:
        letters = tuple(str(c) for c in w)
    for c in letters:
        if c not in ("0", "1"):
            raise BadAlphabet(f"word symbol {c!r} is not 0 or 1")
    return letters


def _words_upto(max_len: int):
    """Every binary word of at most max_len letters, shortest first."""
    for k in range(max_len + 1):
        for bits in range(2**k):
            yield format(bits, f"0{k}b") if k else ""


class WordGraph:
    """Combinatorial word graph: circular positions 0..k, marker at 0."""

    __slots__ = ("letters", "edges")

    def __init__(self, letters: tuple[str, ...]):
        self.letters = letters
        k = len(letters)
        syms = ("*",) + letters
        edges = []
        for i in range(k + 1):
            j = (i + 1) % (k + 1)
            edges.append(("r", i, (syms[i], OUT), i, (syms[j], IN), j))
        for i in range(k + 1):
            j = (i - 1) % (k + 1)
            edges.append(("l", i, (syms[i], IN), i, (syms[j], OUT), j))
        self.edges = tuple(edges)

    @property
    def length(self) -> int:
        return len(self.letters)

    def __repr__(self):
        return f"WordGraph({''.join(self.letters)!r})"


def word_graph(w) -> WordGraph:
    return WordGraph(_check_word(w))


def word_graphing(w, psi: VertexTable = DEFAULT_PSI) -> GraphingRep:
    """The word graph as a graphing on the interface blocks.

    One edge per word-graph edge: a block translation with the position
    carried by the dialect, weight one throughout.
    """
    wg = w if isinstance(w, WordGraph) else word_graph(w)
    edges = []
    for _, i, src, si, tgt, sj in wg.edges:
        edges.append(Edge(psi.mset(src), si, sj, psi.translation(src, tgt), ONE))
    return GraphingRep(psi.interface_mset(), wg.length + 1, edges)


def promote(g: GraphingRep) -> GraphingRep:
    """Trade the dialect for a grid on coordinate 1.

    State i of n becomes the column [i/n, (i+1)/n) and each edge gains the
    circle shift (out-in)/n on coordinate 1.  Edges that already move
    coordinate 1 have nothing to pair with and are rejected.
    """
    n = g.dialect_size
    edges = []
    # each distinct shift, and its composite with each map, built once;
    # maps are told apart by identity, as g holds them for the whole call
    shifts: dict[int, TransformationDescriptor] = {}
    moves: dict[tuple, TransformationDescriptor] = {}
    # state -> its column
    cols: dict[int, Interval] = {}
    for k, e in enumerate(g.edges):
        if e.mapd.perm(1) != 1 or e.mapd.shift(1) != 0:
            raise PairingRequired(f"edge {k} already acts on coordinate 1")
        boxes = []
        col = cols.get(e.in_state)
        if col is None:
            col = cols[e.in_state] = Interval(Fraction(e.in_state, n),
                                              Fraction(e.in_state + 1, n))
        for b in e.source.boxes:
            coords = dict(b.coords)
            coords[1] = col if 1 not in coords else coords[1].intersect(col)
            boxes.append(Box(b.line, coords))
        step = e.out_state - e.in_state
        if step not in shifts:
            shifts[step] = TransformationDescriptor.coordinate_shift(1, Fraction(step, n))
        key = (step, id(e.mapd))
        if key not in moves:
            moves[key] = shifts[step].compose(e.mapd)
        edges.append(Edge(MSet(boxes), 0, 0, moves[key], e.weight))
    return GraphingRep(g.support, 1, edges)


def representation(w, renaming: Mapping[int, int] | None = None,
                   psi: VertexTable = DEFAULT_PSI) -> GraphingRep:
    """Dialect-free graphing of a word: rename, then promote.

    The renaming (identity when omitted) relocates the tape positions
    inside the grid; any injective relocation must give the same verdicts
    downstream.
    """
    g = word_graphing(w, psi)
    if renaming is not None:
        g = rename_dialect(g, renaming)
    return promote(g)
