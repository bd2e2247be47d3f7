"""Running graphings against each other.

An alternating path of two graphings is a walk: (node, map, dilation,
flag, set).  The node is (dialect pair, side to fire); the pair holds,
per side, the in-state of that side's first edge and its current
out-state, both None while the side has not fired.  The set holds the
points the walk is at.  One walk runs over two set algebras, each a
graph with the same interface: `seeds(cut)` fires every edge from the
free pair on its source less the cut, `extend(walk)` takes a walk one
edge further (chaining the dialect pair with `_chain`) by the edges that
`_Sources`, the one lookup of both, lists for its set and out-state,
`count` is what a firing costs against the budget, `split(sets, others)`
gives the parts inside and outside others, and `records` reads the exits
out as (source, dialect pair, map, weight).

`_ExactGraph` works for any maps, on rational boxes; a firing counts 1.
`CellGraph` applies when every map is rigid at some grid: slope one,
integer offsets, circle shifts on grid lines, coordinate permutations
within a bound.  `cell_decompose` reads the grid and the bound once, or
raises NotCellRigid.  Rigid maps send grid cells to grid cells, so its
walks run on a finite product graph, carrying the cells that share a
label sequence as grid boxes; a firing counts the cells it carries.
`plug` takes the cell graph exactly when it exists, and both run the one
search `_plug`; `alternating_paths` lists the exact walks without a cut.
`walk_counts`, the circuit search and listing of the measurement module,
and the run-to-path map of the encodings module also walk the cell graph.

Plugging two graphings along a cut region composes the alternating paths
that start outside the cut, travel inside it, and exit; the composite
becomes an edge of the result.  It has set semantics: a composite covers
each (start point, dialect pair, map, weight) once, however many paths
reach it, since a walk goes on only with the part of its set not reached
before with the same node, map and weight.  The paper places these
machines at logspace, where what counts is which configurations a run
reaches, not how many paths reach them; keeping meeting walks once is
what keeps a plug finite, and polynomial, when two nondeterministic runs
reach one configuration.  Measuring a result exactly (0 or INF) does not
depend on multiplicity.  The dialect of the result is the product
dialect renamed to an initial segment; a path that never touched one
side is replicated over that side's states.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import ceil, floor, lcm
from typing import Iterable, Sequence

from .errors import (
    IterationCapExceeded,
    NonTerminating,
    NotCellRigid,
    OverlappingSupports,
)
from .graphings import Edge, GraphingRep, Project, SymValue, Weight
from .microcosm import Perm, TransformationDescriptor
from .space import Box, Interval, MSet

__all__ = [
    "AlternatingPath",
    "CellGraph",
    "cell_decompose",
    "alternating_paths",
    "plug",
    "plug_projects",
    "expansion_cap",
    "cell_path_counts",
    "walk_counts",
]

DEFAULT_CAP = 10_000
ENV_CAP = "GM_MAX_PATH_LEN"


def expansion_cap(override: int | None = None) -> int:
    """Iteration budget: explicit override, else environment, else default.
    A negative budget is a ValueError naming where it came from."""
    what, raw = "cap", override
    if override is None:
        what, raw = ENV_CAP, os.environ.get(ENV_CAP)
        if not raw:
            return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"{what} must be at least 0, got {cap}")
    return cap


Cell = tuple[int, tuple[int, ...]]
# a grid box: (block lo, block hi, one (lo, hi) range of grid indices per
# coordinate), the form of `CellGraph.grid_boxes`
GridBox = tuple[int, int, tuple[tuple[int, int], ...]]
# dialect pair before either side fires: (first in-state, out-state) per side
FREE = ((None, None), (None, None))


def _slab_table(items) -> tuple[list, list[list]]:
    """Cut an axis at every endpoint of items (payload, lo, hi), given in
    order: (cuts, slabs), where slabs[i] lists, in item order and without
    repeats, the payloads whose range covers [cuts[i], cuts[i+1]).  One
    pass over the items, each bisected to its run of slabs."""
    cuts = sorted({p for _x, lo, hi in items for p in (lo, hi)})
    slabs: list[list] = [[] for _ in cuts[1:]]
    for x, lo, hi in items:
        for i in range(bisect_left(cuts, lo), bisect_left(cuts, hi)):
            if not slabs[i] or slabs[i][-1] != x:
                slabs[i].append(x)
    return cuts, slabs


class _Sources:
    """Where the edges' sources lie: the one lookup of both graphs.  Each
    source box is listed, with a payload, per side, in-state and unit
    block it spans, and again under in-state None, which admits every
    in-state; each key cuts coordinate 1 at every endpoint of its boxes
    (`_slab_table`, built the first time a lookup needs it).  A lookup
    lists what lies on the slabs its range meets: all it lists chains."""

    def __init__(self, spans):
        # (side, in-state, block) -> (payload, coordinate-1 lo, hi) per box
        # on the block, from spans (side, in-state, payload, block lo, block
        # hi, coordinate-1 lo, hi); and each key's table once built
        self._spans: dict[tuple, list] = {}
        self._tables: dict[tuple, tuple] = {}
        for side, state, x, lo, hi, a, z in spans:
            span = (x, a, z)
            for blk in range(lo, hi):
                self._spans.setdefault((side, state, blk), []).append(span)
                self._spans.setdefault((side, None, blk), []).append(span)

    def listed(self, side: int, state: int | None, lo: int, hi: int, a, z) -> list:
        """The payloads of one side's boxes that may meet blocks lo..hi-1
        on coordinate 1 [a, z) from in-state state, in order, each once."""
        slabs: list = []
        for blk in range(lo, hi):
            key = (side, state, blk)
            table = self._tables.get(key)
            if table is None:
                if key not in self._spans:
                    continue
                table = self._tables[key] = _slab_table(self._spans[key])
            cuts, ts = table
            slabs += ts[max(bisect_right(cuts, a) - 1, 0):bisect_left(cuts, z)]
        if len(slabs) < 2:
            return slabs[0] if slabs else []
        # a source box listed on several slabs is listed once
        return sorted({x for xs in slabs for x in xs})


def _chain(st, side: int, e: Edge):
    """Fire edge e of one side on a dialect pair, where e chains at that
    side's out-state (any edge while it is None): the new pair."""
    first, out = st[side]
    now = (e.in_state if out is None else first, e.out_state)
    return (now, st[1]) if side == 0 else (st[0], now)


def cell_count(boxes) -> int:
    """The number of cells in grid boxes."""
    total = 0
    for lo, hi, ranges in boxes:
        v = hi - lo
        for a, z in ranges:
            v *= z - a
        total += v
    return total


def _meet(box: GridBox, other: GridBox) -> GridBox | None:
    """The grid box two grid boxes share, or None when they are disjoint."""
    lo, hi, rs = box
    olo, ohi, ors = other
    if olo > lo:
        lo = olo
    if ohi < hi:
        hi = ohi
    if lo >= hi:
        return None
    ranges = []
    for (a, z), (c, d) in zip(rs, ors):
        if c > a:
            a = c
        if d < z:
            z = d
        if a >= z:
            return None
        ranges.append((a, z))
    return lo, hi, tuple(ranges)


def _split(boxes: list, others) -> tuple[list, list]:
    """Grid boxes cut by others: (the parts inside a box of others, the
    disjoint parts outside them all).  A box that meets another is cut
    around the part they share (`_meet`), along the line and then along
    each coordinate, into at most two parts either side of it on that
    axis.  The parts inside are disjoint when the boxes of others are."""
    inside = []
    for other in others:
        out = []
        for b in boxes:
            mid = _meet(b, other)
            if mid is None:
                out.append(b)
                continue
            lo, hi, rs = b
            mlo, mhi, mids = mid
            if lo < mlo:
                out.append((lo, mlo, rs))
            if mhi < hi:
                out.append((mhi, hi, rs))
            if mids != rs:
                for i, ((a, z), (x, y)) in enumerate(zip(rs, mids)):
                    if a < x:
                        out.append((mlo, mhi, (*mids[:i], (a, x), *rs[i + 1:])))
                    if y < z:
                        out.append((mlo, mhi, (*mids[:i], (y, z), *rs[i + 1:])))
            inside.append(mid)
        boxes = out
    return inside, boxes


class CellGraph:
    """Finite cell structure of a family of rigid graphings.

    A cell is a unit line block crossed with a grid cube; every edge of
    every graphing maps cells onto cells, so the walks that share a label
    sequence move as one group, carried as disjoint grid boxes of the
    cells they are at.  A grid box is a run of blocks and one range of
    grid indices per coordinate; every distinct set the engine reads, an
    edge's source or a set in extra such as the cut, is read once into
    grid boxes (`grid_boxes`), the sets in extra kept as `extra`.  Arrows
    are computed on demand: the graph only stores, per edge, its source
    boxes, its map as integers, (block offset, moves), the moves giving
    per coordinate of the image the coordinate it reads and the grid steps
    it shifts by, and its dilation and flag.  Edges that share a source
    set or a descriptor object share these: each distinct one is checked
    for rigidity, read for the grid and the bound, and turned into boxes
    or integers once.  A rigid map sends a box to at most 2^N boxes: the
    moves reorder the ranges and a shift splits a range at most once, at
    the wrap (`images`).  A walk is (node, integer map, dilation, flag,
    grid boxes); `seeds` starts one per edge, `root` one at a cell and a
    node, and `extend` takes a walk one edge further, composing that
    edge's integer map, dilation and flag onto it: every cell search
    steps this one way.  A group's start cells are the inverse map of its
    boxes (`walks`), and a map becomes a descriptor only to read a result
    out (`descriptor`, once per map).  `arrows` is the one place that
    tries edges on boxes: it returns the edges firing on a walk's boxes
    with the boxes they send them to, meeting a box only with the source
    boxes `_Sources` lists for it (`_listed`); `landings` asks the same
    lookup where an edge's image meets the other side's sources.  A firing
    counts the cells it carries, the volume of its boxes (`cell_count`),
    so the budget's unit is a cell fired however the cells are boxed;
    `count`, `split` and `records` are what plugging asks of it, as of
    `_ExactGraph`.  Built by `cell_decompose`; the grid and the coordinate
    bound are read off the same distinct maps and sets.
    """

    def __init__(self, gs: Sequence[GraphingRep], extra: Sequence[MSet] = ()):
        self.gs = list(gs)
        # the distinct maps and source sets, told apart by identity: edges
        # compiled or promoted together share them
        maps: dict[int, TransformationDescriptor] = {}
        sets: dict[int, MSet] = {}
        grid, bound = 1, 0
        for side, g in enumerate(self.gs):
            for k, e in enumerate(g.edges):
                d = e.mapd
                if id(d) not in maps:
                    if d.slope != 1 or d.offset.denominator != 1:
                        raise NotCellRigid(f"graphing {side} edge {k}: slope {d.slope} "
                                           f"and offset {d.offset} are not rigid")
                    maps[id(d)] = d
                    for idx, lam in d.shifts:
                        grid = lcm(grid, lam.denominator)
                        bound = max(bound, idx)
                    bound = max(bound, max(d.perm.support(), default=0))
                sets.setdefault(id(e.source), e.source)
        for m in (*extra, *sets.values()):
            for b in m.boxes:
                if b.line.lo.denominator != 1 or b.line.hi.denominator != 1:
                    raise NotCellRigid(f"block [{b.line.lo},{b.line.hi}) is not integral")
                for idx, iv in b.coords:
                    grid = lcm(grid, iv.lo.denominator, iv.hi.denominator)
                    bound = max(bound, idx)
        self.n = grid
        self.N = bound
        # the grid boxes of each set in extra
        self.extra = [self.grid_boxes(m, "extra set") for m in extra]
        # per side and edge, what a walk takes on when the edge fires:
        # (source boxes, integer map, dilation, flag), the map as (block
        # offset, moves), where moves[i] = (j, s) puts cube[j] + s (mod n)
        # at coordinate i + 1, and the dilation the int 1 when it is one
        self._edges: list[list[tuple]] = []
        # integer map -> its descriptor, built when a walk's result is read
        self._descs: dict[tuple, TransformationDescriptor] = {}
        # the range a box without coordinates is looked up on coordinate 1
        self._whole = (0, grid)
        fixed = tuple((c, 0) for c in range(bound))
        imaps = {}
        for i, d in maps.items():
            moves = fixed  # shared by the maps that move no coordinate
            if d.shifts or not d.perm.is_identity():
                moves = list(fixed)
                for c in d.perm.support():
                    moves[d.perm(c) - 1] = (c - 1, 0)
                for j, lam in d.shifts:
                    # the grid is a multiple of every shift's denominator
                    moves[j - 1] = (moves[j - 1][0], lam.numerator * (grid // lam.denominator))
                moves = tuple(moves)
            imaps[i] = (int(d.offset), moves)
        sources = {i: self.grid_boxes(m, "edge source") for i, m in sets.items()}
        spans = []
        for side, g in enumerate(self.gs):
            rules = []
            for k, e in enumerate(g.edges):
                boxes = sources[id(e.source)]
                a = e.weight.a
                rules.append((boxes, imaps[id(e.mapd)], 1 if a == 1 else a, e.weight.flag))
                for box in boxes:
                    lo, hi, ranges = box
                    spans.append((side, e.in_state, (k, box), lo, hi,
                                  *(ranges[0] if ranges else self._whole)))
            self._edges.append(rules)
        self._sources = _Sources(spans)  # each source box as (edge, box)

    # -- geometry of cells -------------------------------------------------

    def grid_boxes(self, m: MSet, what: str = "set") -> list[GridBox]:
        """A set as boxes of grid indices, (block lo, block hi, one (lo, hi)
        range per coordinate); NotCellRigid when it is off the grid."""
        n = self.n
        full = ((0, n),) * self.N
        out = []
        for b in m.boxes:
            lo, hi = b.line.lo, b.line.hi
            if lo.denominator != 1 or hi.denominator != 1:
                raise NotCellRigid(f"{what}: block [{lo},{hi}) not integral")
            ranges = list(full)
            for idx, iv in b.coords:
                if idx > self.N:
                    raise NotCellRigid(f"{what}: coordinate {idx} beyond bound {self.N}")
                a, z = iv.lo, iv.hi
                if n % a.denominator or n % z.denominator:
                    raise NotCellRigid(f"{what}: coordinate {idx} off the 1/{n} grid")
                ranges[idx - 1] = (a.numerator * (n // a.denominator),
                                   z.numerator * (n // z.denominator))
            out.append((lo.numerator, hi.numerator, tuple(ranges)))
        return out

    def cell_mset(self, cell: Cell) -> MSet:
        blk, cube = cell
        coords = {
            c + 1: Interval(Fraction(j, self.n), Fraction(j + 1, self.n))
            for c, j in enumerate(cube)
        }
        return MSet([Box(Interval(blk, blk + 1), coords)])

    def cell_volume(self) -> Fraction:
        return Fraction(1, self.n) ** self.N

    # -- arrows ------------------------------------------------------------

    def source_cells(self, side: int, k: int) -> Iterable[Cell]:
        """Cells of an edge's source in order."""
        for lo, hi, ranges in self._edges[side][k][0]:
            dims = [range(rlo, rhi) for rlo, rhi in ranges]
            for blk in range(lo, hi):
                for cube in iproduct(*dims):
                    yield blk, cube

    def images(self, imap: tuple, box: GridBox) -> list[GridBox]:
        """The grid boxes an integer map sends a box's cells to: one, or
        one per side of the wrap of each range that a shift carries
        across it."""
        offset, moves = imap
        lo, hi, ranges = box
        n = self.n
        out = []
        wraps = False
        for j, s in moves:
            a, z = ranges[j]
            if s:
                a += s
                z += s
                if a >= n:
                    a -= n
                    z -= n
                elif z > n:
                    wraps = True
            out.append((a, z))
        if not wraps:
            return [(lo + offset, hi + offset, tuple(out))]
        axes = [((a, n), (0, z - n)) if z > n else ((a, z),) for a, z in out]
        return [(lo + offset, hi + offset, rs) for rs in iproduct(*axes)]

    def walks(self, imap: tuple, boxes) -> dict[Cell, Cell]:
        """{start cell: cell} over the cells of boxes reached by walks that
        took the integer map imap."""
        offset, moves = imap
        if not moves:
            return {(blk - offset, ()): (blk, ()) for lo, hi, _r in boxes for blk in range(lo, hi)}
        n = self.n
        # start coordinate j is image coordinate i less its shift s
        back = sorted((j, i, s) for i, (j, s) in enumerate(moves))
        out = {}
        for lo, hi, ranges in boxes:
            for cube in iproduct(*[range(a, z) for a, z in ranges]):
                start = tuple([(cube[i] - s) % n for _j, i, s in back])
                for blk in range(lo, hi):
                    out[blk - offset, start] = (blk, cube)
        return out

    def descriptor(self, imap: tuple) -> TransformationDescriptor:
        """The descriptor of an integer map, built once per map: image
        coordinate i + 1 reads coordinate j + 1 and is shifted by s/n."""
        if imap not in self._descs:
            offset, moves = imap
            self._descs[imap] = TransformationDescriptor._normal(
                Fraction(1), Fraction(offset),
                Perm({j + 1: i + 1 for i, (j, _s) in enumerate(moves)}),
                tuple((i + 1, Fraction(s, self.n)) for i, (_j, s) in enumerate(moves) if s))
        return self._descs[imap]

    # -- what plugging asks of a graph --------------------------------------

    unit = "cell-arrow expansions"
    count = staticmethod(cell_count)
    split = staticmethod(_split)

    def records(self, results) -> list[tuple]:
        """(start cell as a set, dialect pair, map, weight) per start cell,
        from {(dialect pair, integer map, dilation, flag): [exit boxes]};
        identical ones once."""
        found = {(start, st, imap, a, flag): None
                 for (st, imap, a, flag), exits in results.items()
                 for start in self.walks(imap, [b for boxes in exits for b in boxes])}
        return [(self.cell_mset(start), st, self.descriptor(imap), Weight(a, flag))
                for start, st, imap, a, flag in found]

    def _listed(self, side: int, state: int | None, box: GridBox) -> list[tuple[int, GridBox]]:
        """The (edge, source box) pairs of one side that may meet a box
        from a dialect state, in edge order (`_Sources`)."""
        lo, hi, ranges = box
        return self._sources.listed(side, state, lo, hi, *(ranges[0] if ranges else self._whole))

    def arrows(self, side: int, state: int | None, boxes) -> list[tuple[int, list]]:
        """The edges of one side firing on a walk's boxes from a dialect
        state, as (edge, the boxes its part of them goes to, in box order)
        in edge order; state None admits every in-state.  Only the source
        boxes `_listed` for a box are intersected with it."""
        rules = self._edges[side]
        moved: dict[int, list] = {}
        for box in boxes:
            for k, src in self._listed(side, state, box):
                piece = _meet(box, src)
                if piece is not None:
                    imgs = self.images(rules[k][1], piece)
                    if k in moved:
                        moved[k] += imgs
                    else:
                        moved[k] = imgs
        return sorted(moved.items())

    def landings(self, side: int, k: int, state: int) -> dict[Cell, Cell]:
        """{start cell: cell} over the cells edge k of one side sends into a
        source of the other side's edges of in-state state: the cells where
        the other side can fire next from that state."""
        boxes, imap, _a, _flag = self._edges[side][k]
        return self.walks(imap, [piece for b in boxes for img in self.images(imap, b)
                                 for _j, src in self._listed(1 - side, state, img)
                                 if (piece := _meet(img, src)) is not None])

    # -- walks: (node, integer map, dilation, flag, grid boxes) ------------

    def root(self, cell: Cell, node) -> tuple:
        """The walk of no edges at one cell, at node (dialect pair, side
        to fire)."""
        blk, cube = cell
        return (node, (0, tuple([(c, 0) for c in range(self.N)])), 1, 0,
                [(blk, blk + 1, tuple([(x, x + 1) for x in cube]))])

    def seeds(self, cut=()):
        """Every edge fired from the free pair on its source boxes less
        the cut, given as grid boxes: (side, k, the walk it starts)."""
        for side, g in enumerate(self.gs):
            for k, e in enumerate(g.edges):
                boxes, imap, a, flag = self._edges[side][k]
                _in, boxes = _split(boxes, cut)
                if boxes:
                    yield side, k, ((_chain(FREE, side, e), 1 - side), imap, a, flag,
                                    [img for b in boxes for img in self.images(imap, b)])

    def extend(self, walk):
        """The walks one more edge takes a walk to, in edge order, as (k,
        walk): the side to fire fires every edge chaining at its
        out-state, or any edge while still free, on the walk's boxes.  The
        new walk chains the dialect pair, composes the edge's integer map
        after the walk's, multiplies in its dilation unless that is 1 and
        ORs in its flag."""
        node, (offset, bm), a, flag, boxes = walk
        st, turn = node
        edges = self.gs[turn].edges
        rules = self._edges[turn]
        n = self.n
        for k, imgs in self.arrows(turn, st[turn][1], boxes):
            _src, (eoff, emoves), dil, eflag = rules[k]
            yield k, ((_chain(st, turn, edges[k]), 1 - turn),
                      (eoff + offset, tuple([(bm[j][0], (bm[j][1] + s) % n) for j, s in emoves])),
                      a if dil == 1 else a * dil, flag | eflag, imgs)


def cell_decompose(gs: Sequence[GraphingRep], extra: Sequence[MSet] = ()) -> CellGraph:
    """Cell structure of the given graphings, and of the sets in extra, at
    the coarsest grid that makes them rigid; NotCellRigid if none does.
    Each distinct map and set, told apart by identity, is read once."""
    return CellGraph(gs, extra)


@dataclass(frozen=True)
class AlternatingPath:
    """A composable run of edges alternating between two graphings."""

    sides: tuple[int, ...]
    edges: tuple[Edge, ...]
    source: MSet
    composed: TransformationDescriptor
    in_pair: tuple[int | None, int | None]
    out_pair: tuple[int | None, int | None]
    weight: Weight

    @property
    def length(self) -> int:
        return len(self.edges)

    def target(self) -> MSet:
        return self.composed.apply_mset(self.source)


class _ExactGraph:
    """The walks of graphings on rational sets, for any maps.

    A walk is (node, descriptor, dilation, flag, set), the set a list of
    disjoint boxes in normal form, as are the sets in extra (`extra`).
    `extend` intersects the set, in edge order, only with the sources of
    the edges that `_Sources` lists for a box's blocks (from floor(lo) to
    ceil(hi) on the line), coordinate-1 range and state.  A firing counts
    1, so the budget counts arrows fired."""

    unit = "fired arrows"
    count = staticmethod(lambda boxes: 1)

    def __init__(self, gs: Sequence[GraphingRep], extra: Sequence[MSet] = ()):
        self.gs = list(gs)
        self.extra = [list(m.boxes) for m in extra]
        # each source box listed as its edge number
        self._sources = _Sources((side, e.in_state, k, floor(b.line.lo), ceil(b.line.hi),
                                  b.coord(1).lo, b.coord(1).hi) for side, g in enumerate(self.gs)
                                 for k, e in enumerate(g.edges) for b in e.source.boxes)

    @staticmethod
    def split(boxes, others) -> tuple[list, list]:
        """A set cut by others: (the part inside, the part outside), each a
        new list of boxes in normal form."""
        m, cut = MSet(boxes), MSet(others)
        return list(m.intersect(cut).boxes), list(m.difference(cut).boxes)

    def seeds(self, cut=()):
        """Every edge fired from the free pair on its source less the cut:
        (side, k, the walk it starts).  Edges that share a source and a
        map, told apart by identity, share the image."""
        images: dict[tuple[int, int], list] = {}
        for side, g in enumerate(self.gs):
            for k, e in enumerate(g.edges):
                key = (id(e.source), id(e.mapd))
                if key not in images:
                    _in, piece = self.split(e.source.boxes, cut)
                    images[key] = list(e.mapd.apply_mset(MSet(piece)).boxes)
                if images[key]:
                    # a copy each: a plug adds to the set of a walk it keeps
                    yield side, k, ((_chain(FREE, side, e), 1 - side), e.mapd, e.weight.a,
                                    e.weight.flag, list(images[key]))

    def extend(self, walk):
        """The walks one more edge takes a walk to, in edge order, as (k,
        walk).  The new walk chains the dialect pair, composes the edge's
        map after the walk's, multiplies in its dilation and ORs in its
        flag; its set is the image of the part of the set the edge's
        source holds."""
        (st, turn), desc, a, flag, boxes = walk
        hits: set[int] = set()
        for b in boxes:
            c1 = b.coord(1)
            hits.update(self._sources.listed(turn, st[turn][1], floor(b.line.lo),
                                             ceil(b.line.hi), c1.lo, c1.hi))
        carried = MSet(boxes)
        edges = self.gs[turn].edges
        for k in sorted(hits):
            e = edges[k]
            if not (piece := carried.intersect(e.source)).is_empty():
                yield k, ((_chain(st, turn, e), 1 - turn), e.mapd.compose(desc), a * e.weight.a,
                          flag | e.weight.flag, list(e.mapd.apply_mset(piece).boxes))

    @staticmethod
    def records(results) -> list[tuple]:
        """(source, dialect pair, map, weight) per exit set, from {(dialect
        pair, map, dilation, flag): [exit sets]}; identical ones once."""
        found = {}
        for (st, desc, a, flag), exits in results.items():
            for boxes in exits:
                src = desc.inverse().apply_mset(MSet(boxes))
                found[src, st, desc, a, flag] = (src, st, desc, Weight(a, flag))
        return list(found.values())


def alternating_paths(f: GraphingRep, g: GraphingRep, max_len: int | None = None,
                      cap: int | None = None) -> list[AlternatingPath]:
    """Every alternating path of positive measure, shortest first.

    A breadth-first search of the exact walks (`_ExactGraph`) that keeps
    every walk with the sides and edges it took.  With max_len given,
    enumeration stops at that length; without it the enumeration must die
    out on its own within the budget of arrows fired.
    """
    graph = _ExactGraph([f, g])
    budget = expansion_cap(cap)
    # (sides, edges, walk), breadth first: the loop goes on over the paths
    # it appends, from the empty path, whose walk is None
    paths: list = [((), (), None)]
    for sides, edges, walk in paths:
        if max_len is not None and len(edges) >= max_len:
            continue
        fired = graph.seeds() if walk is None else \
            ((walk[0][1], k, nxt) for k, nxt in graph.extend(walk))
        for side, k, nxt in fired:
            if len(paths) > budget:
                raise IterationCapExceeded(
                    f"alternating paths still alive after {budget} arrows fired")
            paths.append((sides + (side,), edges + (graph.gs[side].edges[k],), nxt))
    return sorted((AlternatingPath(sides, edges, desc.inverse().apply_mset(MSet(boxes)), desc,
                                   (st[0][0], st[1][0]), (st[0][1], st[1][1]), Weight(a, flag))
                   for sides, edges, ((st, _turn), desc, a, flag, boxes) in paths[1:]),
                  key=lambda p: (p.length, p.sides))


def _pair_state(st, df_size, dg_size):
    """Resolve free sides and rename the product dialect to an initial segment."""
    (in_f, out_f), (in_g, out_g) = st
    if in_f is None and in_g is None:
        raise AssertionError("a path must engage at least one side")
    if in_f is None:
        variants = [(d, d, in_g, out_g) for d in range(df_size)]
    elif in_g is None:
        variants = [(in_f, out_f, d, d) for d in range(dg_size)]
    else:
        variants = [(in_f, out_f, in_g, out_g)]
    out = []
    for a, b, c, d in variants:
        out.append((a * dg_size + c, b * dg_size + d))
    return out


def _check_supports(f: GraphingRep, g: GraphingRep, cut: MSet):
    overlap = f.support.intersect(g.support).difference(cut)
    if overlap.measure() != 0:
        raise OverlappingSupports(
            "graphings overlap outside the cut region")


def _plug(graph, cut, cap, max_len):
    """Breadth-first search of a graph's walks from every seed outside the
    cut, given in the graph's sets; a walk becomes a composite edge where
    it leaves the cut.  Each walk counts against the budget (`count`), and
    goes on with the part of its set not reached before with its node, map
    and weight, split at the cut (`split`); `records` reads the exits out."""
    count, split = graph.count, graph.split
    # (dialect pair, map, dilation, flag) -> the sets where walks leave the cut
    results: dict = {}
    budget = expansion_cap(cap)
    fires, truncated = 0, False
    queue: deque = deque()
    # (node, map, dilation, flag) -> the disjoint sets reached there
    seen: dict = {}

    def reach(walk, length):
        nonlocal fires
        node, imap, a, flag, reached = walk
        fires += count(reached)
        if fires > budget:
            raise NonTerminating(f"plug exceeded the budget of {budget} {graph.unit}")
        key = (node, imap, a, flag)
        known = seen.get(key)
        if known is None:
            seen[key] = reached
        else:
            _in, reached = split(reached, known)
            known += reached
        inside, outside = split(reached, cut)
        if outside:
            results.setdefault((node[0], imap, a, flag), []).append(outside)
        if inside:
            queue.append(((node, imap, a, flag, inside), length))

    for _side, _k, walk in graph.seeds(cut):
        if max_len == 0:
            # a seed is an arrow that would make a path of length 1
            return [], True
        reach(walk, 1)
    while queue:
        walk, length = queue.popleft()
        if max_len is not None and length >= max_len:
            truncated = True
            continue
        for _k, nxt in graph.extend(walk):
            reach(nxt, length + 1)
    return graph.records(results), truncated


def plug(f: GraphingRep, g: GraphingRep, cut: MSet, *, max_len: int | None = None,
         cap: int | None = None, allow_truncation: bool = False) -> GraphingRep:
    """Compose two graphings along a cut region.

    Rigid inputs walk on grid cells (`CellGraph`), everything else on
    rational sets (`_ExactGraph`); both run the one search `_plug`, which
    covers each start point, dialect pair, map and weight once, so it
    closes off when the walks come back to what they reached.  Running
    out of budget raises NonTerminating on both; so does stopping a path
    at max_len, unless allow_truncation is set.
    """
    _check_supports(f, g, cut)
    try:
        graph = cell_decompose([f, g], [cut])
    except NotCellRigid:
        graph = _ExactGraph([f, g], [cut])
    found, truncated = _plug(graph, graph.extra[0], cap, max_len)
    if truncated and not allow_truncation:
        raise NonTerminating("plugging truncated at the requested length")
    return _composite(f, g, cut, found)


def _composite(f: GraphingRep, g: GraphingRep, cut: MSet, found) -> GraphingRep:
    """The plugged graphing from (source, dialect pair, map, weight) records."""
    edges = [Edge(src, in_state, out_state, desc, weight)
             for src, st, desc, weight in found
             for in_state, out_state in _pair_state(st, f.dialect_size, g.dialect_size)]
    support = f.support.union(g.support).difference(cut)
    edges.sort(key=lambda e: (e.in_state, e.out_state, e.mapd.key(),
                              e.weight.a, e.weight.flag,
                              tuple(b.sort_key() for b in e.source.boxes)))
    return GraphingRep(support, f.dialect_size * g.dialect_size, edges)


def plug_projects(p: Project, q: Project, cut: MSet, cap: int | None = None) -> Project:
    """Plug projects: mix the wrappers, measure the cross terms, plug the
    graphings pairwise.  The cap is the budget of each plug and search."""
    from .measurement import INF, measure_graphings

    wrapper = p.wrapper.scale(q.coeff_sum()) + q.wrapper.scale(p.coeff_sum())
    cross = SymValue(0)
    terms = []
    for ca, ga in p.terms:
        for cb, gb in q.terms:
            # a circuit is flagged only if some edge is, so fully
            # unflagged pairs measure to zero without a search
            edges = ga.edges + gb.edges
            if any(e.weight.flag for e in edges):
                if any(e.weight.a != 1 for e in edges):
                    raise ValueError("plugging measures cross terms exactly: a flagged "
                                     "term pair needs every dilation equal to 1")
                m = measure_graphings(ga, gb, cap=cap)
                if m is INF:
                    raise ValueError("cross measurement diverges while plugging")
                cross = cross + SymValue(m).scale(ca * cb)
            terms.append((ca * cb, plug(ga, gb, cut, cap=cap)))
    return Project(wrapper + cross, terms)


def walk_counts(cg: CellGraph, walks: Iterable, max_len: int) -> dict[int, int]:
    """Number of product walks per length up to max_len, from walks of
    length one (`CellGraph.seeds`, `CellGraph.extend`): the cells they
    hold."""
    frontier = list(walks)
    counts: dict[int, int] = {}
    for length in range(1, max_len + 1):
        if not frontier:
            break
        counts[length] = sum(cell_count(walk[4]) for walk in frontier)
        if length < max_len:
            frontier = [nxt for walk in frontier for _k, nxt in cg.extend(walk)]
    return counts


def cell_path_counts(f: GraphingRep, g: GraphingRep, max_len: int) -> dict[int, int]:
    """Number of cell-level alternating walks per length; the cell shadow
    of alternating_paths for rigid inputs."""
    cg = cell_decompose([f, g])
    return walk_counts(cg, (walk for _side, _k, walk in cg.seeds()), max_len)
