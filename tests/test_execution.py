"""Alternating paths, plugging, and the finite cell quotient."""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product
import random

import pytest
from hypothesis import given, settings

from gmachines import cli, execution
from gmachines.automata import (IN, MultiheadAutomaton, Transition, co_accepts,
                                parity_automaton, zeros_ones_automaton)
from gmachines.encodings import automaton_to_machine
from gmachines.errors import IterationCapExceeded, NonTerminating, NotCellRigid
from gmachines.execution import (CellGraph, _ExactGraph, _composite, _plug,
                                 alternating_paths, cell_count, cell_decompose,
                                 cell_path_counts, expansion_cap, plug,
                                 plug_projects)
from gmachines.graphings import (Edge, GraphingRep, Project, SymValue, Weight,
                                 equivalent)
from gmachines.machines import accepts
from gmachines.microcosm import Perm, TransformationDescriptor
from gmachines.space import MSet, equal_ae, measure
from gmachines.words import DEFAULT_PSI, representation, word_graphing

from conftest import (line_edge, odometer, random_automata, random_rigid_pair, reweighted, seg,
                      series_shaped_pairs)
from oracles import (all_words, brute_paths, brute_plug, image, ref_arrows, ref_cells,
                     ref_co_accepts, ref_edges_from, ref_plug, ref_source_lists)


def _cells(boxes):
    """The cells of grid boxes, sorted."""
    return sorted((blk, cube) for lo, hi, ranges in boxes for blk in range(lo, hi)
                  for cube in product(*[range(a, z) for a, z in ranges]))


def _cell_box(cell):
    """The grid box holding one cell."""
    blk, cube = cell
    return blk, blk + 1, tuple((x, x + 1) for x in cube)


def _pair_raw(conveyor, doubler):
    fs = [("a", (0, 1, 1, 1)), ("b", (2, 3, 1, -1)), ("c", (3, 4, 1, 1))]
    gs = [("d", (Fraction(3, 2), 2, 2, -1)), ("e", (1, Fraction(3, 2), 2, 1))]
    return fs, gs


def test_length_one_paths_are_the_edges(conveyor, doubler):
    paths = alternating_paths(conveyor, doubler, max_len=1)
    assert len(paths) == len(conveyor.edges) + len(doubler.edges)
    srcs = sorted(measure(p.source) for p in paths)
    assert srcs == sorted(measure(e.source) for e in
                          list(conveyor.edges) + list(doubler.edges))


def test_census_matches_brute_force(conveyor, doubler):
    paths = alternating_paths(conveyor, doubler, max_len=7)
    got = dict(sorted(Counter(p.length for p in paths).items()))
    fs, gs = _pair_raw(conveyor, doubler)
    brute = Counter(len(labels) for labels, *_ in brute_paths(fs, gs, 7))
    assert got == dict(brute)
    assert got == {1: 5, 2: 6, 3: 6, 4: 6, 5: 6, 6: 6, 7: 6}


def test_loop_family_shapes(conveyor, doubler):
    # one surviving odd-length family: lengths 3, 5, 7 with halving sources
    paths = alternating_paths(conveyor, doubler, max_len=7)
    fam = {}
    for p in paths:
        if p.length % 2 == 1 and p.length >= 3 \
                and all(b.line.hi <= 1 for b in p.source.boxes) \
                and all(b.line.lo >= 4 for b in p.target().boxes):
            fam[p.length] = p
    assert sorted(fam) == [3, 5, 7]
    assert equal_ae(fam[3].source, seg(0, "1/2"))
    assert equal_ae(fam[5].source, seg("1/2", "3/4"))
    assert equal_ae(fam[7].source, seg("3/4", "7/8"))
    assert (fam[3].composed.slope, fam[3].composed.offset) == (2, 4)
    assert (fam[5].composed.slope, fam[5].composed.offset) == (4, 2)
    assert (fam[7].composed.slope, fam[7].composed.offset) == (8, -2)


def test_disjoint_interfaces_stop_at_length_one(seesaw):
    far = GraphingRep(seg(10, 12), 1, [line_edge(10, 11, 1, 1)])
    paths = alternating_paths(seesaw, far, max_len=6)
    assert all(p.length == 1 for p in paths)


def test_paths_alternate_sides(conveyor, doubler):
    for p in alternating_paths(conveyor, doubler, max_len=5):
        assert all(a != b for a, b in zip(p.sides, p.sides[1:]))


def test_plug_matches_frozen_worked_example(conveyor, doubler):
    out = plug(conveyor, doubler, seg(1, 4), max_len=7, allow_truncation=True)
    got = sorted((b.line.lo, b.line.hi, e.mapd.slope, e.mapd.offset)
                 for e in out.edges for b in e.source.boxes)
    assert got == [(0, Fraction(1, 2), 2, 4),
                   (Fraction(1, 2), Fraction(3, 4), 4, 2),
                   (Fraction(3, 4), Fraction(7, 8), 8, -2)]


def test_plug_matches_interval_oracle(conveyor, doubler):
    fs, gs = _pair_raw(conveyor, doubler)
    want = sorted((lo, hi, s, o)
                  for _, lo, hi, s, o in brute_plug(fs, gs, (1, 4), 7))
    out = plug(conveyor, doubler, seg(1, 4), max_len=7, allow_truncation=True)
    got = sorted((b.line.lo, b.line.hi, Fraction(e.mapd.slope), e.mapd.offset)
                 for e in out.edges for b in e.source.boxes)
    assert got == want


def test_plug_without_truncation_refuses_open_loop(conveyor, doubler):
    with pytest.raises(NonTerminating):
        plug(conveyor, doubler, seg(1, 4), max_len=7)


def test_plug_invariant_under_refining_the_cut_side(conveyor, doubler):
    # splitting an edge of g at an interior point must not change the result
    split = []
    for e in doubler.edges:
        boxes = e.source.boxes
        assert len(boxes) == 1
        lo, hi = boxes[0].line.lo, boxes[0].line.hi
        mid = (lo + hi) / 2
        split.append(line_edge(lo, mid, e.mapd.slope, e.mapd.offset))
        split.append(line_edge(mid, hi, e.mapd.slope, e.mapd.offset))
    g2 = GraphingRep(doubler.support, 1, split)
    base = plug(conveyor, doubler, seg(1, 4), max_len=7, allow_truncation=True)
    fine = plug(conveyor, g2, seg(1, 4), max_len=7, allow_truncation=True)
    assert equivalent(base, fine)


def test_plug_with_empty_partner(seesaw):
    empty = GraphingRep(seg(5, 6), 1, [])
    out = plug(seesaw, empty, seg(1, 2), max_len=4)
    # only x+1 restricted to the part that avoids [1,2) on both ends survives,
    # composed with x-1 back out of the cut
    assert all(measure(e.source) > 0 for e in out.edges)
    for e in out.edges:
        img = e.mapd.apply_mset(e.source)
        assert measure(img) == measure(e.source)
        for box in list(e.source.boxes) + list(img.boxes):
            assert box.line.hi <= 1 or box.line.lo >= 2


def test_rigid_plug_refuses_to_truncate_silently():
    m = automaton_to_machine(parity_automaton())
    rep = representation("0110")
    cut = DEFAULT_PSI.interface_mset()
    assert len(plug(m.graphing, rep, cut).edges) == 2
    for max_len in range(1, 9):
        with pytest.raises(NonTerminating):
            plug(m.graphing, rep, cut, max_len=max_len)
        cropped = plug(m.graphing, rep, cut, max_len=max_len, allow_truncation=True)
        assert not cropped.edges


def test_max_len_zero_records_no_path_on_either_route(conveyor, doubler):
    # no walk records a path longer than max_len
    m = automaton_to_machine(parity_automaton())
    assert alternating_paths(conveyor, doubler, max_len=0) == []
    assert alternating_paths(m.graphing, representation("01"), max_len=0) == []
    # a plug at max_len 0 is truncated whenever an edge could fire: the
    # exact route, then the cell route
    for f, g, cut in ((conveyor, doubler, seg(1, 4)),
                      (m.graphing, representation("0110"), DEFAULT_PSI.interface_mset())):
        with pytest.raises(NonTerminating):
            plug(f, g, cut, max_len=0)
        assert not plug(f, g, cut, max_len=0, allow_truncation=True).edges
    # and is not when every source lies in the cut
    inside = GraphingRep(seg(1, 2), 1, [line_edge(1, Fraction(3, 2), 2, -1)])
    rigid = GraphingRep(seg(1, 2), 1, [line_edge(1, 2, 1, 0)])
    empty = GraphingRep(seg(5, 6), 1, [])
    for f in (inside, rigid):
        assert not plug(f, empty, seg(1, 2), max_len=0).edges


def test_spent_budget_raises_on_both_routes(conveyor, doubler):
    # allow_truncation covers max_len only: a spent budget is never an
    # empty composite, on the exact route as on the cell route
    for cap in (5, 10, 12):
        with pytest.raises(NonTerminating):
            plug(conveyor, doubler, seg(1, 4), max_len=7,
                 allow_truncation=True, cap=cap)
    m = automaton_to_machine(parity_automaton())
    with pytest.raises(NonTerminating):
        plug(m.graphing, representation("0110"), DEFAULT_PSI.interface_mset(),
             allow_truncation=True, cap=1)


def test_exact_budget_counts_fired_arrows(conveyor, doubler):
    # the worked example fires 13 arrows up to length 7; edges that are
    # tried but do not fire cost nothing
    with pytest.raises(NonTerminating):
        plug(conveyor, doubler, seg(1, 4), max_len=7, allow_truncation=True, cap=12)
    out = plug(conveyor, doubler, seg(1, 4), max_len=7, allow_truncation=True, cap=13)
    assert len(out.edges) == 3
    assert out.to_json() == plug(conveyor, doubler, seg(1, 4), max_len=7,
                                 allow_truncation=True).to_json()


def _census(h, cg) -> Counter:
    """Every composite edge of h cell by cell: (in-state, out-state, map,
    weight, source cell), the cells read off its source by ref_cells."""
    return Counter((e.in_state, e.out_state, e.mapd.key(), e.weight.a, e.weight.flag, cell)
                   for e in h.edges for cell in ref_cells(e.source, cg.n, cg.N))


def _exact_plug(f, g, cut, cap=None, max_len=None):
    """The plug of f and g on the exact graph, whatever their maps:
    (records, truncated)."""
    return _plug(_ExactGraph([f, g], [cut]), list(cut.boxes), cap, max_len)


def _routes_agree(f, g, cut, max_len=None):
    """The cell route's plug against the exact route's, as graphings and
    cell by cell; returns the cell route's and its cell decomposition."""
    found, truncated = _exact_plug(f, g, cut, max_len=max_len)
    assert max_len is not None or not truncated
    exact = _composite(f, g, cut, found)
    cells = plug(f, g, cut, max_len=max_len, allow_truncation=max_len is not None)
    cg = cell_decompose([f, g], [cut])
    assert equivalent(exact, cells)
    assert _census(cells, cg) == _census(exact, cg)
    return cells, cg


def _route_inputs(winding_machine, tape_loop_machine):
    """(f, g, cut, max_len) for the plugging route tests: compiled and
    hand-built machines against words, and wide pairs.  The wide pairs'
    f lives on blocks 0-3 and g on the cut, blocks 1-2, where walks may
    cycle, so they stop at length 6."""
    cut = DEFAULT_PSI.interface_mset()
    small = ["", "1", "01", "110"]
    for m, words in ((automaton_to_machine(parity_automaton()),
                      ["", "0", "1", "0110", "10101"]),
                     (automaton_to_machine(zeros_ones_automaton()),
                      ["", "01", "0011", "0101", "10", "000111", "00001111"]),
                     (automaton_to_machine(odometer(2)), ["", "1", "01", "0110"]),
                     (winding_machine, small), (tape_loop_machine, small)):
        for w in words:
            yield m.graphing, representation(w), cut, None
    # wide sources over one or two blocks
    rng = random.Random(71)
    for i in range(20):
        f = random_rigid_pair(rng, grid=(3, 4)[i % 2], blocks=(0, 1, 2, 3), wide=True)[0]
        g = random_rigid_pair(rng, grid=(3, 4)[i % 2], blocks=(1, 2), wide=True)[1]
        yield f, g, seg(1, 3), 6
    # dilations below 1, which a walk multiplies in edge by edge
    for i in range(6):
        f = random_rigid_pair(rng, grid=(3, 4)[i % 2], blocks=(0, 1, 2, 3), wide=True)[0]
        g = random_rigid_pair(rng, grid=(3, 4)[i % 2], blocks=(1, 2), wide=True)[1]
        yield (reweighted(f, lambda k: Fraction(1, 2 + k % 2)),
               reweighted(g, lambda k: Fraction(1 + k % 2, 3)), seg(1, 3), 6)
    parity = reweighted(automaton_to_machine(parity_automaton()).graphing,
                        lambda k: Fraction(1, 1 + k % 3))
    for w in ("01", "0110"):
        yield parity, representation(w), cut, None


def test_plugging_routes_agree(winding_machine, tape_loop_machine):
    for f, g, cut, max_len in _route_inputs(winding_machine, tape_loop_machine):
        _routes_agree(f, g, cut, max_len)


def test_plug_matches_the_reference_plug(winding_machine, tape_loop_machine):
    # the routes share their walk, so this checks it against walks taken
    # cell by cell from the reference arrows
    for f, g, cut, max_len in _route_inputs(winding_machine, tape_loop_machine):
        cg = cell_decompose([f, g], [cut])
        h = plug(f, g, cut, max_len=max_len, allow_truncation=max_len is not None)
        assert _census(h, cg) == ref_plug(cg, cut, max_len)


# One case per step that a carried box takes, on a grid of 4 with one
# coordinate: the box enters the cut, block 1, from f's edges on block 0,
# and g's edges take it out.  Each is checked against the exact route and
# cell by cell against the composite edges it must give.

def _quarter(lo, hi):
    return {"1": (Fraction(lo, 4), Fraction(hi, 4))}


def _hop(source, offset, shift=0):
    return Edge(source, 0, 0, TransformationDescriptor(
        offset=Fraction(offset), shifts={1: Fraction(shift)} if shift else {}))


def _exits(h):
    """{(block offset, shift of coordinate 1): sorted start indices on
    coordinate 1} over the composite edges of h, each one cell of block 0."""
    out = {}
    for e in h.edges:
        ((blk, (x,)),) = ref_cells(e.source, 4, 1)
        assert blk == 0
        out.setdefault((e.mapd.offset, e.mapd.shift(1)), []).append(x)
    return {k: sorted(v) for k, v in out.items()}


def test_carried_box_splits_at_the_wrap_of_a_shift():
    # f shifts indices 1-3 by 2 into the cut: 3 stays, 4 and 5 wrap to 0, 1
    f = GraphingRep(seg(0, 2), 1, [_hop(seg(0, 1, **_quarter(1, 4)), 1, Fraction(1, 2))])
    g = GraphingRep(seg(1, 4), 1, [_hop(seg(1, 2, **_quarter(0, 2)), 1),
                                   _hop(seg(1, 2, **_quarter(2, 4)), 2)])
    cells, cg = _routes_agree(f, g, seg(1, 2))
    assert cg.images(cg._edges[0][0][1], cg.grid_boxes(f.edges[0].source)[0]) == \
        [(1, 2, ((3, 4),)), (1, 2, ((0, 2),))]
    half = Fraction(1, 2)
    assert _exits(cells) == {(2, half): [2, 3], (3, half): [1]}


def test_partly_reached_box_goes_on_with_its_new_cells_only():
    # f's two edges share a map and reach one node with indices 0-2 and
    # 1-3: the second goes on with index 3 only.  Index 1 leaves by g's
    # first edge on both walks, index 3 by its second on the second walk
    f = GraphingRep(seg(0, 2), 1, [_hop(seg(0, 1, **_quarter(0, 3)), 1),
                                   _hop(seg(0, 1, **_quarter(1, 4)), 1)])
    g = GraphingRep(seg(1, 4), 1, [_hop(seg(1, 2, **_quarter(1, 2)), 2),
                                   _hop(seg(1, 2, **_quarter(3, 4)), 1)])
    cells, _cg = _routes_agree(f, g, seg(1, 2))
    assert _exits(cells) == {(3, 0): [1], (2, 0): [3]}
    # the seeds fire 3 + 3 cells, then g's edges 1 + 1: going on with the
    # whole second box would fire index 1 again
    cut = seg(1, 2)
    assert plug(f, g, cut, cap=8).to_json() == cells.to_json()
    with pytest.raises(NonTerminating):
        plug(f, g, cut, cap=7)


def test_box_meeting_two_source_boxes_of_an_edge_fires_on_both():
    g = GraphingRep(seg(1, 3), 1, [
        _hop(seg(1, 2, **_quarter(0, 1)).union(seg(1, 2, **_quarter(2, 3))), 1)])
    assert len(g.edges[0].source.boxes) == 2
    f = GraphingRep(seg(0, 2), 1, [_hop(seg(0, 1), 1)])
    cells, _cg = _routes_agree(f, g, seg(1, 2))
    assert _exits(cells) == {(2, 0): [0, 2]}


def test_box_partly_inside_the_cut_leaves_with_the_rest():
    # f's image covers block 1; the cut holds its first quarter, where
    # g's edge takes it on
    cut = seg(1, 2, **_quarter(0, 1))
    f = GraphingRep(seg(0, 2), 1, [_hop(seg(0, 1), 1)])
    g = GraphingRep(cut.union(seg(2, 3)), 1, [_hop(cut, 1)])
    cells, _cg = _routes_agree(f, g, cut)
    assert _exits(cells) == {(1, 0): [1, 2, 3], (2, 0): [0]}


def test_overlapping_edges_sharing_a_map_cover_their_overlap_once():
    # f's two edges share their map and both send [1/4, 3/4) of block 0
    # into the cut, where g's one edge takes it out: a plug covers each
    # start point, pair, map and weight once, on both graphs
    f = GraphingRep(seg(0, 2), 1, [_hop(seg(0, 1, **_quarter(0, 3)), 1),
                                   _hop(seg(0, 1, **_quarter(1, 4)), 1)])
    g = GraphingRep(seg(1, 3), 1, [_hop(seg(1, 2), 1)])
    cells, _cg = _routes_agree(f, g, seg(1, 2))
    assert _exits(cells) == {(2, 0): [0, 1, 2, 3]}


def test_a_path_only_the_second_side_fires_copies_over_the_first_dialect():
    # f's edge ends inside the cut, where g has no edge, so the only
    # completed path is g's edge alone and f stays free on it
    f = GraphingRep(seg(0, 2), 2, [
        Edge(seg(0, 1), 0, 1, TransformationDescriptor(offset=1))])
    g = GraphingRep(seg(1, 4), 1, [line_edge(2, 3, 1, 1)])
    cut = seg(1, 2)
    found, truncated = _exact_plug(f, g, cut)
    assert not truncated
    (hop,) = g.edges
    for out in (plug(f, g, cut), _composite(f, g, cut, found)):
        assert [(e.in_state, e.out_state) for e in out.edges] == [(0, 0), (1, 1)]
        for e in out.edges:
            assert equal_ae(e.source, hop.source)
            assert (e.mapd, e.weight) == (hop.mapd, hop.weight)


def test_plug_projects_measures_flagged_cross_terms():
    hot = Weight(1, 1)
    hop_in = GraphingRep(seg(0, 2), 1, [
        Edge(seg(0, 1), 0, 0, TransformationDescriptor(offset=1), hot)])
    hop_out = GraphingRep(seg(1, 2).union(seg(5, 6)), 1, [line_edge(1, 2, 1, 4)])
    cut = seg(1, 2)
    p = Project(SymValue(1), [(2, hop_in)])
    q = Project(SymValue(0, 1), [(3, hop_out)])
    out = plug_projects(p, q, cut)
    # flagged but on no circuit: the wrapper is the mixed wrappers alone
    assert out.wrapper == SymValue(3, 2)
    ((coeff, term),) = out.terms
    assert coeff == 6 and equivalent(term, plug(hop_in, hop_out, cut))
    loop = GraphingRep(cut, 1, [Edge(cut, 0, 0, TransformationDescriptor(), hot)])
    with pytest.raises(ValueError, match="cross measurement diverges while plugging"):
        plug_projects(Project(0, [(1, loop)]), Project(0, [(1, loop)]), cut)
    # plugging has no series mode to offer for a dilation below 1
    half = GraphingRep(cut, 1, [
        Edge(cut, 0, 0, TransformationDescriptor(), Weight(Fraction(1, 2), 1))])
    with pytest.raises(ValueError, match="plugging measures cross terms exactly"):
        plug_projects(Project(0, [(1, half)]), Project(0, [(1, loop)]), cut)


def test_cell_decompose_requires_rigidity(conveyor, doubler):
    with pytest.raises(NotCellRigid):
        cell_decompose([conveyor, doubler])


def test_cell_decompose_word_graphing():
    w = word_graphing("01")
    cg = cell_decompose([w])
    # every edge fires at exactly the cells of its source
    for j, e in enumerate(w.edges):
        srcs = ref_cells(e.source, cg.n, cg.N)
        assert srcs and set(cg.source_cells(0, j)) == srcs
        for c in srcs:
            img = image(cg, 0, j, c)
            fired = {k: (nst[0][1], moved)
                     for k, ((nst, _turn), _imap, _a, _flag, moved)
                     in cg.extend(cg.root(c, (execution.FREE, 0)))}
            assert fired[j] == (e.out_state, [_cell_box(img)])
            assert img != c or e.mapd.is_identity()


def test_cell_decompose_reads_each_distinct_source_once(monkeypatch):
    m = automaton_to_machine(zeros_ones_automaton())
    rep = representation("0011")
    cut = DEFAULT_PSI.interface_mset()
    calls = []
    real = CellGraph.grid_boxes
    monkeypatch.setattr(CellGraph, "grid_boxes",
                        lambda self, s, *a: calls.append(s) or real(self, s, *a))
    cg = cell_decompose([m.graphing, rep], [cut])
    # the machine's 350 edges read 8 blocks; promote builds one source per
    # word edge; and the cut is read once
    sources = {id(e.source) for h in (m.graphing, rep) for e in h.edges}
    assert len(calls) == len(sources) + 1 == 8 + 10 + 1
    assert cg.extra == [real(cg, cut)]


def test_cell_graph_of_a_json_copy_shares_nothing_and_matches():
    m = automaton_to_machine(zeros_ones_automaton())
    copy = GraphingRep.from_json(m.graphing.to_json())
    # the compiled edges share their 19 maps and 8 sources; the copy
    # builds one object per edge, and so reads every edge on its own
    assert [len({id(x) for x in xs}) for xs in
            ([e.mapd for e in m.graphing.edges], [e.source for e in m.graphing.edges],
             [e.mapd for e in copy.edges], [e.source for e in copy.edges])] == [19, 8, 350, 350]
    rep = representation("0110")
    cut = DEFAULT_PSI.interface_mset()
    shared, apart = (cell_decompose([h, rep], [cut]) for h in (m.graphing, copy))
    assert (shared.n, shared.N, shared._edges, shared.extra) == \
        (apart.n, apart.N, apart._edges, apart.extra)
    assert plug(m.graphing, rep, cut).to_json() == plug(copy, rep, cut).to_json()


def test_any_state_index_and_extend_chain():
    rng = random.Random(23)
    for _ in range(20):
        f, g = random_rigid_pair(rng, dialect=3)
        cg = cell_decompose([f, g])
        cells = sorted({cell for _side, _k, cell, _dst in ref_arrows(cg)})
        # a group of walks, one one-cell box per cell
        group = [_cell_box(cell) for cell in cells]
        idle = (1, 2)
        for side, h in enumerate((f, g)):
            sources = [set(cg.source_cells(side, k)) for k in range(len(h.edges))]
            still = (0, tuple((c, 0) for c in range(cg.N)))
            for cell in cells:
                root = cg.root(cell, (execution.FREE, side))
                assert root == ((execution.FREE, side), still, 1, 0, [_cell_box(cell)])
                live = [k for k, src in enumerate(sources) if cell in src]
                assert [k for k, _walk in cg.extend(root)] == live
                for state in range(h.dialect_size):
                    now = ((state + 1) % h.dialect_size, state)
                    st = (now, idle) if side == 0 else (idle, now)
                    arrows = list(cg.extend(cg.root(cell, (st, side))))
                    assert [k for k, _walk in arrows] == \
                        [k for k in live if h.edges[k].in_state == state]
                    for k, ((nst, turn), imap, a, flag, moved) in arrows:
                        e = h.edges[k]
                        assert e.in_state == state
                        assert moved == [_cell_box(image(cg, side, k, cell))]
                        assert cg.descriptor(imap).key() == e.mapd.key()
                        assert (a, flag) == (e.weight.a, e.weight.flag)
                        assert turn == 1 - side
                        assert nst[side] == (now[0], e.out_state)
                        assert nst[1 - side] == idle
            # a group fires each edge once, on exactly the walks it applies to
            for state in (None, *range(h.dialect_size)):
                st = ((state, state), idle) if side == 0 else (idle, (state, state))
                walk = ((st, side), still, 1, 0, group)
                got = {k: _cells(nxt[4]) for k, nxt in cg.extend(walk)}
                want = {}
                for cell in cells:
                    for k, src in enumerate(sources):
                        if cell in src and state in (None, h.edges[k].in_state):
                            want.setdefault(k, []).append(image(cg, side, k, cell))
                assert got == {k: sorted(v) for k, v in want.items()}
                assert list(got) == sorted(want)


def _assert_arrows_match_sources(cg):
    """The walks one edge takes a walk rooted at a cell to against
    ref_edges_from on every side, for state None and every state of the
    side's dialect, at every cell of the blocks the sources touch and one
    block either side; each walk is at one cell, the cell that the edge's
    map sends the cell's set onto, and each out-state is the edge's."""
    lines = [b.line for h in cg.gs for e in h.edges for b in e.source.boxes]
    blocks = range(min(int(iv.lo) for iv in lines) - 1, max(int(iv.hi) for iv in lines) + 1)
    cubes = list(product(range(cg.n), repeat=cg.N))
    for side, h in enumerate(cg.gs):
        lists = ref_source_lists(cg, side)
        # (map, cell) -> the boxes a walk at the cell is sent to, checked
        # against the map once: edges share maps
        checked = {}
        for state in (None, *range(h.dialect_size)):
            # the idle side is free; state None leaves the side to fire free
            now = (None, state)
            node = ((now, execution.FREE[1]) if side == 0 else (execution.FREE[0], now), side)
            for blk in blocks:
                for cube in cubes:
                    cell = (blk, cube)
                    got = list(cg.extend(cg.root(cell, node)))
                    assert [k for k, _walk in got] == \
                        ref_edges_from(cg, side, state, cell, lists), (side, state, cell)
                    for k, ((nst, _turn), _imap, _a, _flag, moved) in got:
                        e = h.edges[k]
                        assert nst[side][1] == e.out_state
                        key = (id(e.mapd), cell)
                        if key in checked:
                            assert moved == checked[key], (side, k, cell)
                            continue
                        img = (moved[0][0], tuple(a for a, _z in moved[0][2]))
                        assert moved == [_cell_box(img)]
                        assert cg.cell_mset(img) == \
                            e.mapd.apply_mset(cg.cell_mset(cell)), (side, k, cell)
                        checked[key] = moved


def test_arrows_match_the_source_cells():
    rng = random.Random(41)
    for i in range(30):
        f, g = random_rigid_pair(rng, grid=(3, 4)[i % 2], dialect=(2, 3)[i % 2],
                                 blocks=(0, 1, 2, 3), edges_each=5, wide=True)
        _assert_arrows_match_sources(cell_decompose([f, g]))
    for f, g in series_shaped_pairs(rng):
        cg = cell_decompose([f, g])
        assert cg.N == 0
        _assert_arrows_match_sources(cg)
    rep = representation("0110100110010111")
    for a in (parity_automaton(), zeros_ones_automaton()):
        m = automaton_to_machine(a)
        _assert_arrows_match_sources(cell_decompose([m.graphing, rep]))


def _count_calls(monkeypatch, owner, name, counts):
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return orig(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def test_cell_walk_tries_at_most_two_edges_per_arrow(monkeypatch, capsys):
    # the word puts one edge per tape position on a block: a scan of the
    # block's edges would try about one per position for each arrow; a
    # try intersects a box with a source box
    counts = Counter()
    meet, arrows = execution._meet, CellGraph.arrows

    def counted_meet(*args):
        counts["tries"] += counts["inside"]
        return meet(*args)

    def counted_arrows(*args):
        counts["inside"] = 1
        try:
            out = arrows(*args)
        finally:
            counts["inside"] = 0
        counts["arrows"] += len(out)
        return out
    monkeypatch.setattr(execution, "_meet", counted_meet)
    monkeypatch.setattr(CellGraph, "arrows", counted_arrows)
    assert cli.main(["decide", "parity", "0110" * 64]) == 0
    assert capsys.readouterr().out == "pass\n"
    assert counts["arrows"] > 1000
    assert 0 < counts["tries"] <= 2 * counts["arrows"]


def test_exact_walk_intersections_per_arrow_stay_flat(monkeypatch):
    # an extend that intersected every word edge would make this ratio
    # grow with the word.  The second machine's runs branch on every
    # letter and meet again after two: kept apart, they would fire some
    # 2^(n/2) arrows and run out of the budget at 32 letters
    branching = MultiheadAutomaton(
        1, ["init", "s", "a", "b", "accept", "reject"],
        [Transition(("*",), "init", 1, IN, "s"), Transition(("*",), "s", 1, IN, "accept")]
        + [Transition((c,), p, 1, IN, q) for c in "01"
           for p, q in (("s", "a"), ("s", "b"), ("a", "s"), ("b", "s"))])
    extend = _ExactGraph.extend
    for a, word in ((zeros_ones_automaton(), lambda n: "0" * (n // 2) + "1" * (n // 2)),
                    (branching, lambda n: "01" * (n // 2))):
        m = automaton_to_machine(a)
        ratio = {}
        for n in (8, 32):
            counts = Counter()
            _count_calls(monkeypatch, MSet, "intersect", counts)

            def counted_extend(self, walk):
                for fired in extend(self, walk):
                    counts["arrows"] += 1
                    yield fired
            monkeypatch.setattr(_ExactGraph, "extend", counted_extend)
            _exact_plug(m.graphing, representation(word(n)), DEFAULT_PSI.interface_mset(),
                        cap=10 ** 4)
            monkeypatch.undo()
            ratio[n] = Fraction(counts["intersect"], counts["arrows"])
        assert ratio[32] <= ratio[8]


def _grid_box(rng, cg, blk):
    """One block crossed with a random run of grid cells on each coordinate."""
    coords = {}
    for c in range(1, cg.N + 1):
        if rng.random() < 0.7:
            i = rng.randrange(cg.n)
            coords[str(c)] = (Fraction(i, cg.n), Fraction(rng.randrange(i + 1, cg.n + 1), cg.n))
    return seg(blk, blk + 1, **coords)


def test_seeds_skip_whole_and_partial_blocks():
    rng = random.Random(31)
    for _ in range(20):
        f, g = random_rigid_pair(rng, dialect=2)
        cg = cell_decompose([f, g])
        arrows = ref_arrows(cg)
        cells = sorted({cell for _side, _k, cell, _dst in arrows})
        whole = seg(0, 1).union(seg(2, 3))
        partial = MSet([b for cell in rng.sample(cells, len(cells) // 3)
                        for b in cg.cell_mset(cell).boxes])
        drawn = [MSet([b for blk in rng.sample((0, 1, 2), rng.randint(0, 2))
                       for b in seg(blk, blk + 1).boxes]
                      + [b for _ in range(rng.randint(1, 3))
                         for b in _grid_box(rng, cg, rng.randrange(3)).boxes])
                 for _ in range(3)]
        for cut in (MSet([]), whole, partial, whole.union(partial), *drawn):
            skip = ref_cells(cut, cg.n, cg.N)
            got = list(cg.seeds(cg.grid_boxes(cut)))
            # each seed's boxes are disjoint and hold the images of its
            # source cells outside the cut
            assert [(side, k, *walk) for side, k, (_node, imap, _a, _flag, boxes) in got
                    for walk in sorted(cg.walks(imap, boxes).items())] == \
                sorted(a for a in arrows if a[2] not in skip)
            for side, k, ((st, turn), _imap, dil, flag, group) in got:
                e = (f, g)[side].edges[k]
                assert group and cell_count(group) == len(_cells(group))
                assert (dil, flag) == (e.weight.a, e.weight.flag)
                assert st[side] == (e.in_state, e.out_state)
                assert st[1 - side] == (None, None) and turn == 1 - side


def test_image_matches_the_rational_map():
    rng = random.Random(53)
    perms = [Perm(dict(zip((1, 2, 3), p))) for p in permutations((1, 2, 3))]
    checked = 0
    for _ in range(80):
        f, g = random_rigid_pair(rng, bound=3, perms=perms)
        cg = cell_decompose([f, g])
        for side, h in enumerate((f, g)):
            for k, e in enumerate(h.edges):
                for cell in cg.source_cells(side, k):
                    assert cg.cell_mset(image(cg, side, k, cell)) == \
                        e.mapd.apply_mset(cg.cell_mset(cell)), (side, k, cell)
                    checked += 1
    assert checked > 10_000


def test_integer_maps_match_the_descriptors():
    # the walks compose integer maps and read descriptors off them; both
    # must agree with composing the edges' descriptors, and a walk's map
    # must send its start cells where its edges send them.  Every walk of
    # up to 8 edges is checked, its cells against its parent's.
    rng = random.Random(67)
    perms = [Perm(dict(zip((1, 2, 3), p))) for p in permutations((1, 2, 3))]
    lengths = Counter()
    for i in range(40):
        f, g = random_rigid_pair(rng, grid=(3, 4)[i % 2], bound=3, perms=perms,
                                 blocks=(0, 1, 2, 3), wide=i % 2 == 1)
        # every other edge halves the dilation
        f, g = (reweighted(h, lambda k: Fraction(1, 1 + k % 2)) for h in (f, g))
        cg = cell_decompose([f, g])
        edges = (f.edges, g.edges)
        # (labels, composed descriptor, dilation, flag, {start cell: the
        # cell its walk is at}, the parent's, walk)
        stack = []
        for side, k, walk in cg.seeds():
            e = edges[side][k]
            starts = {c: c for c in cg.source_cells(side, k)}
            stack.append(([(side, k)], e.mapd, e.weight.a, e.weight.flag, starts, walk))
        assert [seq for seq, *_ in stack] == \
            [[(side, k)] for side in (0, 1) for k in range(len(edges[side]))], i
        while stack:
            seq, desc, a, flag, before, walk = stack.pop()
            (_st, turn), imap, dil, wflag, boxes = walk
            assert cg.descriptor(imap).key() == desc.key(), (i, seq)
            assert (dil, wflag) == (a, flag), (i, seq)
            offset, moves = imap
            reached = cg.walks(imap, boxes)
            for start, end in reached.items():
                assert end == image(cg, *seq[-1], before[start]) == (start[0] + offset, tuple(
                    (start[1][j] + s) % cg.n for j, s in moves)), (i, seq, start)
            lengths[len(seq)] += 1
            if len(seq) < 8:
                for k, nxt in cg.extend(walk):
                    e = edges[turn][k]
                    stack.append((seq + [(turn, k)], e.mapd.compose(desc), a * e.weight.a,
                                  flag | e.weight.flag, reached, nxt))
    assert sorted(lengths) == list(range(1, 9)) and sum(lengths.values()) == 1382


def test_cell_plug_builds_descriptors_only_at_read_out(monkeypatch):
    # the walk composes integer maps; a descriptor is built once per
    # distinct map of a composite edge, and none is composed
    m = automaton_to_machine(zeros_ones_automaton())
    rep = representation("0" * 32 + "1" * 32)
    counts = Counter()
    _count_calls(monkeypatch, TransformationDescriptor, "compose", counts)
    normal = TransformationDescriptor._normal
    monkeypatch.setattr(TransformationDescriptor, "_normal", classmethod(
        lambda cls, *args: counts.update(["_normal"]) or normal(*args)))
    out = plug(m.graphing, rep, DEFAULT_PSI.interface_mset(), cap=10 ** 9)
    assert out.edges
    assert counts["compose"] == 0
    assert 0 < counts["_normal"] <= len({e.mapd for e in out.edges})


def test_box_walk_work_grows_with_the_word_not_its_cells(monkeypatch):
    # a zeros-ones plug walks n^2 cells on 2n letters, yet one box per
    # label sequence: doubling the word about doubles the boxes fired
    m = automaton_to_machine(zeros_ones_automaton())
    counts = Counter()
    arrows = CellGraph.arrows

    def counted(*args):
        out = arrows(*args)
        counts["boxes"] += sum(len(imgs) for _k, imgs in out)
        counts["cells"] += sum(cell_count(imgs) for _k, imgs in out)
        return out
    monkeypatch.setattr(CellGraph, "arrows", counted)
    work = {}
    for n in (32, 64):
        counts.clear()
        rep = representation("0" * n + "1" * n)
        assert plug(m.graphing, rep, DEFAULT_PSI.interface_mset(), cap=10 ** 12).edges
        work[n] = (counts["boxes"], counts["cells"])
    assert work[64][0] <= 2.2 * work[32][0]
    assert work[64][1] >= 3.5 * work[32][1]


def test_cell_counts_refine_path_census():
    rng = random.Random(11)
    odo = automaton_to_machine(odometer(2)).graphing
    pairs = [random_rigid_pair(rng) for _ in range(10)]
    pairs += [random_rigid_pair(rng, grid=(3, 4)[i % 2], blocks=(0, 1, 2, 3), wide=True)
              for i in range(10)]
    pairs += [(odo, representation(w)) for w in ("", "01", "110")]
    for f, g in pairs:
        paths = alternating_paths(f, g, max_len=5)
        cg = cell_decompose([f, g])
        want = Counter()
        for p in paths:
            want[p.length] += len(ref_cells(p.source, cg.n, cg.N))
        got = {k: v for k, v in cell_path_counts(f, g, 5).items() if v}
        assert dict(want) == got


def test_expansion_cap_resolution(monkeypatch):
    assert expansion_cap(77) == 77
    assert expansion_cap(0) == 0
    with pytest.raises(ValueError, match="cap must be at least 0, got -1"):
        expansion_cap(-1)
    monkeypatch.setenv("GM_MAX_PATH_LEN", "123")
    assert expansion_cap() == 123
    monkeypatch.setenv("GM_MAX_PATH_LEN", "junk")
    with pytest.raises(ValueError, match="GM_MAX_PATH_LEN"):
        expansion_cap()
    monkeypatch.setenv("GM_MAX_PATH_LEN", "-5")
    with pytest.raises(ValueError, match="GM_MAX_PATH_LEN must be at least 0"):
        expansion_cap()
    monkeypatch.setenv("GM_MAX_PATH_LEN", "0")
    assert expansion_cap() == 0
    monkeypatch.delenv("GM_MAX_PATH_LEN")
    assert expansion_cap() == 10_000


def test_iteration_cap_trips(conveyor, doubler):
    with pytest.raises(IterationCapExceeded):
        alternating_paths(conveyor, doubler, max_len=10 ** 6, cap=20)


def test_env_cap_applies(monkeypatch, conveyor, doubler):
    monkeypatch.setenv("GM_MAX_PATH_LEN", "15")
    with pytest.raises(IterationCapExceeded):
        alternating_paths(conveyor, doubler, max_len=10 ** 6)


@given(random_automata(compilable=True))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_generated_machines_decide_and_plug_alike_on_both_graphs(a):
    # runs branch and may come back to one configuration; a plug covers
    # what they reach once on either graph
    m = automaton_to_machine(a)
    doc = a.to_json()
    cut = DEFAULT_PSI.interface_mset()
    for w in all_words(2):
        assert accepts(m, w) == co_accepts(a, w) == ref_co_accepts(doc, w), w
        rep = representation(w)
        found, _truncated = _exact_plug(m.graphing, rep, cut)
        assert equivalent(plug(m.graphing, rep, cut), _composite(m.graphing, rep, cut, found)), w


def test_a_run_moving_in_forever_plugs_to_nothing():
    # every state of this one-head automaton moves In forever: its walks
    # come back to the points they were at with the same node, map and
    # weight, and a plug covers each of those once, so on both graphs it
    # closes off with no composite edge, the exact one well within 1,000
    # arrows fired
    a = MultiheadAutomaton(1, ["init", "s", "accept", "reject"],
                           [Transition(("*",), "init", 1, IN, "s")]
                           + [Transition((c,), "s", 1, IN, "s") for c in "*01"])
    m = automaton_to_machine(a)
    cut = DEFAULT_PSI.interface_mset()
    for w in ("", "1", "10", "0110"):
        rep = representation(w)
        cells = plug(m.graphing, rep, cut, cap=10 ** 6)
        found, truncated = _exact_plug(m.graphing, rep, cut, cap=1000)
        assert cells.edges == () and found == [] and not truncated, w
        assert equivalent(cells, _composite(m.graphing, rep, cut, found)), w
        assert accepts(m, w), w
