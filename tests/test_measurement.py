"""Circuit measurement between graphings and projects."""

from fractions import Fraction
from functools import reduce
import random
import time

import pytest

from gmachines import measurement
from gmachines.automata import parity_automaton, zeros_ones_automaton
from gmachines.encodings import automaton_to_machine
from gmachines.errors import IterationCapExceeded
from gmachines.execution import cell_decompose
from gmachines.graphings import (Edge, GraphingRep, Project, Weight,
                                 rename_dialect)
from gmachines.machines import accepts, compute
from gmachines.measurement import (INF, SymValue, circuits,
                                   decide_against_test, measure_graphings,
                                   measure_projects, orthogonal, t_minus)
from gmachines.microcosm import TransformationDescriptor
from gmachines.space import equal_ae
from gmachines.words import DEFAULT_PSI

from conftest import line_edge, random_rigid_pair, seg
from oracles import (image, ref_compose, ref_edges_from, ref_first_live_rotation,
                     ref_flagged_circuit, ref_series, ref_source_lists)


def _loop(a=1, flag=1, shifts=None, block=(0, 1)):
    e = Edge(seg(*block), 0, 0, TransformationDescriptor(shifts=shifts),
             Weight(a, flag))
    return GraphingRep(seg(*block), 1, [e])


def test_no_shared_support_means_no_circuits(seesaw):
    far = _loop(block=(10, 11))
    assert circuits(seesaw, far, max_len=6) == []
    assert measure_graphings(seesaw, far) == 0


def test_identity_loop_pair_has_one_tight_circuit():
    cs = circuits(_loop(), _loop(), max_len=4)
    assert len(cs) == 1
    c = cs[0]
    assert c.labels == ((0, 0), (1, 0))
    assert c.weight.flag == 1
    (orb,) = c.orbits
    assert orb.closed and orb.period == 1 and orb.measure == 1


def test_coordinate_shift_gives_longer_orbit():
    sh = _loop(shifts={1: Fraction(1, 3)})
    cs = circuits(sh, _loop(), max_len=4)
    assert len(cs) == 1
    (orb,) = cs[0].orbits
    assert orb.closed
    assert orb.period == 3
    assert len(orb.cells) == 3
    assert orb.measure == 1


def test_exact_measure_is_zero_or_infinite():
    assert measure_graphings(_loop(flag=1), _loop(flag=1)) is INF
    assert measure_graphings(_loop(flag=0), _loop(flag=0)) == 0
    empty = GraphingRep(seg(0, 1), 1, [])
    assert measure_graphings(_loop(), empty) == 0


def test_exact_mode_insists_on_unit_dilations():
    with pytest.raises(ValueError):
        measure_graphings(_loop(a=Fraction(1, 2)), _loop())


def test_series_mode_sums_the_loop():
    h = _loop(a=Fraction(1, 2))
    assert measure_graphings(h, h, mode="series") == Fraction(1, 3)
    assert measure_graphings(h, _loop(a=Fraction(1, 2), flag=0),
                             mode="series") == Fraction(1, 3)
    cold = _loop(a=Fraction(1, 2), flag=0)
    assert measure_graphings(cold, cold, mode="series") == 0
    # an edge with an empty source fires nowhere, whatever its dilation
    idle = Edge(seg(0, 0), 0, 0, TransformationDescriptor(), Weight(1, 0))
    assert idle.source.is_empty()
    with_idle = GraphingRep(h.support, 1, h.edges + (idle,))
    assert measure_graphings(with_idle, h, mode="series") == Fraction(1, 3)


@pytest.mark.parametrize("rho", [2, 3, 4, 6])
def test_series_matches_the_definition_at_longer_periods(rho):
    # a shift by 1/rho brings a point back after rho passes of the circuit
    f = _loop(a=Fraction(1, 2), shifts={1: Fraction(1, rho)})
    g = _loop(a=Fraction(1, 2), flag=0)
    ((orb,),) = [c.orbits for c in circuits(f, g, max_len=2)]
    assert orb.period == rho
    value = measure_graphings(f, g, mode="series")
    ref, tail = ref_series(cell_decompose([f, g]), 40)
    assert abs(value - ref) <= measurement.DEFAULT_TOL + tail, rho
    if rho == 3:
        # a = 1/4; by n mod 3: 1/63 + (1/3)(1/63 - 1/262143)
        assert value == Fraction(16643, 786429)


def test_series_matches_the_definition_on_random_pairs():
    rng = random.Random(4)
    periods = []
    for i in range(12):
        f, g = (GraphingRep(h.support, h.dialect_size, [
            Edge(e.source, e.in_state, e.out_state, e.mapd,
                 Weight(Fraction(1, 8), e.weight.flag)) for e in h.edges])
                for h in random_rigid_pair(rng, flag_rate=0.6))
        value = measure_graphings(f, g, mode="series")
        ref, tail = ref_series(cell_decompose([f, g]), 8)
        assert abs(value - ref) <= measurement.DEFAULT_TOL + tail, i
        if value:
            periods += [o.period for c in circuits(f, g, max_len=8)
                        if c.weight.flag for o in c.orbits if o.closed]
    assert sorted(set(periods)) == [1, 2, 6], periods


def test_series_needing_more_than_4096_raises_before_enumerating():
    slow = Fraction(999, 1000)
    start = time.perf_counter()
    with pytest.raises(IterationCapExceeded):
        measure_graphings(_loop(a=slow), _loop(a=slow, flag=0), mode="series")
    assert time.perf_counter() - start < 1


def test_series_tolerance_must_be_positive():
    h = _loop(a=Fraction(1, 2))
    for tol in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="series tolerance must be positive"):
            measure_graphings(h, h, mode="series", tol=tol)


def test_circuits_read_orbits_from_the_first_live_rotation():
    rng = random.Random(1895)
    count = only_open = not_least = 0
    for i in range(60):
        f, g = random_rigid_pair(rng, dialect=(2, 3)[i % 2])
        cg = cell_decompose([f, g])
        for c in circuits(f, g, max_len=(4, 6, 8)[i % 3]):
            canon = min(c.labels[j:] + c.labels[:j] for j in range(c.length))
            rot, starts = ref_first_live_rotation(cg, canon)
            assert c.labels == rot, i
            # the orbits split the live starts and follow the walk
            assert c.orbits
            assert sorted(x for o in c.orbits for x in o.cells) == sorted(starts)
            for o in c.orbits:
                assert all(starts[a] == b for a, b in zip(o.cells, o.cells[1:]))
                assert (starts[o.cells[-1]] == o.cells[0]) == o.closed
                assert o.measure == cg.cell_volume() * len(o.cells)
            # the map and weight the walk carried are the rotation's own
            edges = [(f, g)[side].edges[k] for side, k in c.labels]
            assert c.composed == reduce(lambda d, e: ref_compose(e.mapd, d),
                                        edges[1:], edges[0].mapd), i
            assert c.weight.flag == max(e.weight.flag for e in edges), i
            count += 1
            only_open += not any(o.closed for o in c.orbits)
            not_least += rot != canon
    assert (count >= 120 and only_open >= 10 and count - only_open >= 10
            and not_least >= 40), (count, only_open, not_least)


def test_circuit_walk_composes_no_descriptor(monkeypatch):
    # descriptors are composed only to read orbit periods, never per arrow
    counts = {"walk": 0, "orbits": 0}
    where = ["walk"]
    compose, orbits = TransformationDescriptor.compose, measurement._orbits

    def counted_compose(*args):
        counts[where[0]] += 1
        return compose(*args)

    def counted_orbits(*args):
        where[0] = "orbits"
        try:
            return orbits(*args)
        finally:
            where[0] = "walk"
    monkeypatch.setattr(TransformationDescriptor, "compose", counted_compose)
    monkeypatch.setattr(measurement, "_orbits", counted_orbits)
    rng = random.Random(7)
    found = 0
    for i in range(10):
        f, g = random_rigid_pair(rng, wide=i % 2 == 1)
        found += len(circuits(f, g, max_len=6))
    assert found >= 20 and counts["orbits"] > 0
    assert counts["walk"] == 0


def test_t_minus_is_a_flagged_idle_loop():
    tf = t_minus()
    g = tf.graphing
    assert len(g.edges) == 1
    e = g.edges[0]
    assert e.mapd.is_identity()
    assert e.weight.flag == 1
    assert equal_ae(e.source, DEFAULT_PSI.mset("r"))
    p = tf.project()
    assert p.wrapper.zeta == 1 and p.wrapper.const == 0
    assert p.coeff_sum() == 1


def test_measure_projects_wrapper_cross_terms():
    g = _loop(flag=0, block=(7, 8))
    p = Project(SymValue(0, 1), [(Fraction(1), g)])
    q = Project(SymValue(0, 0), [(Fraction(2), g)])
    v = measure_projects(p, q)
    # wrapper of p scales by q's coefficient sum; graphing pairs are cold
    assert (v.const, v.zeta) == (0, 2)


def test_measure_projects_infinite_when_terms_collide():
    hot = _loop(flag=1, block=(7, 8))
    p = Project(SymValue(0, 0), [(Fraction(1), hot)])
    assert measure_projects(p, p) is INF


def test_orthogonality_reading():
    cold = _loop(flag=0, block=(7, 8))
    p = Project(SymValue(0, 1), [(Fraction(1), cold)])
    z = Project(SymValue(0, 0), [(Fraction(1), cold)])
    # measurement is 1*zeta: nonzero for every nonzero scalar
    assert orthogonal(p, p)
    # measurement is identically zero
    assert not orthogonal(z, z)
    hot = _loop(flag=1, block=(7, 8))
    h = Project(SymValue(0, 0), [(Fraction(1), hot)])
    assert not orthogonal(h, h)


def test_decide_against_test_matches_acceptance():
    m = automaton_to_machine(parity_automaton())
    assert decide_against_test(compute(m, "11")) == "pass"
    assert decide_against_test(compute(m, "1")) == "fail"


def test_cap_reaches_the_circuit_search(monkeypatch):
    m = automaton_to_machine(parity_automaton())
    p = compute(m, "1")
    with pytest.raises(IterationCapExceeded):
        decide_against_test(p, cap=1)
    with pytest.raises(IterationCapExceeded):
        orthogonal(p, t_minus().project(), cap=1)
    # an explicit cap overrides the environment's
    monkeypatch.setenv("GM_MAX_PATH_LEN", "1")
    assert decide_against_test(p, cap=10**6) == "fail"


def test_circuit_budget_counts_only_expanded_arcs():
    # 640 arrows in all, 64 of them flagged; the flagged loop's targets
    # reach only their own 64 cells, so the search expands 128 arcs
    shift = TransformationDescriptor(shifts={1: Fraction(1, 64)})
    f = GraphingRep(seg(0, 5), 1, _loop().edges + tuple(
        Edge(seg(b, b + 1, **{"1": (0, 1)}), 0, 0, shift) for b in range(1, 5)))
    g = GraphingRep(seg(0, 5), 1, [Edge(seg(0, 5), 0, 0, TransformationDescriptor())])
    assert measure_graphings(f, g, cap=300) is INF
    assert measure_graphings(f, g, cap=128) is INF
    with pytest.raises(IterationCapExceeded):
        measure_graphings(f, g, cap=127)


def test_exact_search_matches_unpruned_reference():
    rng = random.Random(1609)
    verdicts = {True: 0, False: 0}
    one_way_states = 0
    for i in range(300):
        f, g = random_rigid_pair(rng, edges_each=(4, 6, 8)[i % 3], dialect=3,
                                 flag_rate=(0.2, 0.3, 0.4, 0.5, 0.6)[i % 5])
        ref = ref_flagged_circuit(cell_decompose([f, g]), f, g)
        assert (measure_graphings(f, g) is INF) == ref, i
        verdicts[ref] += 1
        one_way_states += any(
            {e.in_state for e in h.edges} != {e.out_state for e in h.edges}
            for h in (f, g))
    # both verdicts occur, and most pairs have a state that is only
    # entered or only left, which the search never carries
    assert min(verdicts.values()) >= 40, verdicts
    assert one_way_states >= 150, one_way_states


def _live(h):
    return {e.in_state for e in h.edges} & {e.out_state for e in h.edges}


def _record_roots(monkeypatch):
    """The roots of every exact circuit search, one list per search."""
    roots = []
    real = measurement._scc

    def scc(rs, successors):
        roots.append(list(rs))
        return real(roots[-1], successors)

    monkeypatch.setattr(measurement, "_scc", scc)
    return roots


def test_flagged_search_roots_where_the_other_side_fires(monkeypatch):
    # sources one column or one block wide on a 3 x 3 grid and three
    # dialect states: a flagged edge's image often meets the other side's
    # sources in part, and from some idle states only.  The roots must be
    # exactly the flagged targets that have a successor, read off the
    # reference arrows; the verdict must match the unpruned reference
    roots = _record_roots(monkeypatch)
    rng = random.Random(2109)
    verdicts = {True: 0, False: 0}
    partial = 0
    for i in range(150):
        f, g = random_rigid_pair(rng, edges_each=(6, 8)[i % 2], dialect=3, flag_rate=0.5)
        cg = cell_decompose([f, g])
        want = set()
        for side, h in enumerate((f, g)):
            other = (f, g)[1 - side]
            lists = ref_source_lists(cg, 1 - side)
            for k, e in enumerate(h.edges):
                if not e.weight.flag:
                    continue
                dsts = [image(cg, side, k, c) for c in cg.source_cells(side, k)]
                fire = {(dst, idle) for dst in dsts for idle in _live(other)
                        if ref_edges_from(cg, 1 - side, idle, dst, lists)}
                if e.out_state in _live(h):
                    want |= {(dst, 1 - side, idle, e.out_state) for dst, idle in fire}
                    # some image cells and some idle states fire, not all
                    partial += 0 < len(fire) < len(dsts) * len(_live(other))
        roots.clear()
        ref = ref_flagged_circuit(cg, f, g)
        assert (measure_graphings(f, g) is INF) == ref, i
        assert set(roots[0] if roots else ()) == want, i
        verdicts[ref] += 1
    assert min(verdicts.values()) >= 30, (verdicts, partial)
    assert partial >= 400, (verdicts, partial)


def test_long_decide_roots_a_handful(monkeypatch):
    # the answer test's flagged identity covers the reject block, 257^2
    # cells at 256 letters, but the composite fires from one of them
    monkeypatch.setenv("GM_MAX_PATH_LEN", str(10**9))
    roots = _record_roots(monkeypatch)
    m = automaton_to_machine(zeros_ones_automaton())
    assert accepts(m, "0" * 128 + "1" * 128)
    assert sum(map(len, roots)) <= 4, [len(r) for r in roots]


def test_symmetry_on_random_instances():
    rng = random.Random(2026)
    for _ in range(20):
        f, g = random_rigid_pair(rng)
        assert measure_graphings(f, g) == measure_graphings(g, f)


def test_invariance_under_source_refinement():
    from gmachines.space import Box, Interval, MSet

    rng = random.Random(19)
    for _ in range(12):
        f, g = random_rigid_pair(rng)
        split = []
        for e in f.edges:
            for b in e.source.boxes:
                # chop coordinate 1; the line axis must stay on unit blocks
                iv = b.coord(1) or Interval(Fraction(0), Fraction(1))
                mid = (iv.lo + iv.hi) / 2
                for piece in (Interval(iv.lo, mid), Interval(mid, iv.hi)):
                    cs = dict(b.coords)
                    cs[1] = piece
                    src = MSet([Box(b.line, cs)])
                    split.append(Edge(src, e.in_state, e.out_state,
                                      e.mapd, e.weight))
        f2 = GraphingRep(f.support, f.dialect_size, split)
        assert measure_graphings(f, g) == measure_graphings(f2, g)


def test_invariance_under_dialect_renaming():
    rng = random.Random(23)
    for _ in range(12):
        f, g = random_rigid_pair(rng)
        f2 = rename_dialect(f, {0: 3, 1: 0}, new_size=4)
        assert measure_graphings(f, g) == measure_graphings(f2, g)


def test_invariance_under_edge_order():
    rng = random.Random(29)
    for _ in range(12):
        f, g = random_rigid_pair(rng)
        edges = list(f.edges)
        rng.shuffle(edges)
        f2 = GraphingRep(f.support, f.dialect_size, edges)
        assert measure_graphings(f, g) == measure_graphings(f2, g)
