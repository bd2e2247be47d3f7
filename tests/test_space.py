from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gmachines.graphings import Edge, GraphingRep, equivalent, refines
from gmachines.microcosm import TransformationDescriptor
from gmachines.space import (EMPTY, Box, Interval, MSet, contains_ae,
                             difference, equal_ae, intersect, measure, rat,
                             rat_str, union)

from conftest import seg
from oracles import grid_measure, union_measure


def test_disjoint_blocks_intersect_to_nothing():
    assert equal_ae(intersect(seg(0, 1), seg(1, 2)), EMPTY)


def test_intersect_is_idempotent():
    a = seg(0, 2, **{"1": (0, "1/2")})
    assert equal_ae(intersect(a, a), a)


def test_intersect_clips_line_and_coordinates():
    a = seg(0, 2, **{"1": (0, "1/2")})
    b = seg(1, 3, **{"1": ("1/4", "3/4")})
    expect = seg(1, 2, **{"1": ("1/4", "1/2")})
    assert equal_ae(intersect(a, b), expect)


def test_difference_with_empty_and_self():
    a = seg(0, 2)
    assert equal_ae(difference(a, EMPTY), a)
    assert equal_ae(difference(a, a), EMPTY)


def test_difference_clips_overlap():
    assert equal_ae(difference(seg(0, 2), seg(1, 3)), seg(0, 1))


def test_measure_basics():
    assert measure(EMPTY) == 0
    assert measure(seg(6, 7)) == 1
    thin = seg(0, 1, **{"1": (0, "1/3"), "2": ("1/3", "2/3")})
    assert measure(thin) == Fraction(1, 9)


def test_equal_ae_ignores_null_splits():
    whole = seg(0, 1)
    halves = MSet(seg(0, "1/2").boxes + seg("1/2", 1).boxes)
    assert equal_ae(whole, halves)
    assert not equal_ae(whole, seg(0, 1, **{"1": (0, "1/2")}))


def test_normal_form_is_canonical():
    whole = seg(0, 1)
    halves = MSet(seg("1/2", 1).boxes + seg(0, "1/2").boxes)
    assert whole.boxes == halves.boxes


def test_contains_ae():
    assert contains_ae(seg(0, 3), seg(1, 2))
    assert not contains_ae(seg(1, 2), seg(0, 3))


def test_rat_round_trip():
    assert rat("5/3") == Fraction(5, 3)
    assert rat_str(Fraction(5, 3)) == "5/3"
    assert rat_str(rat("4/2")) == "2/1"


def test_json_shape_and_round_trip():
    a = seg(0, 2, **{"1": ("1/4", "3/4")})
    doc = a.to_json()
    box = doc[0]
    assert box["line"] == ["0/1", "2/1"]
    assert box["coords"]["1"] == ["1/4", "3/4"]
    assert equal_ae(MSet.from_json(doc), a)


_frac = st.fractions(min_value=0, max_value=3, max_denominator=4)
_width = st.fractions(min_value="1/4", max_value=2, max_denominator=4)


@st.composite
def boxes(draw):
    lo = draw(_frac)
    hi = lo + draw(_width)
    coords = {}
    if draw(st.booleans()):
        c = draw(st.integers(min_value=1, max_value=2))
        clo = draw(st.fractions(min_value=0, max_value="3/4",
                                max_denominator=4))
        chi = min(clo + draw(_width), Fraction(1))
        coords[c] = Interval(clo, chi)
    return Box(Interval(lo, hi), coords)


@st.composite
def msets(draw):
    return MSet(draw(st.lists(boxes(), min_size=0, max_size=3)))


@given(msets(), msets())
@settings(max_examples=60, deadline=None)
def test_inclusion_exclusion(a, b):
    assert measure(union(a, b)) + measure(intersect(a, b)) \
        == measure(a) + measure(b)


@given(msets(), msets())
@settings(max_examples=60, deadline=None)
def test_boolean_laws(a, b):
    assert contains_ae(a, intersect(a, b))
    assert measure(intersect(difference(a, b), b)) == 0
    assert equal_ae(union(difference(a, b), intersect(a, b)), a)


@given(msets(), msets())
@settings(max_examples=40, deadline=None)
def test_equal_ae_iff_same_normal_form(a, b):
    assert equal_ae(a, b) == (a.boxes == b.boxes)


@given(msets())
@settings(max_examples=40, deadline=None)
def test_measure_matches_grid_oracle(a):
    raw = [(b.line.lo, b.line.hi,
            {idx: (iv.lo, iv.hi) for idx, iv in b.coords})
           for b in a.boxes]
    assert measure(a) == union_measure(raw, dims=2)


@st.composite
def cube_boxes(draw):
    """Boxes constraining any subset of coordinates 1-3 at once."""
    lo = draw(_frac)
    coords = {}
    for c in draw(st.sets(st.integers(min_value=1, max_value=3))):
        clo = draw(st.fractions(min_value=0, max_value="3/4",
                                max_denominator=4))
        coords[c] = Interval(clo, min(clo + draw(_width), Fraction(1)))
    return Box(Interval(lo, lo + draw(_width)), coords)


def _raw(boxes):
    return [(b.line.lo, b.line.hi, {i: (iv.lo, iv.hi) for i, iv in b.coords})
            for b in boxes]


@given(st.lists(cube_boxes(), max_size=3), st.lists(cube_boxes(), max_size=3))
@settings(max_examples=60, deadline=None)
def test_set_algebra_matches_grid_oracle(ra, rb):
    a, b = MSet(ra), MSet(rb)
    raw = [_raw(ra), _raw(rb)]
    # the normal form holds exactly the points of the boxes it was given
    for s, r in ((a, raw[0]), (b, raw[1])):
        assert grid_measure([r, _raw(s.boxes)], 3,
                            lambda c: bool(c[0]) != bool(c[1])) == 0
    for op, keep in ((intersect, lambda c: c[0] and c[1]),
                     (difference, lambda c: c[0] and not c[1]),
                     (union, lambda c: c[0] or c[1])):
        got = op(a, b)
        assert measure(got) == grid_measure(raw, 3, keep)
        assert grid_measure(raw + [_raw(got.boxes)], 3,
                            lambda c: bool(keep(c)) != bool(c[2])) == 0


def _graphing(sources):
    return GraphingRep(seg(0, 6), 1, [Edge(s, 0, 0, TransformationDescriptor())
                                      for s in sources])


@given(st.lists(st.lists(cube_boxes(), max_size=2).map(MSet),
                min_size=2, max_size=3),
       st.lists(st.lists(cube_boxes(), max_size=2).map(MSet), max_size=3),
       st.sampled_from(["drawn", "resplit", "same"]))
@settings(max_examples=60, deadline=None)
def test_multiplicity_matches_oracle_cover_counts(fs, gs, how):
    if how == "resplit":
        # 1_a + 1_b == 1_(a|b) + 1_(a&b) pointwise
        gs = [union(fs[0], fs[1]), intersect(fs[0], fs[1])] + fs[2:]
    elif how == "same":
        gs = fs[::-1]
    n = len(fs)
    same = grid_measure([_raw(s.boxes) for s in fs + gs], 3,
                        lambda c: sum(map(bool, c[:n])) != sum(map(bool, c[n:]))) == 0
    inside = all(any(grid_measure([_raw(s.boxes), _raw(t.boxes)], 3,
                                  lambda c: c[0] and not c[1]) == 0 for t in gs)
                 for s in fs if not s.is_empty())
    assert equivalent(_graphing(fs), _graphing(gs)) == same
    assert refines(_graphing(fs), _graphing(gs)) == (same and inside)


def test_sets_on_1200_coordinates_normalise():
    # the sweep walks its axes on a stack of its own, one frame per
    # constrained coordinate, so no depth limit of the interpreter applies
    half = {c: Interval(0, Fraction(1, 2)) for c in range(1, 1201)}
    a = MSet([Box(Interval(0, 2), half)])
    b = MSet([Box(Interval(1, 3), half)])
    assert union(a, b) == MSet([Box(Interval(0, 3), half)])
    assert difference(a, b) == MSet([Box(Interval(0, 1), half)])
    assert measure(union(a, b)) == 3 * Fraction(1, 2) ** 1200
