"""Pointwise transformations and the tower of families they live in."""

from fractions import Fraction
import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from gmachines.errors import WrapSplitRequired
from gmachines.graphings import Weight
from gmachines.microcosm import (IDENTITY, MicrocosmSpec, Perm,
                                 TransformationDescriptor, classify,
                                 decompose_star, member)
from gmachines.space import MSet, equal_ae

from conftest import seg
from oracles import ref_apply_point, ref_compose


def T(slope=1, offset=0, perm=None, shifts=None):
    return TransformationDescriptor(slope, Fraction(offset), perm, shifts)


def test_compose_inverse_translations():
    assert T(offset=1).compose(T(offset=-1)).is_identity()


def test_compose_affine():
    c = T(slope=2).compose(T(offset=3))
    assert c.slope == 2 and c.offset == 6


def test_swap_is_involutive():
    p12 = T(perm=Perm({1: 2, 2: 1}))
    assert p12.compose(p12).is_identity()


def test_inverse_round_trip():
    t = T(slope=3, offset=-2, perm=Perm({1: 2, 2: 3, 3: 1}),
          shifts={2: Fraction(1, 3)})
    assert t.compose(t.inverse()).is_identity()
    assert t.inverse().compose(t).is_identity()


def test_apply_point():
    assert ref_apply_point(IDENTITY, Fraction(7)) == (Fraction(7), {})
    assert ref_apply_point(T(offset=2), Fraction(1, 2)) == (Fraction(5, 2), {})
    # coordinate shifts wrap around the unit circle
    x, cs = ref_apply_point(T(shifts={1: Fraction(1, 2)}), Fraction(0),
                            {1: Fraction(3, 4)})
    assert cs[1] == Fraction(1, 4)


def test_apply_mset_translation():
    out = T(offset=3).apply_mset(seg(0, 2))
    assert equal_ae(out, seg(3, 5))


def test_apply_mset_shift_without_wrap():
    src = seg(0, 1, **{"1": ("3/4", 1)})
    out = T(shifts={1: Fraction(1, 2)}).apply_mset(src)
    assert equal_ae(out, seg(0, 1, **{"1": ("1/4", "1/2")}))


def test_shift_straddling_seam():
    src = seg(0, 1, **{"1": (0, "3/4")})
    t = T(shifts={1: Fraction(1, 2)})
    # the box-level map cannot represent a torn image ...
    with pytest.raises(WrapSplitRequired):
        t.apply_box(src.boxes[0])
    # ... but the set-level one splits it
    torn = MSet(seg(0, 1, **{"1": (0, "1/4")}).boxes
                + seg(0, 1, **{"1": ("1/2", 1)}).boxes)
    assert equal_ae(t.apply_mset(src), torn)


def test_classify_translation():
    got = {str(s) for s in classify(T(offset=5))}
    assert got == {"z", "aff", "m(1)", "mbar(1)"}


def test_classify_dilation_has_no_rigid_family():
    got = {str(s) for s in classify(T(slope=2))}
    assert got == {"h", "aff"}


def test_classify_reports_least_index():
    t = T(offset=2, perm=Perm({1: 3, 3: 1}))
    got = {str(s) for s in classify(t)}
    assert got == {"m(3)", "mbar(3)"}


def test_member_is_monotone_in_index():
    t = T(offset=2, perm=Perm({1: 3, 3: 1}), shifts={2: Fraction(1, 4)})
    assert not member(t, MicrocosmSpec.parse("m(3)"))
    assert member(t, MicrocosmSpec.parse("mbar(3)"))
    assert member(t, MicrocosmSpec.parse("mbar(7)"))
    assert member(t, MicrocosmSpec.parse("macrocosm"))
    assert not member(t, MicrocosmSpec.parse("aff"))


def test_spec_parse_and_fields():
    s = MicrocosmSpec.parse("m(3)")
    assert (s.kind, s.index) == ("m", 3)
    assert str(s) == "m(3)"
    assert MicrocosmSpec.parse("z").kind == "z"
    with pytest.raises(ValueError):
        MicrocosmSpec.parse("q(2)")


def test_decompose_star_identity():
    assert decompose_star(Perm({})) == []


def test_decompose_star_transposition():
    assert decompose_star(Perm({1: 2, 2: 1})) == [2]


def _rebuild(factors):
    return functools.reduce(lambda acc, a: Perm({1: a, a: 1}).compose(acc),
                            factors, Perm({}))


def test_decompose_star_three_cycle():
    p = Perm({1: 2, 2: 3, 3: 1})
    facs = decompose_star(p)
    assert _rebuild(facs).to_json() == p.to_json()
    assert len(facs) <= 2 * 3


@st.composite
def perms(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    import random
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    img = list(range(1, n + 1))
    rng.shuffle(img)
    return Perm({i + 1: img[i] for i in range(n)})


@given(perms())
@settings(max_examples=50, deadline=None)
def test_decompose_star_rebuilds_and_stays_short(p):
    facs = decompose_star(p)
    assert _rebuild(facs).to_json() == p.to_json()
    assert len(facs) <= 2 * len(p.support()) if p.support() else facs == []


@given(perms())
@settings(max_examples=50, deadline=None)
def test_perm_order_is_the_least_identity_power(p):
    q, n = p, 1
    while not q.is_identity():
        q, n = q.compose(p), n + 1
    assert p.order() == n


@st.composite
def descriptors(draw):
    slope = draw(st.sampled_from([1, 2, Fraction(1, 2)]))
    offset = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    perm = draw(perms()) if draw(st.booleans()) else None
    shifts = None
    if draw(st.booleans()):
        shifts = {draw(st.integers(1, 3)):
                  draw(st.fractions(min_value=0, max_value="2/3",
                                    max_denominator=3))}
    return TransformationDescriptor(slope, offset, perm, shifts)


_POINTS = [(Fraction(1, 5), {1: Fraction(1, 7), 2: Fraction(2, 7),
                             3: Fraction(3, 7), 4: Fraction(4, 7),
                             5: Fraction(5, 7)})]


def _same(f, g):
    return all(ref_apply_point(f, x, cs) == ref_apply_point(g, x, cs)
               for x, cs in _POINTS)


@given(descriptors(), descriptors(), descriptors())
@settings(max_examples=60, deadline=None)
def test_compose_is_associative_pointwise(f, g, h):
    assert _same(f.compose(g).compose(h), f.compose(g.compose(h)))


@given(descriptors())
@settings(max_examples=60, deadline=None)
def test_identity_is_neutral(f):
    assert _same(f.compose(IDENTITY), f)
    assert _same(IDENTITY.compose(f), f)


@given(descriptors())
@settings(max_examples=60, deadline=None)
def test_json_round_trip(f):
    back = TransformationDescriptor.from_json(f.to_json())
    assert back.key() == f.key()


_SHIFTS = [Fraction(k, d) for d in (2, 3, 4) for k in range(1, d)]


@st.composite
def normal_descriptors(draw):
    slope = draw(st.sampled_from([1, 1, -1, 2, Fraction(1, 2), Fraction(3, 2)]))
    offset = draw(st.fractions(min_value=-2, max_value=2, max_denominator=4))
    perm = draw(perms()) if draw(st.booleans()) else None
    shifts = draw(st.dictionaries(st.integers(1, 5), st.sampled_from(_SHIFTS),
                                  max_size=3))
    return TransformationDescriptor(slope, offset, perm, shifts)


@given(normal_descriptors(), normal_descriptors())
@example(T(shifts={1: Fraction(2, 3)}), T(shifts={1: Fraction(2, 3)}))
@example(T(shifts={1: Fraction(1, 2)}), T(shifts={1: Fraction(1, 2)}))
@example(T(perm=Perm({1: 3, 3: 1})), T(shifts={1: Fraction(1, 2), 2: Fraction(1, 3)}))
@example(T(perm=Perm({1: 3, 3: 1}), shifts={3: Fraction(3, 4), 1: Fraction(1, 4)}),
         T(slope=2, shifts={1: Fraction(1, 2), 3: Fraction(2, 3)}))
@settings(max_examples=200, deadline=None)
def test_compose_keeps_the_normal_form(f, g):
    # equal keys, not just equal points: a zero, wrapped or unsorted
    # shift entry would break == and hashing
    got, ref = f.compose(g), ref_compose(f, g)
    assert got.key() == ref.key()
    assert got == ref and hash(got) == hash(ref)


@given(st.fractions(0, 1, max_denominator=12), st.integers(0, 1),
       st.fractions(0, 1, max_denominator=12), st.integers(0, 1))
@settings(max_examples=100, deadline=None)
def test_weight_product_matches_the_checked_constructor(a, fa, b, fb):
    w = Weight(a, fa) * Weight(b, fb)
    assert w == Weight(a * b, max(fa, fb))
    assert (w.a, w.flag) == (a * b, max(fa, fb))
