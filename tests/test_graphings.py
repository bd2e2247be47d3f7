"""Graphing representatives: validation, refinement, equivalence, tensor."""

from fractions import Fraction

import pytest

from gmachines.errors import NotInjective, OverlappingSupports
from gmachines.graphings import (Edge, GraphingRep, Project, SymValue, Weight,
                                 equivalent, refines, rename_dialect, tensor,
                                 tensor_graphings, validate)
from gmachines.microcosm import Perm, TransformationDescriptor
from gmachines.space import MSet, equal_ae, measure, union

from conftest import line_edge, seg


def test_validate_translations_in_rigid_family(seesaw):
    assert validate(seesaw, "z") == []
    assert validate(seesaw, "aff") == []


def test_validate_flags_dilation(seesaw_mirror):
    assert validate(seesaw_mirror, "z") != []
    assert validate(seesaw_mirror, "aff") == []


def test_validate_flags_image_outside_support():
    g = GraphingRep(seg(0, 2), 1, [line_edge(1, 2, 1, 3)])
    assert any("support" in d for d in validate(g, "aff"))


def test_validate_flags_source_outside_support():
    g = GraphingRep(seg(0, 1), 1, [line_edge(4, 5, 1, 0)])
    assert validate(g, "aff") != []


def test_refines_is_reflexive(seesaw, seesaw_mirror, seesaw_halved):
    for g in (seesaw, seesaw_mirror, seesaw_halved):
        assert refines(g, g)


def test_split_edge_refines_original(seesaw, seesaw_halved):
    assert refines(seesaw_halved, seesaw)
    assert not refines(seesaw, seesaw_halved)


def test_refines_rejects_different_maps(seesaw, seesaw_mirror):
    assert not refines(seesaw, seesaw_mirror)
    assert not refines(seesaw_mirror, seesaw)


def test_equivalence_via_common_refinement(seesaw, seesaw_mirror, seesaw_halved):
    assert equivalent(seesaw, seesaw_halved)
    assert equivalent(seesaw_halved, seesaw)
    assert not equivalent(seesaw, seesaw_mirror)


def test_equivalent_after_idle_split(seesaw):
    # same maps, one source chopped at an interior point
    edges = [line_edge(0, "1/3", 1, 1), line_edge("1/3", 1, 1, 1),
             line_edge(1, 2, 1, -1)]
    chopped = GraphingRep(seg(0, 2), 1, edges)
    assert equivalent(chopped, seesaw)


def test_rename_dialect_identity(seesaw):
    out = rename_dialect(seesaw, {0: 0})
    assert equivalent(out, seesaw)


def test_rename_dialect_moves_states():
    e = Edge(seg(0, 1), 0, 1, TransformationDescriptor(offset=1), Weight())
    g = GraphingRep(seg(0, 2), 2, [e])
    out = rename_dialect(g, {0: 2, 1: 3}, new_size=4)
    assert out.dialect_size == 4
    assert out.edges[0].in_state == 2
    assert out.edges[0].out_state == 3


def test_rename_dialect_requires_injection(seesaw):
    with pytest.raises(NotInjective):
        rename_dialect(GraphingRep(seg(0, 1), 2, []), {0: 1, 1: 1})


@pytest.fixture
def far_loop():
    return GraphingRep(seg(5, 7), 1, [line_edge(5, 6, 1, 1)])


def test_tensor_juxtaposes(seesaw, far_loop):
    t = tensor_graphings(seesaw, far_loop)
    assert equal_ae(t.support, union(seesaw.support, far_loop.support))
    assert len(t.edges) == len(seesaw.edges) + len(far_loop.edges)


def test_tensor_keeps_wrapper_zero(seesaw, far_loop):
    t = tensor_graphings(seesaw, far_loop)
    states = {e.in_state for e in t.edges} | {e.out_state for e in t.edges}
    assert states == {0}


def test_tensor_with_empty_adds_nothing(seesaw):
    empty = GraphingRep(seg(5, 6), 1, [])
    t = tensor_graphings(seesaw, empty)
    assert len(t.edges) == len(seesaw.edges)
    assert measure(t.support) == measure(seesaw.support) + 1


def test_tensor_rejects_overlap(seesaw, seesaw_mirror):
    with pytest.raises(OverlappingSupports):
        tensor_graphings(seesaw, seesaw_mirror)


def test_tensor_of_projects(seesaw, seesaw_mirror, far_loop):
    p = Project(SymValue(2, 1), [(Fraction(1, 2), seesaw), (3, seesaw_mirror)])
    q = Project(SymValue(5), [(2, far_loop)])
    t = tensor(p, q)
    # a * sum(q) + b * sum(p): (2 + zeta) * 2 + 5 * 7/2
    assert t.wrapper == SymValue(Fraction(43, 2), 2)
    assert [(c, g.to_json()) for c, g in t.terms] == [
        (1, tensor_graphings(seesaw, far_loop).to_json()),
        (6, tensor_graphings(seesaw_mirror, far_loop).to_json())]


def test_weight_param_is_dilation_times_flag():
    w = Weight(Fraction(2, 3), 1)
    assert w.a == Fraction(2, 3) and w.flag == 1
    w = Weight(Fraction(2, 3), 0)
    assert w.a == Fraction(2, 3) and w.flag == 0
    with pytest.raises(ValueError):
        Weight(2, 1)


def test_edge_weight_defaults_to_unflagged():
    e = Edge(seg(0, 1), 0, 0, TransformationDescriptor())
    assert e.weight.a == 1
    assert e.weight.flag == 0


def test_json_round_trip(seesaw_halved):
    doc = seesaw_halved.to_json()
    assert doc["dialect"] == 0
    back = GraphingRep.from_json(doc)
    assert equivalent(back, seesaw_halved)
    assert len(back.edges) == len(seesaw_halved.edges)


def test_json_preserves_perm_and_weight():
    t = TransformationDescriptor(perm=Perm({1: 2, 2: 1}),
                                 shifts={1: Fraction(1, 3)})
    e = Edge(seg(0, 1), 1, 0, t, Weight(Fraction(1, 2), 1))
    g = GraphingRep(seg(0, 1), 2, [e])
    back = GraphingRep.from_json(g.to_json())
    b = back.edges[0]
    assert b.weight.a == Fraction(1, 2) and b.weight.flag == 1
    assert b.mapd.key() == t.key()


def test_json_missing_fields_are_named(seesaw):
    doc = seesaw.to_json()
    with pytest.raises(ValueError, match="'edges' must be a list"):
        GraphingRep.from_json(dict(doc, edges=3))
    edge = {k: v for k, v in doc["edges"][0].items() if k != "source"}
    with pytest.raises(ValueError, match="'source' field"):
        GraphingRep.from_json(dict(doc, edges=[edge]))
    with pytest.raises(ValueError, match="'source' field"):
        GraphingRep.from_json(dict(doc, edges=[7]))
