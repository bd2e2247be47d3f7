"""Encoding automata as machines and extracting them back."""

import math
import sys

import pytest

from gmachines.automata import (MultiheadAutomaton, co_accepts, language_a,
                                parity_automaton, zeros_ones_automaton)
from gmachines.encodings import (automaton_to_machine, family_counts,
                                 machine_to_automaton,
                                 trace_path_correspondence)
from gmachines.errors import MalformedHalt, NotEssential
from gmachines.graphings import Edge, GraphingRep
from gmachines.machines import Machine, essentialize, language_m
from gmachines.microcosm import TransformationDescriptor
from gmachines.words import DEFAULT_PSI, IN, OUT

from conftest import _move
from oracles import all_words


@pytest.fixture(scope="module")
def parity():
    return parity_automaton()


@pytest.fixture(scope="module")
def zeros_ones():
    return zeros_ones_automaton()


def test_edge_family_counts(parity, zeros_ones):
    assert family_counts(parity) == {"raw": 42, "emitted": 38}
    assert family_counts(zeros_ones) == {"raw": 360, "emitted": 350}


def test_encoded_machine_shape(parity, zeros_ones):
    m = automaton_to_machine(parity)
    assert m.graphing.dialect_size == 9
    assert len(m.graphing.edges) == 38
    assert m.head_bound == 1
    z = automaton_to_machine(zeros_ones)
    assert z.graphing.dialect_size == 144
    assert len(z.graphing.edges) == 350
    assert z.head_bound == 2


def test_compiled_edges_share_one_descriptor_per_map(parity, zeros_ones):
    # a map is (block offset, coordinate swapped with 1); the edges that
    # take the same one hold the same descriptor object
    for a, count in ((parity, 7), (zeros_ones, 19)):
        edges = automaton_to_machine(a).graphing.edges
        maps = {(e.mapd.offset, e.mapd.perm(1)) for e in edges}
        assert len({id(e.mapd) for e in edges}) == len(maps) == count


def test_encoding_preserves_verdicts(parity):
    m = automaton_to_machine(parity)
    assert language_m(m, 3) == language_a(parity, 3)


def test_reentering_the_start_state_is_refused(parity):
    doc = parity.to_json()
    doc["transitions"].append({"read": ["1"], "state": "even",
                               "head": 1, "dir": "In", "next": "init"})
    with pytest.raises(ValueError, match="re-enters"):
        automaton_to_machine(MultiheadAutomaton.from_json(doc))


def test_halting_off_the_marker_is_refused(parity):
    doc = parity.to_json()
    for t in doc["transitions"]:
        if t["next"] == "accept":
            t["read"] = ["0"]
            break
    with pytest.raises(MalformedHalt):
        automaton_to_machine(MultiheadAutomaton.from_json(doc))


def test_extraction_sizes_preamble(parity, zeros_ones):
    a = machine_to_automaton(automaton_to_machine(parity))
    assert (len(a.states), len(a.transitions)) == (31, 59)
    z = machine_to_automaton(automaton_to_machine(zeros_ones))
    assert (len(z.states), len(z.transitions)) == (2596, 5946)


def test_extraction_sizes_verbatim(parity, zeros_ones):
    a = machine_to_automaton(automaton_to_machine(parity), mode="verbatim")
    assert (len(a.states), len(a.transitions)) == (30, 46)
    z = machine_to_automaton(automaton_to_machine(zeros_ones),
                             mode="verbatim")
    assert (len(z.states), len(z.transitions)) == (2595, 5511)


def test_extraction_state_count_formula(parity, zeros_ones):
    for a, reserved in ((parity, 4), (zeros_ones, 4)):
        m = automaton_to_machine(a)
        out = machine_to_automaton(m)
        k = a.heads
        n = m.graphing.dialect_size
        assert len(out.states) == n * math.factorial(k) * 3 ** k + reserved


def test_extracting_an_edgeless_machine_accepts_everything():
    from gmachines.graphings import GraphingRep
    from gmachines.machines import Machine
    from gmachines.words import DEFAULT_PSI

    m = Machine(GraphingRep(DEFAULT_PSI.machine_support(), 1, []), 1)
    a = machine_to_automaton(m)
    assert language_a(a, 2) == ["", "0", "1", "00", "01", "10", "11"]


def test_extraction_wants_essential_machines(tape_loop_machine):
    with pytest.raises(NotEssential):
        machine_to_automaton(tape_loop_machine)
    fixed = essentialize(tape_loop_machine)
    a = machine_to_automaton(fixed)
    assert language_a(a, 2) == language_m(tape_loop_machine, 2)


def _silent_detour(m, hops):
    """m with every landing at the reject block sent to a fresh state that
    takes hops silent answer-to-answer edges back to where departures leave."""
    g, psi = m.graphing, m.psi
    r = psi.block("r")

    def src(e):
        return int(e.source.boxes[0].line.lo)

    (init,) = {e.in_state for e in g.edges if src(e) == r}
    x = g.dialect_size
    edges = [Edge(e.source, e.in_state,
                  x if src(e) + e.mapd.offset == r else e.out_state,
                  e.mapd, e.weight) for e in g.edges]
    chain = list(range(x, x + hops)) + [init]
    edges += [Edge(psi.mset("r"), q, q2, TransformationDescriptor())
              for q, q2 in zip(chain, chain[1:])]
    return Machine(GraphingRep(g.support, x + hops, edges), m.head_bound, psi)


def test_extraction_follows_silent_answer_edges(parity, zeros_ones):
    for a, max_len in ((parity, 4), (zeros_ones, 3)):
        m = _silent_detour(automaton_to_machine(a), 1)
        want = language_m(m, max_len)
        assert want == language_a(a, max_len)
        for mode in ("preamble", "verbatim"):
            back = machine_to_automaton(m, mode=mode)
            assert language_a(back, max_len) == want, mode


def test_a_silent_cycle_rejects_every_word(parity):
    m = automaton_to_machine(parity)
    g, psi = m.graphing, m.psi
    x = g.dialect_size
    loop = [Edge(psi.mset("r"), x, x + 1, TransformationDescriptor()),
            Edge(psi.mset("r"), x + 1, x, TransformationDescriptor())]
    m = Machine(GraphingRep(g.support, x + 2, [*g.edges, *loop]), 1, psi)
    a = machine_to_automaton(m)
    assert [t.next for t in a.transitions] == ["reject"]
    assert language_a(a, 3) == language_m(m, 3) == []


def test_extraction_continues_through_silent_answer_edges():
    # two laps of the tape, the second over 1s only, each landing at a
    # state that a silent edge hands on to the other lap: the reject
    # chain has to pass both silent edges
    psi = DEFAULT_PSI
    edges = [_move(psi, "r", ("*", OUT), 0, 1),
             _move(psi, ("0", IN), ("0", OUT), 1, 1),
             _move(psi, ("1", IN), ("1", OUT), 1, 1),
             _move(psi, ("*", IN), "r", 1, 2),
             _move(psi, "r", "r", 2, 3),
             _move(psi, "r", ("*", OUT), 3, 4),
             _move(psi, ("1", IN), ("1", OUT), 4, 4),
             _move(psi, ("*", IN), "r", 4, 5),
             _move(psi, "r", "r", 5, 0)]
    m = Machine(GraphingRep(psi.machine_support(), 6, edges), 1, psi)
    want = language_m(m, 3)
    assert want == [w for w in all_words(3) if "0" in w]
    for mode in ("preamble", "verbatim"):
        assert language_a(machine_to_automaton(m, mode=mode), 3) == want, mode


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_a_long_silent_chain_extracts_without_recursion(parity):
    m = _silent_detour(automaton_to_machine(parity), 150)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        a = machine_to_automaton(m)
    finally:
        sys.setrecursionlimit(limit)
    assert language_a(a, 2) == language_m(m, 2)


def test_round_trip_preserves_language(parity, zeros_ones):
    for a in (parity, zeros_ones):
        for mode in ("preamble", "verbatim"):
            back = machine_to_automaton(
                essentialize(automaton_to_machine(a)), mode=mode)
            for w in all_words(4):
                assert co_accepts(back, w) == co_accepts(a, w), (mode, w)


def test_correspondence_on_empty_word(parity):
    rep = trace_path_correspondence(parity, "", 6)
    assert rep["match"]
    assert rep["mismatches"] == []


def test_correspondence_counts_line_up(parity, zeros_ones):
    rep = trace_path_correspondence(parity, "1", 6)
    assert rep["match"]
    assert sum(rep["traces"].values()) > 0
    rep2 = trace_path_correspondence(zeros_ones, "01", 8)
    assert rep2["match"]
    assert rep2["mismatches"] == []
