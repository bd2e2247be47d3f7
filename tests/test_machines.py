"""Machines: validation, running words, essential form, language."""

from fractions import Fraction
from math import log2

import pytest

from gmachines.automata import co_accepts, parity_automaton, zeros_ones_automaton
from gmachines.encodings import automaton_to_machine
from gmachines.errors import NonTerminating, NotEssential
from gmachines.execution import CellGraph, cell_count
from gmachines.graphings import Edge, GraphingRep, Weight
from gmachines.machines import (Machine, accepts, compute, essentialize,
                                is_essential, language_m, validate_machine)
from gmachines.measurement import decide_against_test
from gmachines.microcosm import Perm, TransformationDescriptor, decompose_star
from gmachines.space import intersect, measure
from gmachines.words import DEFAULT_PSI, IN, OUT

from conftest import _move, odometer, seg
from oracles import all_words


@pytest.fixture(scope="module")
def parity_m():
    return automaton_to_machine(parity_automaton())


def test_encoded_machine_validates(parity_m):
    assert validate_machine(parity_m.graphing,
                            head_bound=parity_m.head_bound) == []


def test_validation_flags_dilation():
    bad = GraphingRep(DEFAULT_PSI.machine_support(), 1,
                      [Edge(DEFAULT_PSI.mset("r"), 0, 0,
                            TransformationDescriptor(slope=2), Weight())])
    assert validate_machine(bad) != []


def test_validation_flags_wrong_support():
    g = GraphingRep(seg(0, 1), 1, [])
    assert any("support" in d for d in validate_machine(g))


def test_validation_respects_head_bound(winding_machine):
    g = winding_machine.graphing
    assert validate_machine(g, head_bound=3) == []
    assert validate_machine(g, head_bound=2) != []


def test_compute_produces_runnable_project(parity_m):
    p = compute(parity_m, "11")
    assert p.coeff_sum() == 1
    assert decide_against_test(p) == "pass"
    assert decide_against_test(compute(parity_m, "1")) == "fail"


def test_rejection_shows_up_as_an_idle_block_loop(parity_m):
    r = DEFAULT_PSI.mset("r")

    def loops(p):
        n = 0
        for _, g in p.terms:
            for e in g.edges:
                img = e.mapd.apply_mset(e.source)
                if measure(intersect(e.source, r)) > 0 \
                        and measure(intersect(img, r)) > 0:
                    n += 1
        return n

    assert loops(compute(parity_m, "11")) == 0
    assert loops(compute(parity_m, "1")) == 1


def test_accepts_known_words(parity_m):
    assert accepts(parity_m, "")
    assert accepts(parity_m, "11")
    assert not accepts(parity_m, "1")
    assert not accepts(parity_m, "01")


def test_edgeless_machine_accepts_everything():
    m = Machine(GraphingRep(DEFAULT_PSI.machine_support(), 1, []), 1)
    assert language_m(m, 2) == ["", "0", "1", "00", "01", "10", "11"]


def test_winding_machine_accepts_everything(winding_machine):
    assert language_m(winding_machine, 2) == \
        ["", "0", "1", "00", "01", "10", "11"]


def test_tape_loop_machine_rejects_single_one(tape_loop_machine):
    got = language_m(tape_loop_machine, 2)
    assert got == ["", "0", "00", "01", "10", "11"]


def test_language_frozen_values(parity_m):
    assert language_m(parity_m, 3) == \
        ["", "0", "00", "11", "000", "011", "101", "110"]
    z = automaton_to_machine(zeros_ones_automaton())
    assert language_m(z, 4) == ["", "01", "0011"]


def test_essential_machines_pass_through(parity_m):
    assert is_essential(parity_m)
    again = essentialize(parity_m)
    assert len(again.graphing.edges) == len(parity_m.graphing.edges)
    assert language_m(again, 3) == language_m(parity_m, 3)


def test_essentialize_splits_long_jumps(tape_loop_machine):
    assert not is_essential(tape_loop_machine)
    fixed = essentialize(tape_loop_machine)
    assert is_essential(fixed)
    assert len(fixed.graphing.edges) == 11
    assert fixed.graphing.dialect_size == 5
    assert language_m(fixed, 3) == language_m(tape_loop_machine, 3)


@pytest.mark.parametrize("home", [False, True])
@pytest.mark.parametrize("perm, factors", [
    (Perm({2: 3, 3: 2}), 3),
    (Perm({1: 2, 2: 1, 3: 4, 4: 3}), 4),
    (Perm({1: 3, 3: 4, 4: 1}), 2),
])
def test_essentialize_chains_middle_hops(perm, factors, home):
    # the tape-loop shape: leave the reject block, walk one letter, come
    # back.  On the way out every head stands on the marker, so a middle
    # hop that guessed only the target's symbol would pass unnoticed; on
    # the way home the target is the reject block and it would not.
    psi = DEFAULT_PSI
    edges = [_move(psi, "r", ("*", OUT), 0, 1, None if home else perm),
             _move(psi, ("0", IN), ("0", OUT), 1, 2),
             _move(psi, ("1", IN), ("1", OUT), 1, 2),
             _move(psi, ("*", IN), "r", 2, 0, perm if home else None)]
    m = Machine(GraphingRep(psi.machine_support(), 3, edges),
                max(perm.support()), psi)
    assert len(decompose_star(perm)) == factors
    fixed = essentialize(m)
    assert is_essential(fixed)
    assert language_m(fixed, 3) == language_m(m, 3)


def test_json_round_trip(parity_m):
    doc = parity_m.to_json()
    assert sorted(doc) == ["graphing", "headBound"]
    back = Machine.from_json(doc)
    assert back.head_bound == parity_m.head_bound
    assert len(back.graphing.edges) == len(parity_m.graphing.edges)
    assert language_m(back, 2) == language_m(parity_m, 2)


def test_cap_reaches_the_plug_of_a_decide(monkeypatch):
    m = automaton_to_machine(zeros_ones_automaton())
    monkeypatch.delenv("GM_MAX_PATH_LEN", raising=False)
    assert accepts(m, "00001111", cap=10 ** 6)
    with pytest.raises(NonTerminating):
        accepts(m, "00001111", cap=100)
    # an explicit cap overrides the environment's, in the plug and the search
    monkeypatch.setenv("GM_MAX_PATH_LEN", "1")
    assert accepts(m, "00001111", cap=10 ** 6)
    assert not accepts(m, "0001111", cap=10 ** 6)


@pytest.mark.parametrize("k,max_len", [(1, 5), (2, 4), (3, 2)])
def test_odometer_machines_keep_the_language(k, max_len):
    for reject_ones in (False, True):
        a = odometer(k, reject_ones)
        m = automaton_to_machine(a)
        for w in all_words(max_len):
            assert accepts(m, w) == co_accepts(a, w), (k, reject_ones, w)


# the arrows a decide fires may grow by at most 2^(k + MARGIN) per
# doubling of the word; the odometer needs about (n + 1)^k steps
MARGIN = 0.5


def test_odometer_decide_work_follows_the_head_count(monkeypatch):
    fired = [0]
    arrows = CellGraph.arrows

    def counted(*args):
        # cells fired: the cells of the boxes each firing carries
        out = arrows(*args)
        fired[0] += sum(cell_count(imgs) for _k, imgs in out)
        return out
    monkeypatch.setattr(CellGraph, "arrows", counted)
    for k, n in ((1, 16), (2, 8), (3, 4)):
        m = automaton_to_machine(odometer(k))
        work = []
        for length in (n, 2 * n):
            fired[0] = 0
            assert accepts(m, ("01" * length)[:length], cap=10 ** 9)
            work.append(fired[0])
        assert log2(work[1] / work[0]) <= k + MARGIN, (k, work)
