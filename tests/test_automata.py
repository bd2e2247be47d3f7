"""Nondeterministic multihead automata with the co-acceptance convention."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gmachines.automata import (Configuration, MultiheadAutomaton, co_accepts,
                                language_a, parity_automaton, successors,
                                trace_counts, zeros_ones_automaton)

from conftest import odometer, random_automata
from oracles import (_steps, all_words, dfa_even_ones, ref_co_accepts,
                     ref_run_counts)


@pytest.fixture(scope="module")
def parity():
    return parity_automaton()


@pytest.fixture(scope="module")
def zeros_ones():
    return zeros_ones_automaton()


def test_builtins_pass_their_own_checks(parity, zeros_ones):
    assert parity.check() == []
    assert zeros_ones.check() == []
    assert parity.heads == 1
    assert zeros_ones.heads == 2


def test_halting_configurations_have_no_successors(parity):
    assert successors(parity, "1", Configuration("accept", (0,))) == []
    assert successors(parity, "1", Configuration("reject", (0,))) == []


def test_single_step_from_marker(parity):
    out = successors(parity, "1", Configuration("init", (0,)))
    assert len(out) == 1
    t, cfg = out[0]
    assert t.next == "even"
    assert cfg == Configuration("even", (1,))


def test_heads_wrap_around_the_marker(parity):
    # reading the last letter moves the head back onto the marker column
    out = successors(parity, "1", Configuration("even", (1,)))
    states = {c.state for _, c in out}
    assert "odd" in states
    assert all(c.heads == (2 % 2,) for _, c in out)


def test_co_acceptance_frozen_verdicts(parity, zeros_ones):
    assert co_accepts(parity, "")
    assert co_accepts(parity, "11")
    assert not co_accepts(parity, "1")
    assert co_accepts(zeros_ones, "01")
    assert co_accepts(zeros_ones, "0011")
    assert not co_accepts(zeros_ones, "10")
    assert not co_accepts(zeros_ones, "001")


def test_co_acceptance_matches_reachability_oracle(parity, zeros_ones):
    for a in (parity, zeros_ones):
        doc = a.to_json()
        for w in all_words(5):
            assert co_accepts(a, w) == ref_co_accepts(doc, w), w


def test_language_matches_table_dfa(parity):
    for w in all_words(6):
        assert co_accepts(parity, w) == dfa_even_ones(w)
    assert language_a(parity, 3) == \
        ["", "0", "00", "11", "000", "011", "101", "110"]


def test_language_is_exactly_the_uncondemned_words(parity, zeros_ones):
    for a in (parity, zeros_ones):
        lang = set(language_a(a, 4))
        for w in all_words(4):
            assert (w in lang) == co_accepts(a, w)


def test_trace_counts_frozen(parity):
    assert trace_counts(parity, "10", 4) == {1: 1, 2: 1, 3: 1, 4: 1}


def test_a_word_given_as_a_sequence_reads_its_letters(parity):
    assert co_accepts(parity, [1]) is co_accepts(parity, "1") is False
    assert co_accepts(parity, (1, 1)) is co_accepts(parity, "11") is True
    assert trace_counts(parity, [1], 4) == trace_counts(parity, "1", 4) \
        == {1: 1, 2: 1, 3: 1}


def test_trace_counts_match_oracle(parity, zeros_ones):
    for a in (parity, zeros_ones):
        doc = a.to_json()
        for w in ("", "0", "01", "0011", "101"):
            assert trace_counts(a, w, 8) == ref_run_counts(doc, w, 8)


def test_json_round_trip(parity, zeros_ones):
    for a in (parity, zeros_ones):
        doc = a.to_json()
        assert sorted(doc) == ["heads", "states", "transitions"]
        t = doc["transitions"][0]
        assert sorted(t) == ["dir", "head", "next", "read", "state"]
        back = MultiheadAutomaton.from_json(doc)
        assert back.check() == []
        for w in all_words(3):
            assert co_accepts(back, w) == co_accepts(a, w)


def test_dangling_state_reference_is_rejected_at_parse():
    doc = parity_automaton().to_json()
    doc["transitions"][0]["next"] = "ghost"
    with pytest.raises(ValueError):
        MultiheadAutomaton.from_json(doc)


def test_bad_head_index_is_rejected_at_parse():
    doc = parity_automaton().to_json()
    doc["transitions"][0]["head"] = 2
    with pytest.raises(ValueError):
        MultiheadAutomaton.from_json(doc)


def test_missing_fields_are_named_at_parse():
    doc = parity_automaton().to_json()
    for key in ("heads", "states"):
        with pytest.raises(ValueError, match=f"'{key}' field"):
            MultiheadAutomaton.from_json({k: v for k, v in doc.items() if k != key})
    with pytest.raises(ValueError, match="'transitions' must be a list"):
        MultiheadAutomaton.from_json(dict(doc, transitions=3))
    for key in ("read", "state", "head", "dir", "next"):
        t = {k: v for k, v in doc["transitions"][0].items() if k != key}
        with pytest.raises(ValueError, match=f"'{key}' field"):
            MultiheadAutomaton.from_json(dict(doc, transitions=[t]))


@given(random_automata(), st.sampled_from(all_words(6)))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_generated_automata_match_the_reference_semantics(a, word):
    doc = a.to_json()
    for w in all_words(6):
        assert co_accepts(a, w) == ref_co_accepts(doc, w), w
        assert trace_counts(a, w, 4) == ref_run_counts(doc, w, 4), w
    for state in a.states:
        for heads in product(range(len(word) + 1), repeat=a.heads):
            got = [(t.to_json(), c.state, c.heads)
                   for t, c in successors(a, word, Configuration(state, heads))]
            assert got == _steps(doc, word, state, heads), (state, heads)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_odometer_languages(k):
    for reject_ones, lang in ((False, lambda w: True), (True, lambda w: "1" not in w)):
        a = odometer(k, reject_ones)
        doc = a.to_json()
        for w in all_words(6):
            assert co_accepts(a, w) == ref_co_accepts(doc, w) == lang(w), (k, w)
    # the count takes about (n + 1)^k steps to accept
    runs = trace_counts(odometer(k), "01", 3 ** k + 1)
    assert 3 ** k - 1 <= max(runs) <= 3 ** k + 1, runs
