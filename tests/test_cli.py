"""Command line round trips; everything goes through main()."""

import copy
from fractions import Fraction
import json
import re
import sys

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from gmachines import cli, measurement
from gmachines.automata import (MultiheadAutomaton, parity_automaton,
                                zeros_ones_automaton)
from gmachines.encodings import automaton_to_machine
from gmachines.graphings import GraphingRep

from conftest import line_edge, seg
from test_cli_golden import _inputs


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def parity_machine_file(tmp_path):
    m = automaton_to_machine(parity_automaton())
    p = tmp_path / "parity-machine.json"
    p.write_text(json.dumps(m.to_json()))
    return str(p)


def test_decide_exit_codes(capsys, parity_machine_file):
    code, out, _ = run(capsys, "decide", parity_machine_file, "11")
    assert code == 0
    assert "pass" in out
    code, out, _ = run(capsys, "decide", parity_machine_file, "1")
    assert code == 1
    assert "fail" in out


def test_decide_takes_builtin_names(capsys):
    assert run(capsys, "decide", "parity", "11")[0] == 0
    assert run(capsys, "decide", "zeros-ones", "01")[0] == 0
    assert run(capsys, "decide", "zeros-ones", "10")[0] == 1


def test_decide_flag_spelling(capsys):
    code, out, _ = run(capsys, "decide", "--machine", "parity",
                       "--word", "11", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"word": "11", "verdict": "pass"}


def test_decide_zeros_ones_under_default_budget(capsys, monkeypatch):
    monkeypatch.delenv("GM_MAX_PATH_LEN", raising=False)
    assert run(capsys, "decide", "zeros-ones", "00001111") == (0, "pass\n", "")
    assert run(capsys, "decide", "zeros-ones",
               "0" * 12 + "1" * 12) == (0, "pass\n", "")
    assert run(capsys, "decide", "zeros-ones",
               "000000111011") == (1, "fail\n", "")


def test_internal_error_exits_two(capsys, monkeypatch):
    def broken(args):
        raise AssertionError("pair state out of range")

    monkeypatch.setattr(cli, "cmd_decide", broken)
    code, out, err = run(capsys, "decide", "parity", "11")
    assert (code, out) == (2, "")
    assert err == "error: AssertionError: pair state out of range\n"


def test_decide_empty_word(capsys):
    assert run(capsys, "decide", "parity", "")[0] == 0


def test_decide_malformed_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    code, _, err = run(capsys, "decide", str(bad), "11")
    assert code == 2
    assert "error" in err


def test_documents_missing_fields_exit_two(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    bad_edges = tmp_path / "bad-edges.json"
    bad_edges.write_text(json.dumps({"edges": 3}))
    for argv in (("decide", str(empty), "01"), ("compare", str(empty)),
                 ("measure", str(bad_edges), str(bad_edges))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ValueError"), (argv, err)


def _loop_with(edge=(), box=()):
    doc = GraphingRep(seg(0, 1), 1, [line_edge(0, 1, 1, 0)]).to_json()
    doc["edges"][0].update(edge)
    doc["support"][0].update(box)
    return doc


def _parity_with(transition=(), **fields):
    doc = parity_automaton().to_json()
    doc["transitions"][0].update(transition)
    doc.update(fields)
    return doc


_in_null = automaton_to_machine(parity_automaton()).to_json()
_in_null["graphing"]["edges"][0]["in"] = None
WRONG_TYPES = {
    "heads-null": ("compare", {"heads": None, "states": []}),
    "edge-in-null": ("decide", _in_null),
    "weight-number": ("measure", _loop_with(edge={"weight": 3})),
    "perm-number": ("measure", _loop_with(edge={"map": {"perm": 5}})),
    "line-float": ("measure", _loop_with(box={"line": [0.5, "1/1"]})),
    "coords-list": ("measure", _loop_with(box={"coords": []})),
    "read-number": ("compare", _parity_with(transition={"read": 5})),
    "states-null": ("compare", _parity_with(states=None)),
    "state-list": ("compare", _parity_with(states=[["init"], "accept", "reject"])),
    "next-list": ("compare", _parity_with(transition={"next": ["even"]})),
    "in-fraction": ("measure", _loop_with(edge={"in": 0.5})),
    "head-fraction": ("compare", _parity_with(transition={"head": 1.7})),
    "dialect-fraction": ("measure", {**_loop_with(), "dialect": 1.9}),
    "out-bool": ("measure", _loop_with(edge={"out": True})),
}


@pytest.mark.parametrize("command, doc", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_fields_of_the_wrong_type_exit_two(capsys, tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {"compare": (command, str(path)),
            "decide": (command, str(path), "01"),
            "measure": (command, str(path), str(path))}[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ValueError"), err


_parity = parity_automaton().to_json()
BROKEN_AUTOMATA = {
    "no-head": (_parity_with(heads=0), "need at least one head"),
    "no-start": (_parity_with(start="nowhere"), "start state 'nowhere' missing"),
    "no-accept": (_parity_with(states=["init", "even", "odd", "reject"]),
                  "halting state 'accept' missing"),
    "no-reject": (_parity_with(states=["init", "even", "odd", "accept"]),
                  "halting state 'reject' missing"),
    "leaves-halting": (_parity_with(transition={"state": "accept"}),
                       "transition leaves halting state 'accept'"),
    "read-length": (_parity_with(transition={"read": ["*", "*"]}),
                    "reads 2 symbols, expected 1"),
    "bad-symbol": (_parity_with(transition={"read": ["x"]}), "reads bad symbol 'x'"),
    "head-range": (_parity_with(transition={"head": 2}), "moves head 2 of 1"),
    "bad-direction": (_parity_with(transition={"dir": "Up"}), "has direction 'Up'"),
    "duplicate": (_parity_with(transitions=_parity["transitions"]
                               + _parity["transitions"][:1]),
                  "duplicate transition"),
}


@pytest.mark.parametrize("doc, problem", BROKEN_AUTOMATA.values(), ids=BROKEN_AUTOMATA)
def test_automaton_checks_name_the_problem(capsys, tmp_path, doc, problem):
    with pytest.raises(ValueError, match=re.escape(problem)):
        MultiheadAutomaton.from_json(doc)
    path = tmp_path / "automaton.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "compare", str(path))
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ValueError: ") and problem in err, err


def test_decide_missing_word(capsys):
    code, _, err = run(capsys, "decide", "parity")
    assert code == 2
    assert err


def test_encode_then_decide(capsys, tmp_path):
    out_file = tmp_path / "m.json"
    code, _, _ = run(capsys, "encode-automaton", "parity",
                     "-o", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert set(doc) == {"graphing", "headBound"}
    assert run(capsys, "decide", str(out_file), "11")[0] == 0


def test_extract_automaton_modes(capsys, parity_machine_file):
    code, out, _ = run(capsys, "extract-automaton", parity_machine_file)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 31
    code, out, _ = run(capsys, "extract-automaton", parity_machine_file,
                       "--mode", "verbatim")
    assert json.loads(out)["states"].__len__() == 30


@pytest.mark.parametrize("automaton, bound, complaint", [
    (parity_automaton, 0, "ValueError: headBound must be at least 1"),
    (parity_automaton, -1, "ValueError: headBound must be at least 1"),
    # the zeros-ones machine swaps coordinate 2 into the head slot
    (zeros_ones_automaton, 1, "NotEssential: edge swaps coordinate 2 beyond headBound 1"),
])
def test_extract_automaton_refuses_a_bad_head_bound(capsys, tmp_path, automaton,
                                                    bound, complaint):
    doc = automaton_to_machine(automaton()).to_json()
    doc["headBound"] = bound
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "extract-automaton", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {complaint}")


def test_junk_budget_variable_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("GM_MAX_PATH_LEN", "junk")
    code, out, err = run(capsys, "decide", "parity", "11")
    assert (code, out) == (2, "")
    assert "GM_MAX_PATH_LEN" in err


@pytest.mark.parametrize("budget,err", [
    ("-1", "error: ValueError: GM_MAX_PATH_LEN must be at least 0, got -1\n"),
    ("0", "error: NonTerminating: plug exceeded the budget of 0 "
          "cell-arrow expansions\n"),
])
def test_budget_variable_must_not_be_negative(capsys, monkeypatch, budget, err):
    # a negative budget is refused as input; 0 is a budget that nothing fits
    monkeypatch.setenv("GM_MAX_PATH_LEN", budget)
    assert run(capsys, "decide", "parity", "0110") == (2, "", err)


def test_essentialize_idempotent_output(capsys, parity_machine_file):
    code, out, _ = run(capsys, "essentialize", parity_machine_file)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["graphing"]["edges"]) == 38


def test_compare_agrees_on_builtin(capsys):
    code, out, _ = run(capsys, "compare", "parity", "--max-len", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["word", "automaton", "machine", "agree"]
    assert lines[-1] == "15 words, 0 disagreements"
    assert all(row.split()[-1] == "yes" for row in lines[1:-1])


def test_compare_flags_halt_convention(capsys, tmp_path):
    doc = parity_automaton().to_json()
    for t in doc["transitions"]:
        if t["next"] == "accept":
            t["read"] = ["0"]
            break
    f = tmp_path / "broken.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(capsys, "compare", str(f), "--max-len", "2")
    assert code == 2
    assert "MalformedHalt" in err


def test_roundtrip_reports_every_word(capsys):
    code, out, _ = run(capsys, "roundtrip", "parity", "--max-len", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["word", "original", "extracted", "agree"]
    assert len(lines) == 2 + 7
    code, _, _ = run(capsys, "roundtrip", "parity", "--max-len", "2",
                     "--mode", "verbatim")
    assert code == 0


def test_correspond_reports_bijection(capsys):
    code, out, _ = run(capsys, "correspond", "parity", "--word", "1",
                       "--max-steps", "6")
    assert code == 0
    assert "bijection" in out


def test_correspond_finds_the_start_tag_wherever_its_transition_sits(capsys, tmp_path):
    # the start state's dialect tag does not depend on the order of the
    # transitions: here the first one does not leave the start state
    doc = parity_automaton().to_json()
    doc["transitions"].append(doc["transitions"].pop(0))
    moved = tmp_path / "parity-moved.json"
    moved.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "correspond", str(moved), "--word", "0110",
                       "--max-steps", "4")
    assert code == 0
    assert out == run(capsys, "correspond", "parity", "--word", "0110",
                      "--max-steps", "4")[1]
    assert out.endswith("\nbijection\n") and "mismatch" not in out


def test_max_len_zero_lists_no_paths(capsys, tmp_path, conveyor, doubler):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(conveyor.to_json()))
    right.write_text(json.dumps(doubler.to_json()))
    assert run(capsys, "paths", str(left), str(right), "--max-len", "0") == \
        (0, "total 0\n", "")
    # an edge could fire, so a plug cut off at length 0 is truncated
    code, out, err = run(capsys, "exec", str(left), str(right),
                         "--cut", json.dumps(seg(1, 4).to_json()), "--max-len", "0")
    assert (code, out) == (2, "")
    assert "NonTerminating" in err


def test_paths_and_exec_and_measure(capsys, tmp_path, conveyor, doubler):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(conveyor.to_json()))
    right.write_text(json.dumps(doubler.to_json()))
    code, out, _ = run(capsys, "paths", str(left), str(right),
                       "--max-len", "5")
    assert code == 0
    assert out.strip()

    # exec needs a composition that actually finishes
    from gmachines.graphings import GraphingRep
    hop_in = GraphingRep(seg(0, 2), 1, [line_edge(0, 1, 1, 1)])
    hop_out = GraphingRep(seg(1, 2).union(seg(5, 6)), 1,
                          [line_edge(1, 2, 1, 4)])
    fin_l = tmp_path / "fin_l.json"
    fin_r = tmp_path / "fin_r.json"
    fin_l.write_text(json.dumps(hop_in.to_json()))
    fin_r.write_text(json.dumps(hop_out.to_json()))
    cut = json.dumps(seg(1, 2).to_json())
    code, out, _ = run(capsys, "exec", str(fin_l), str(fin_r), "--cut", cut)
    assert code == 0
    edges = json.loads(out)["edges"]
    assert any(e["map"]["offset"] == "5/1" for e in edges)

    # and refuses honestly when the loop never closes
    open_cut = json.dumps(seg(1, 4).to_json())
    code, _, err = run(capsys, "exec", str(left), str(right),
                       "--cut", open_cut, "--max-len", "7")
    assert code == 2
    assert "NonTerminating" in err

    from gmachines.graphings import GraphingRep, Edge, Weight
    from gmachines.microcosm import TransformationDescriptor
    hot = GraphingRep(seg(0, 1), 1,
                      [Edge(seg(0, 1), 0, 0, TransformationDescriptor(),
                            Weight(1, 1))])
    hot_f = tmp_path / "hot.json"
    hot_f.write_text(json.dumps(hot.to_json()))
    code, out, _ = run(capsys, "measure", str(hot_f), str(hot_f))
    assert code == 0
    assert "INF" in out


def test_exact_walk_budget_exits_two(capsys, tmp_path, monkeypatch,
                                     conveyor, doubler):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(conveyor.to_json()))
    right.write_text(json.dumps(doubler.to_json()))
    monkeypatch.setenv("GM_MAX_PATH_LEN", "15")
    code, _, err = run(capsys, "paths", str(left), str(right))
    assert code == 2
    assert "IterationCapExceeded" in err
    code, _, err = run(capsys, "exec", str(left), str(right),
                       "--cut", json.dumps(seg(1, 4).to_json()))
    assert code == 2
    assert "NonTerminating" in err


def test_exec_refuses_to_truncate_a_rigid_pair(capsys, tmp_path):
    # a rigid pair cut short by --max-len is an error, not a partial result
    from gmachines.words import DEFAULT_PSI, representation
    machine = tmp_path / "parity.json"
    word = tmp_path / "word.json"
    machine.write_text(json.dumps(
        automaton_to_machine(parity_automaton()).graphing.to_json()))
    word.write_text(json.dumps(representation("0110").to_json()))
    interface = json.dumps(DEFAULT_PSI.interface_mset().to_json())
    code, _, err = run(capsys, "exec", str(machine), str(word),
                       "--cut", interface, "--max-len", "8")
    assert code == 2
    assert "NonTerminating" in err
    code, out, _ = run(capsys, "exec", str(machine), str(word),
                       "--cut", interface)
    assert code == 0
    assert len(json.loads(out)["edges"]) == 2


def test_exec_sorts_composites_that_differ_only_in_perm(capsys, tmp_path):
    from gmachines.graphings import Edge, Weight
    from gmachines.microcosm import Perm, TransformationDescriptor
    # two paths out of the cut with equal states, slope and offset
    f = GraphingRep(seg(0, 2), 1, [
        Edge(seg(0, 1, **{"1": (lo, hi)}), 0, 0,
             TransformationDescriptor(offset=1, perm=Perm({1: j, j: 1})), Weight())
        for (lo, hi), j in ((("0", "1/2"), 2), (("1/2", "1"), 3))])
    g = GraphingRep(seg(1, 3), 1, [line_edge(1, 2, 1, -1)])
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(f.to_json()))
    right.write_text(json.dumps(g.to_json()))
    code, out, err = run(capsys, "exec", str(left), str(right),
                         "--cut", json.dumps(seg(1, 2).to_json()))
    assert code == 0, err
    # one composite per start cell, four cells per half at grid 2
    perms = [e["map"]["perm"] for e in json.loads(out)["edges"]]
    assert perms == [{"1": 2, "2": 1}] * 4 + [{"1": 3, "3": 1}] * 4


def test_series_errors_exit_two_at_once(capsys, tmp_path):
    from gmachines.graphings import GraphingRep, Edge, Weight
    from gmachines.microcosm import TransformationDescriptor
    paths = []
    for flag in (1, 0):
        loop = GraphingRep(seg(0, 1), 1, [
            Edge(seg(0, 1), 0, 0, TransformationDescriptor(),
                 Weight("999/1000", flag))])
        paths.append(tmp_path / f"loop{flag}.json")
        paths[-1].write_text(json.dumps(loop.to_json()))
    left, right = map(str, paths)
    # certifying the tail would need circuits longer than 4096
    code, out, err = run(capsys, "measure", left, right, "--mode", "series")
    assert (code, out) == (2, "")
    assert err.startswith("error: IterationCapExceeded")
    for tol in ("0", "-1/2"):
        code, out, err = run(capsys, "measure", left, right, "--mode", "series",
                             f"--tol={tol}")
        assert (code, out) == (2, "")
        assert err == "error: ValueError: series tolerance must be positive\n"


def test_series_skips_an_empty_source_edge(capsys, tmp_path):
    from gmachines.graphings import GraphingRep, Edge, Weight
    from gmachines.microcosm import TransformationDescriptor
    loop = Edge(seg(0, 1), 0, 0, TransformationDescriptor(), Weight("1/2", 1))
    idle = Edge(seg(0, 0), 0, 0, TransformationDescriptor(), Weight(1, 0))
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(GraphingRep(seg(0, 1), 1, [loop, idle]).to_json()))
    right.write_text(json.dumps(GraphingRep(seg(0, 1), 1, [loop]).to_json()))
    assert run(capsys, "measure", str(left), str(right), "--mode", "series") == \
        (0, "1/3\n", "")


def test_measure_prints_a_value_of_any_size(capsys, monkeypatch, tmp_path):
    # 5,001 digits, past Python's default limit of 4,300 for int-to-string
    # conversion, which main lifts from wherever it stands
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(GraphingRep(seg(0, 1), 1, [line_edge(0, 1, 1, 0)]).to_json()))
    monkeypatch.setattr(measurement, "measure_graphings",
                        lambda *args, **kwargs: Fraction(1, 10 ** 5000))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(4300)
        code, out, err = run(capsys, "measure", str(path), str(path))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert (code, out, err) == (0, "1/1" + "0" * 5000 + "\n", "")


def test_psi_flag_changes_nothing_observable(capsys):
    base = run(capsys, "decide", "parity", "110")
    alt = run(capsys, "decide", "parity", "110", "--psi", "shifted")
    assert base[0] == alt[0] == 0
    assert base[1] == alt[1]


def test_reports_are_reproducible(capsys):
    a = run(capsys, "compare", "parity", "--max-len", "3")
    b = run(capsys, "compare", "parity", "--max-len", "3")
    assert a == b


def test_unknown_subcommand_errors(capsys):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


@pytest.mark.parametrize("argv", [
    ["compare", "parity", "--max-len", "-1"],
    ["roundtrip", "parity", "--max-len", "-2"],
    ["correspond", "parity", "--word", "01", "--max-steps", "-1"],
    ["paths", "left.json", "right.json", "--max-len", "-1"],
    ["exec", "left.json", "right.json", "--cut", "[]", "--max-len", "-3"],
])
def test_negative_lengths_exit_two(capsys, argv):
    # these used to report "0 words", "languages agree up to length -2"
    # or "bijection" and exit 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"expected an integer of at least 0, got '{argv[-1]}'" in err


def test_zero_lengths_stay_valid(capsys):
    assert run(capsys, "compare", "parity", "--max-len", "0") == \
        (0, "word automaton machine agree\n(empty) pass pass yes\n"
            "1 words, 0 disagreements\n", "")
    assert run(capsys, "roundtrip", "parity", "--max-len", "0")[0] == 0
    assert run(capsys, "correspond", "parity", "--word", "01",
               "--max-steps", "0")[0] == 0


def test_deep_sets_answer_as_shallow_ones(capsys, tmp_path):
    # normalising the union of two boxes walks its axes on a stack of its
    # own, so a support constrained on 1,200 axes answers as one on 2 does
    paths = []
    for n in (2, 1200):
        coords = {str(i): ["0", "1/2"] for i in range(1, n + 1)}
        doc = {"support": [{"line": ["0", "1"], "coords": coords},
                           {"line": ["1", "2"], "coords": coords}],
               "dialect": 1, "edges": []}
        path = tmp_path / f"deep-{n}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    for cmd, out in (("measure", "0/1\n"), ("paths", "total 0\n")):
        for path in paths:
            assert run(capsys, cmd, path, path) == (0, out, "")


# -- mutated documents --------------------------------------------------------
#
# The golden test's documents, and the automata and machine behind its
# builtin names, with keys deleted, list items dropped and values replaced.
# Every command that reads them must answer with an exit code: 2 with an
# error line, 1 only as a verdict, else 0.  Replacements stay small (heads
# and dialects of at most 3, denominators of at most 4) so that no run
# compiles a large automaton or lists a fine grid.

FUZZ_CALLS = [
    (("decide", "{0}", "01"), ("winding.json",)),
    (("decide", "{0}", "01"), ("parity-machine.json",)),
    (("extract-automaton", "{0}"), ("parity-machine.json",)),
    (("essentialize", "{0}"), ("winding.json",)),
    (("compare", "{0}", "--max-len", "2"), ("parity-automaton.json",)),
    (("compare", "{0}", "--max-len", "2"), ("zeros-ones-automaton.json",)),
    (("roundtrip", "{0}", "--max-len", "2"), ("zeros-ones-automaton.json",)),
    (("correspond", "{0}", "--word", "01", "--max-steps", "6"),
     ("parity-automaton.json",)),
    (("encode-automaton", "{0}"), ("zeros-ones-automaton.json",)),
    (("exec", "{0}", "{1}", "--cut", "@{2}"),
     ("parity.json", "word0110.json", "interface.json")),
    (("exec", "{0}", "{1}", "--cut", "@{2}"), ("swaps.json", "back.json", "cut.json")),
    (("exec", "{0}", "{1}", "--cut", "@{2}"), ("hop_in.json", "hop_out.json", "cut.json")),
    (("paths", "{0}", "{1}", "--max-len", "4"), ("conveyor.json", "doubler.json")),
    (("measure", "{0}", "{1}"), ("parity.json", "word0110.json")),
    (("measure", "{0}", "{1}", "--mode", "series"), ("loop_idle.json", "loop.json")),
    (("measure", "{0}", "{1}", "--mode", "series"), ("swaps.json", "back.json")),
]
VERDICTS = {"decide", "compare", "roundtrip", "correspond"}

_REPLACEMENTS = st.one_of(
    st.none(), st.just([]), st.integers(-1, 3),
    st.sampled_from(["", "x", "In", "Out", "*", "0", "1", "init", "reject", "1/0"]),
    st.builds("{}/{}".format, st.integers(-2, 8), st.integers(1, 4)))


def _slots(node):
    """(container, key) of every value below node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, child in list(items):
        out.append((node, key))
        out.extend(_slots(child))
    return out


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_documents_exit_cleanly(capsys, tmp_path, monkeypatch, conveyor,
                                        doubler, winding_machine, data):
    monkeypatch.setenv("GM_MAX_PATH_LEN", "3000")
    docs = _inputs(conveyor, doubler, winding_machine)
    docs.update({
        "cut.json": seg(1, 2).to_json(),
        "parity-machine.json": automaton_to_machine(parity_automaton()).to_json(),
        "parity-automaton.json": parity_automaton().to_json(),
        "zeros-ones-automaton.json": zeros_ones_automaton().to_json(),
    })
    argv, names = data.draw(st.sampled_from(FUZZ_CALLS))
    target = data.draw(st.sampled_from(names))
    doc = copy.deepcopy(docs[target])
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            break
        node, key = data.draw(st.sampled_from(slots))
        how = data.draw(st.sampled_from(["delete", "replace", "wrap"]))
        if how == "delete":
            del node[key]
        else:
            node[key] = [node[key]] if how == "wrap" else data.draw(_REPLACEMENTS)
    for name in names:
        (tmp_path / name).write_text(json.dumps(doc if name == target else docs[name]))
    argv = [a.format(*(str(tmp_path / n) for n in names)) for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        # argparse refusing the command line is the one exit by exception
        assert exc.code == 2, argv
        return
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith("error: "), (argv, doc, err)
    elif code == 1:
        assert argv[0] in VERDICTS and err == "", (argv, doc, err)
    else:
        assert code == 0, (argv, doc, code)
