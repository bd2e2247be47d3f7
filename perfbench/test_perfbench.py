"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import sys
from fractions import Fraction

import pytest

import gen
import reference
import run
import tracing

ORACLES = reference.load_oracles(run.ROOT)
DOCS = {"parity": {"heads": 1}, "zeros-ones": {"heads": 2}}


def test_generators_repeat_for_a_seed():
    assert gen.decide_calls(5) == gen.decide_calls(5)
    assert gen.correspond_words(5) == gen.correspond_words(5)
    assert gen.series_instances(5) == gen.series_instances(5)
    assert gen.decide_calls(5) != gen.decide_calls(6)
    assert gen.series_instances(5) != gen.series_instances(6)
    # the seed renumbers blocks but keeps the work: same hand-derived values
    assert [i[3] for i in gen.series_instances(5)] == \
        [i[3] for i in gen.series_instances(6)]


def test_decide_words_split_between_the_languages():
    calls = gen.decide_calls(3)
    lang = {"parity": ORACLES.even_ones, "zeros-ones": ORACLES.zeros_then_ones}
    parity = [w for a, w in calls if a == "parity"]
    zeros_ones = [w for a, w in calls if a == "zeros-ones"]
    assert sorted(map(len, parity)) == sorted(gen.PARITY_LENGTHS)
    assert sum(map(lang["parity"], parity)) == len(parity) // 2
    assert sorted((len(w), lang["zeros-ones"](w)) for w in zeros_ones) == \
        sorted(gen.ZEROS_ONES_WORDS)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("a", 0.0, 10.0, 1, 0, 1, 0),
        ("b", 1.0, 4.0, 2, 1, 1, 0),
        ("c", 3.0, 6.0, 3, 1, 1, 0),   # overlaps b: together they cover 5
        ("d", 2.0, 3.0, 4, 2, 1, 0),   # grandchild: only b loses it
        ("b", 7.0, 8.0, 5, 1, 1, 0),
        ("w", 2.0, 9.0, 6, 0, 1, 1),   # another thread's root
    ]
    got = tracing.self_times(spans)
    assert got["a"] == pytest.approx((10 - 6, 1))
    assert got["b"] == pytest.approx((2 + 1, 2))
    assert got["c"] == pytest.approx((3, 1))
    assert got["d"] == pytest.approx((1, 1))
    assert got["w"] == pytest.approx((7, 1))


def test_reference_flags_a_flipped_verdict():
    ref = reference.Reference(ORACLES, DOCS)
    assert ref.decide("parity", "0110", 0, "pass\n") == 0
    assert ref.decide("parity", "0110", 1, "fail\n") == 1
    assert ref.decide("zeros-ones", "0101", 1, "fail\n") == 0
    assert ref.decide("zeros-ones", "0101", 0, "pass\n") == 1


def test_reference_flags_a_wrong_table_row():
    ref = reference.Reference(ORACLES, DOCS)
    rows = ["word automaton machine agree", "(empty) pass pass yes",
            "0 pass pass yes", "1 fail fail yes", "3 words, 0 disagreements"]
    assert ref.table("compare", "parity", 1, 0, "\n".join(rows) + "\n") == 0
    rows[3] = "1 pass pass yes"
    assert ref.table("compare", "parity", 1, 0, "\n".join(rows) + "\n") == 1
    assert ref.table("compare", "parity", 1, 2, "") == 3


def test_reference_flags_a_wrong_series_value():
    assert reference.Reference.series(Fraction(1, 3), 0, "1/3\n") == 0
    assert reference.Reference.series(Fraction(1, 3), 0, "1/4\n") == 1
    assert reference.Reference.series(None, 0, "INF\n") == 1
    assert reference.Reference.series(None, 2, "") == 1


class _FakeCli:
    """Prints a fixed answer per argv, the way cli.main would."""

    def __init__(self, answers):
        self.answers = answers

    def main(self, argv):
        code, out = self.answers[tuple(argv)]
        sys.stdout.write(out)
        return code


def test_check_pass_flags_mirrored_pairs_that_differ():
    calls = [run.Call("loop", ["f", "g"], 1, "series", (None,), mirror="p"),
             run.Call("loop", ["g", "f"], 1, "series", (None,), mirror="p")]
    cli = _FakeCli({("f", "g"): (0, "1/3\n"), ("g", "f"): (0, "1/5\n")})
    tally = run.Tally()
    base = run.check_pass(cli, calls, reference.Reference(ORACLES, DOCS), tally)
    assert base == [(0, "1/3\n"), (0, "1/5\n")]
    assert (tally.attempted, tally.failed) == (2, 2)


def test_tail_percentile_is_fixed_by_the_round():
    n, rounds = 17, 4
    times = [float(i) for i in range(rounds * n)]
    pct, value = run.tail(times, n, rounds)
    assert sum(t > value for t in times) == run.TAIL_BEYOND
    # another round keeps the percentile, not the count beyond it
    more = [float(i) for i in range((rounds + 1) * n)]
    assert run.tail(more, n, rounds)[0] == pct


def test_tracing_changes_no_output_and_unwinds():
    sys.path.insert(0, str(run.ROOT / "src"))
    modules = run.fresh_import()
    argv = ["decide", "parity", "0110"]
    before = run.invoke(modules["cli"], argv)[:3]
    original = modules["machines"].accepts
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        traced = run.invoke(modules["cli"], argv)[:3]
    finally:
        tracer.uninstall()
    assert traced == before
    assert modules["machines"].accepts is original
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "machines.accepts", "execution.plug",
            "measurement.measure_graphings.exact"} <= names
    assert tracer.counts["encodings.automaton_to_machine.edges_out"] > 0
