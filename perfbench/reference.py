"""Independent checks of every benchmarked call's output.

Verdicts are checked against the languages themselves (tests/oracles.py),
correspond tables against the oracle's own run counts, and series values
against hand-derived closed forms; run.py also checks that each series pair
measures the same in both orders.  Each check returns how many of the
call's ops failed.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path


def load_oracles(root: Path):
    """tests/oracles.py, imported as-is; it does not import gmachines."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", root / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class Reference:
    def __init__(self, oracles, automaton_docs: dict):
        self.oracles = oracles
        self.docs = automaton_docs
        self.language = {"parity": oracles.even_ones,
                         "zeros-ones": oracles.zeros_then_ones}

    def decide(self, automaton: str, word: str, code, out: str) -> int:
        """One op: the verdict and exit code follow the language."""
        want = self.language[automaton](word)
        ok = code == (0 if want else 1) and out == ("pass\n" if want else "fail\n")
        return 0 if ok else 1

    def table(self, command: str, automaton: str, max_len: int, code,
              out: str) -> int:
        """compare or roundtrip: one op per word, both columns follow the
        language.  A bad exit code or summary line fails every op."""
        words = self.oracles.all_words(max_len)
        lines = out.splitlines()
        if command == "compare":
            head = "word automaton machine agree"
            foot = f"{len(words)} words, 0 disagreements"
        else:
            head = "word original extracted agree"
            foot = f"languages agree on all words up to length {max_len}"
        if (code != 0 or len(lines) != len(words) + 2 or lines[0] != head
                or lines[-1] != foot):
            return len(words)
        failed = 0
        for w, row in zip(words, lines[1:-1]):
            v = "pass" if self.language[automaton](w) else "fail"
            failed += row != f"{w or '(empty)'} {v} {v} yes"
        return failed

    def correspond(self, automaton: str, word: str, steps: int, code,
                   out: str) -> int:
        """One op: every run count matches the oracle's, on both roots."""
        counts = self.oracles.ref_run_counts(self.docs[automaton], word, steps)
        want = "".join(f"n={n}: traces {c}, paths r {c}, paths a {c}\n"
                       for n, c in sorted(counts.items())) + "bijection\n"
        return 0 if code == 0 and out == want else 1

    @staticmethod
    def series(expected: Fraction | None, code, out: str) -> int:
        """One op: a rational value, equal to the hand-derived one if known."""
        if code != 0:
            return 1
        try:
            value = Fraction(out.strip())
        except ValueError:
            return 1
        return 0 if expected is None or value == expected else 1
