"""Command line front end.

Exit codes: 0 for a positive verdict or successful output, 1 for a negative
verdict, 2 for bad input, a computation that could not be carried out, or a
failed internal check.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import automata, encodings, machines, measurement
from .errors import GMError
from .execution import alternating_paths, plug
from .graphings import GraphingRep
from .machines import Machine
from .space import MSet, rat, rat_str
from .words import ALT_PSI, DEFAULT_PSI, _words_upto

BUILTIN = {
    "parity": automata.parity_automaton,
    "zeros-ones": automata.zeros_ones_automaton,
}

PSIS = {"default": DEFAULT_PSI, "shifted": ALT_PSI}


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _load_automaton(spec: str) -> automata.MultiheadAutomaton:
    if spec in BUILTIN:
        return BUILTIN[spec]()
    return automata.MultiheadAutomaton.from_json(_read_json(spec))


def _load_machine(spec: str, psi) -> Machine:
    if spec in BUILTIN:
        return encodings.automaton_to_machine(BUILTIN[spec](), psi)
    return Machine.from_json(_read_json(spec), psi)


def _load_graphing(spec: str) -> GraphingRep:
    return GraphingRep.from_json(_read_json(spec))


def _load_cut(spec: str) -> MSet:
    if spec.startswith("@"):
        return MSet.from_json(_read_json(spec[1:]))
    return MSet.from_json(json.loads(spec))


def _value_str(v) -> str:
    if v is measurement.INF:
        return "INF"
    return rat_str(rat(v))


def _emit(data, path: str | None = None) -> int:
    if path and path != "-":
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(data, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def _count(text: str) -> int:
    """A length or step count: an integer of at least 0."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 0, got {text!r}")
    return n


def cmd_decide(args) -> int:
    machine = args.machine or args.machine_pos
    word = args.word if args.word is not None else args.word_pos
    if machine is None or word is None:
        print("error: decide needs a machine and a word", file=sys.stderr)
        return 2
    m = _load_machine(machine, PSIS[args.psi])
    verdict = machines.accepts(m, word)
    if args.json:
        _emit({"word": word, "verdict": "pass" if verdict else "fail"})
    else:
        print("pass" if verdict else "fail")
    return 0 if verdict else 1


def cmd_encode(args) -> int:
    a = _load_automaton(args.automaton)
    m = encodings.automaton_to_machine(a, PSIS[args.psi])
    return _emit(m.to_json(), args.output)


def cmd_extract(args) -> int:
    m = _load_machine(args.machine, PSIS[args.psi])
    a = encodings.machine_to_automaton(m, args.mode)
    return _emit(a.to_json(), args.output)


def _agreement(header: str, rows) -> int:
    """Print header, then one row per (word, verdict, verdict) with whether
    the two agree; the number of disagreements."""
    bad = 0
    print(header)
    for w, av, bv in rows:
        ok = av == bv
        bad += not ok
        print(f"{w or '(empty)'} {'pass' if av else 'fail'} "
              f"{'pass' if bv else 'fail'} {'yes' if ok else 'NO'}")
    return bad


def cmd_compare(args) -> int:
    a = _load_automaton(args.automaton)
    m = encodings.automaton_to_machine(a, PSIS[args.psi])

    rows = [(w, automata.co_accepts(a, w), machines.accepts(m, w))
            for w in _words_upto(args.max_len)]
    bad = _agreement("word automaton machine agree", rows)
    print(f"{len(rows)} words, {bad} disagreements")
    return 1 if bad else 0


def cmd_roundtrip(args) -> int:
    a = _load_automaton(args.automaton)
    m = machines.essentialize(encodings.automaton_to_machine(a, PSIS[args.psi]))
    b = encodings.machine_to_automaton(m, args.mode)

    rows = [(w, automata.co_accepts(a, w), automata.co_accepts(b, w))
            for w in _words_upto(args.max_len)]
    bad = _agreement("word original extracted agree", rows)
    if bad:
        print(f"language mismatch on {bad} of {len(rows)} words")
        return 1
    print(f"languages agree on all words up to length {args.max_len}")
    return 0


def cmd_essentialize(args) -> int:
    m = _load_machine(args.machine, PSIS[args.psi])
    return _emit(machines.essentialize(m).to_json(), args.output)


def cmd_paths(args) -> int:
    f = _load_graphing(args.left)
    g = _load_graphing(args.right)
    found = alternating_paths(f, g, max_len=args.max_len)
    by_len: dict[int, int] = {}
    for p in found:
        by_len[p.length] = by_len.get(p.length, 0) + 1
    for n in sorted(by_len):
        print(f"length {n}: {by_len[n]}")
    print(f"total {len(found)}")
    return 0


def cmd_exec(args) -> int:
    f = _load_graphing(args.left)
    g = _load_graphing(args.right)
    cut = _load_cut(args.cut)
    result = plug(f, g, cut, max_len=args.max_len)
    return _emit(result.to_json())


def cmd_measure(args) -> int:
    f = _load_graphing(args.left)
    g = _load_graphing(args.right)
    tol = rat(args.tol) if args.tol else measurement.DEFAULT_TOL
    value = measurement.measure_graphings(f, g, mode=args.mode, tol=tol)
    print(_value_str(value))
    return 0


def cmd_correspond(args) -> int:
    a = _load_automaton(args.automaton)
    report = encodings.trace_path_correspondence(a, args.word, args.max_steps,
                                                 PSIS[args.psi])
    seen = sorted(set(report["traces"]) | set(report["paths_r"])
                  | set(report["paths_a"]))
    for n in seen:
        print(f"n={n}: traces {report['traces'].get(n, 0)}, "
              f"paths r {report['paths_r'].get(n, 0)}, "
              f"paths a {report['paths_a'].get(n, 0)}")
    for line in report["mismatches"]:
        print(f"mismatch: {line}")
    print("bijection" if report["match"] else "mismatch")
    return 0 if report["match"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; `main` looks each handler up by name."""
    top = argparse.ArgumentParser(prog="gmachines")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--psi", choices=sorted(PSIS), default="default",
                       help="vertex block layout")

    p = sub.add_parser("decide", help="run a machine on a word")
    p.add_argument("machine_pos", nargs="?", metavar="machine",
                   help="machine JSON file, builtin name, or -")
    p.add_argument("word_pos", nargs="?", metavar="word")
    p.add_argument("--machine", help="machine JSON file, builtin name, or -")
    p.add_argument("--word")
    p.add_argument("--json", action="store_true", help="JSON verdict")
    common(p)
    p.set_defaults(fn="cmd_decide")

    p = sub.add_parser("encode-automaton", help="compile an automaton")
    p.add_argument("automaton", help="automaton JSON file or builtin name")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    common(p)
    p.set_defaults(fn="cmd_encode")

    p = sub.add_parser("extract-automaton", help="read an automaton off a machine")
    p.add_argument("machine")
    p.add_argument("--mode", choices=("preamble", "verbatim"), default="preamble")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    common(p)
    p.set_defaults(fn="cmd_extract")

    p = sub.add_parser("compare", help="automaton verdicts against its machine")
    p.add_argument("automaton")
    p.add_argument("--max-len", type=_count, default=4)
    common(p)
    p.set_defaults(fn="cmd_compare")

    p = sub.add_parser("roundtrip", help="compare a compiled machine's extraction")
    p.add_argument("automaton")
    p.add_argument("--mode", choices=("preamble", "verbatim"), default="preamble")
    p.add_argument("--max-len", type=_count, default=4)
    common(p)
    p.set_defaults(fn="cmd_roundtrip")

    p = sub.add_parser("essentialize", help="rewrite a machine onto star swaps")
    p.add_argument("machine")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    common(p)
    p.set_defaults(fn="cmd_essentialize")

    p = sub.add_parser("paths", help="count alternating paths of two graphings")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-len", type=_count, default=8)
    p.set_defaults(fn="cmd_paths")

    p = sub.add_parser("exec", help="compose two graphings along a cut")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--cut", required=True,
                   help="cut as inline JSON or @file")
    p.add_argument("--max-len", type=_count, default=None)
    p.set_defaults(fn="cmd_exec")

    p = sub.add_parser("measure", help="pair two graphings")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=("exact", "series"), default="exact")
    p.add_argument("--tol", default=None, help="series tolerance, e.g. 1/1024")
    p.set_defaults(fn="cmd_measure")

    p = sub.add_parser("correspond", help="runs of an automaton against paths")
    p.add_argument("automaton")
    p.add_argument("--word", required=True)
    p.add_argument("--max-steps", type=_count, default=12)
    common(p)
    p.set_defaults(fn="cmd_correspond")

    return top


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # an exact value prints in full, past Python's default of 4,300
        # digits for int-to-string conversion
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.fn](args)
    except (GMError, ValueError, OSError, AssertionError, RecursionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
