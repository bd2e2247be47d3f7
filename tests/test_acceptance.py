"""End-to-end guarantees, one test per shipped claim.

Each test prints a single PASS/FAIL line so the suite output doubles as a
checklist.  The helper raises after printing, so a red line and a red test
always travel together.
"""

from fractions import Fraction
import random

from gmachines.automata import (co_accepts, language_a, parity_automaton,
                                zeros_ones_automaton)
from gmachines.encodings import (automaton_to_machine, machine_to_automaton,
                                 trace_path_correspondence)
from gmachines.execution import cell_decompose, plug
from gmachines.graphings import (Edge, GraphingRep, equivalent, refines,
                                 rename_dialect, tensor_graphings, validate)
from gmachines.machines import Machine, accepts, compute, essentialize
from gmachines.measurement import (INF, decide_against_test,
                                   measure_graphings, t_minus)
from gmachines.space import Box, Interval, MSet
from gmachines.words import ALT_PSI, DEFAULT_PSI, representation
from gmachines.microcosm import TransformationDescriptor

from conftest import line_edge, random_rigid_pair, seg
from oracles import all_words, brute_plug

CAPS = {"parity": 10 ** 7, "zeros-ones": 4 * 10 ** 7, "hand": 10 ** 6}


def _report(n, desc, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {n:2d} [{'PASS' if ok else 'FAIL'}] {desc}{tail}")
    assert ok, f"criterion {n} failed: {detail}"


def _suite():
    """The machine/word instances every global check runs over."""
    import conftest

    out = []
    for name, a in (("parity", parity_automaton()),
                    ("zeros-ones", zeros_ones_automaton())):
        m = automaton_to_machine(a)
        for w in all_words(5):
            out.append((name, m, w))
    m3 = conftest.winding_machine.__wrapped__()
    m5 = conftest.tape_loop_machine.__wrapped__()
    edgeless = Machine(GraphingRep(DEFAULT_PSI.machine_support(), 1, []), 1)
    for name, m, lim in (("winding", m3, 4), ("tape-loop", m5, 4),
                         ("edgeless", edgeless, 3)):
        for w in all_words(lim):
            out.append((name, m, w))
    return out


def test_criterion_01_machine_verdicts_match_automata():
    bad = []
    checked = 0
    for a in (parity_automaton(), zeros_ones_automaton()):
        m = automaton_to_machine(a)
        for w in all_words(6):
            checked += 1
            if accepts(m, w) != co_accepts(a, w):
                bad.append(w)
    _report(1, "machine route agrees with direct co-acceptance",
            not bad and checked == 254, f"{checked} word runs, {len(bad)} off")


def test_criterion_02_traces_biject_with_paths():
    bad = []
    for a in (parity_automaton(), zeros_ones_automaton()):
        for w in all_words(4):
            rep = trace_path_correspondence(a, w, 12)
            if not rep["match"] or rep["mismatches"]:
                bad.append((w, rep["mismatches"]))
    _report(2, "run prefixes map bijectively onto alternating paths",
            not bad, f"62 word tables, {len(bad)} broken")


def test_criterion_03_measurement_agrees_with_cycle_search():
    tf = t_minus()
    bad = []
    count = 0
    for name, m, w in _suite():
        count += 1
        via_project = decide_against_test(compute(m, w)) == "pass"
        rhs = tensor_graphings(representation(w), tf.graphing)
        cap = CAPS.get(name, CAPS["hand"])
        direct = measure_graphings(m.graphing, rhs, cap=cap)
        if via_project != (direct == 0):
            bad.append((name, w))
    _report(3, "plugged measurement equals direct circuit search",
            not bad and count >= 200, f"{count} instances, {len(bad)} split")


def test_criterion_04_computed_maps_are_cell_translations():
    bad = []
    edges_seen = 0
    for name, m, w in _suite():
        encoded = name in ("parity", "zeros-ones")
        for _, g in compute(m, w).terms:
            if validate(g, f"mbar({m.head_bound})"):
                bad.append((name, w, "family"))
                continue
            try:
                cell_decompose([g])
            except Exception:
                bad.append((name, w, "cells"))
                continue
            for e in g.edges:
                edges_seen += 1
                literal = (e.mapd.slope == 1 and e.mapd.perm.is_identity()
                           and not e.mapd.shifts)
                if encoded and not literal:
                    bad.append((name, w, "map"))
    _report(4, "every computed composite acts by cell translations",
            not bad, f"{edges_seen} edges across the suite, {len(bad)} off")


def test_criterion_05_verdicts_survive_renaming():
    rng = random.Random(501)
    bad = []
    autos = [("parity", parity_automaton()), ("zeros-ones",
                                              zeros_ones_automaton())]
    for name, a in autos:
        m = automaton_to_machine(a)
        base = {w: accepts(m, w) for w in all_words(4)}
        n = m.graphing.dialect_size
        for _ in range(5):
            img = rng.sample(range(n + 3), n)
            g2 = rename_dialect(m.graphing, dict(enumerate(img)),
                                new_size=n + 3)
            m2 = Machine(g2, m.head_bound)
            for w, want in base.items():
                if accepts(m2, w) != want:
                    bad.append((name, "rename", w))
        alt = automaton_to_machine(a, ALT_PSI)
        for w, want in base.items():
            if accepts(alt, w) != want:
                bad.append((name, "psi", w))
    _report(5, "verdicts ignore dialect names and the vertex table",
            not bad, f"5 renamings + 2 tables per automaton, {len(bad)} off")


def test_criterion_06_essential_form_keeps_the_language():
    bad = []
    for a in (parity_automaton(), zeros_ones_automaton()):
        m = automaton_to_machine(a)
        e = essentialize(m)
        for w in all_words(5):
            if accepts(e, w) != co_accepts(a, w):
                bad.append(w)
    _report(6, "essentialize leaves the accepted language alone",
            not bad, f"126 word runs, {len(bad)} off")


def test_criterion_07_extraction_inverts_encoding():
    rows = []
    failures = []
    for a in (parity_automaton(), zeros_ones_automaton()):
        exact = machine_to_automaton(essentialize(automaton_to_machine(a)))
        verbatim = machine_to_automaton(
            essentialize(automaton_to_machine(a)), mode="verbatim")
        for w in all_words(5):
            want = co_accepts(a, w)
            try:
                pre = co_accepts(exact, w)
                ver = co_accepts(verbatim, w)
            except Exception as exc:
                failures.append((w, repr(exc)))
                continue
            rows.append((w, want, pre, ver))
            if pre != want or ver != want:
                failures.append((w, (want, pre, ver)))
    _report(7, "decoding a compiled machine returns the original language",
            not failures and len(rows) == 126,
            f"{len(rows)} words reported, {len(failures)} failures")


def test_criterion_08_worked_equivalences(seesaw, seesaw_mirror, seesaw_halved):
    split = []
    for e in seesaw.edges:
        (box,) = e.source.boxes
        mid = (box.line.lo + box.line.hi) / 2
        for piece in (Interval(box.line.lo, mid), Interval(mid, box.line.hi)):
            split.append(Edge(MSet([Box(piece, dict(box.coords))]),
                              e.in_state, e.out_state, e.mapd, e.weight))
    halved = GraphingRep(seesaw.support, seesaw.dialect_size, split)
    ok = (equivalent(seesaw, seesaw_halved) and equivalent(seesaw_halved, seesaw)
          and not equivalent(seesaw, seesaw_mirror)
          and not equivalent(seesaw_mirror, seesaw_halved)
          and refines(seesaw_halved, seesaw) and not refines(seesaw, seesaw_halved)
          and refines(halved, seesaw) and equivalent(halved, seesaw))
    _report(8, "textbook pair/triple classified correctly", ok)


def test_criterion_09_composition_matches_brute_force(conveyor, doubler):
    fs = [("a", (0, 1, 1, 1)), ("b", (2, 3, 1, -1)), ("c", (3, 4, 1, 1))]
    gs = [("d", (Fraction(3, 2), 2, 2, -1)), ("e", (1, Fraction(3, 2), 2, 1))]
    want = sorted((lo, hi, s, o)
                  for _, lo, hi, s, o in brute_plug(fs, gs, (1, 4), 7))
    out = plug(conveyor, doubler, seg(1, 4), max_len=7, allow_truncation=True)
    got = sorted((b.line.lo, b.line.hi, Fraction(e.mapd.slope), e.mapd.offset)
                 for e in out.edges for b in e.source.boxes)
    shortest = got[:3] == [
        (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(4)),
        (Fraction(1, 2), Fraction(3, 4), Fraction(4), Fraction(2)),
        (Fraction(3, 4), Fraction(7, 8), Fraction(8), Fraction(-2))]
    _report(9, "worked composition reproduces the brute-force table",
            got == want and shortest,
            f"{len(got)} edges, oracle {len(want)}")


def test_criterion_10_measurement_algebra():
    rng = random.Random(1001)
    bad = []
    seen = set()
    trials = 110
    for i in range(trials):
        f, g = random_rigid_pair(rng)
        base = measure_graphings(f, g)
        seen.add("INF" if base is INF else str(base))
        if base is not INF and base != 0:
            bad.append((i, "value"))
        if measure_graphings(g, f) != base:
            bad.append((i, "symmetry"))
        split = []
        for e in f.edges:
            for b in e.source.boxes:
                iv = b.coord(1) or Interval(Fraction(0), Fraction(1))
                mid = (iv.lo + iv.hi) / 2
                for piece in (Interval(iv.lo, mid), Interval(mid, iv.hi)):
                    cs = dict(b.coords)
                    cs[1] = piece
                    split.append(Edge(MSet([Box(b.line, cs)]), e.in_state,
                                      e.out_state, e.mapd, e.weight))
        if measure_graphings(GraphingRep(f.support, f.dialect_size, split),
                             g) != base:
            bad.append((i, "refinement"))
        renamed = rename_dialect(f, {0: 4, 1: 2}, new_size=5)
        if measure_graphings(renamed, g) != base:
            bad.append((i, "renaming"))
        edges = list(f.edges)
        rng.shuffle(edges)
        shuffled = GraphingRep(f.support, f.dialect_size, edges)
        if measure_graphings(shuffled, g) != base:
            bad.append((i, "representative"))
    _report(10, "measurement is symmetric and presentation-independent",
            not bad and seen == {"0", "INF"},
            f"{trials} instances, outcomes {sorted(seen)}, {len(bad)} off")
