from fractions import Fraction
from itertools import product

import pytest
from hypothesis import strategies as st

from gmachines.automata import MultiheadAutomaton, Transition
from gmachines.graphings import Edge, GraphingRep, Weight
from gmachines.machines import Machine
from gmachines.microcosm import Perm, TransformationDescriptor
from gmachines.space import Box, Interval, MSet
from gmachines.words import DEFAULT_PSI, IN, OUT, SYMBOLS


def seg(lo, hi, **coords):
    cs = {int(k): Interval(Fraction(a), Fraction(b))
          for k, (a, b) in coords.items()}
    return MSet([Box(Interval(Fraction(lo), Fraction(hi)), cs)])


def line_edge(lo, hi, slope, offset, weight=None):
    d = TransformationDescriptor(slope=Fraction(slope), offset=Fraction(offset))
    return Edge(seg(lo, hi), 0, 0, d, weight or Weight())


@pytest.fixture
def seesaw():
    return GraphingRep(seg(0, 2), 1, [
        line_edge(0, 1, 1, 1),
        line_edge(1, 2, 1, -1),
    ])


@pytest.fixture
def seesaw_mirror():
    return GraphingRep(seg(0, 2), 1, [
        line_edge(0, 1, 1, 1),
        line_edge(1, 2, -1, 2),
    ])


@pytest.fixture
def seesaw_halved():
    return GraphingRep(seg(0, 2), 1, [
        line_edge(0, "1/2", 1, 1),
        line_edge("1/2", 1, 1, 1),
        line_edge(1, 2, 1, -1),
    ])


@pytest.fixture
def conveyor():
    support = MSet(seg(0, 1).boxes + seg(1, 2).boxes + seg(2, 3).boxes
                   + seg(3, 4).boxes + seg(4, 5).boxes)
    return GraphingRep(support, 1, [
        line_edge(0, 1, 1, 1),    # a
        line_edge(2, 3, 1, -1),   # b
        line_edge(3, 4, 1, 1),    # c
    ])


@pytest.fixture
def doubler():
    support = MSet(seg(1, 2).boxes + seg(2, 3).boxes + seg(3, 4).boxes)
    return GraphingRep(support, 1, [
        line_edge("3/2", 2, 2, -1),  # d
        line_edge(1, "3/2", 2, 1),   # e
    ])


def _move(psi, src, dst, in_state, out_state, perm=None):
    d = TransformationDescriptor(offset=psi.block(dst) - psi.block(src),
                                 perm=perm or Perm())
    return Edge(psi.mset(src), in_state, out_state, d, Weight())


@pytest.fixture
def winding_machine():
    """Three-head machine whose only loop drifts a coordinate each time
    around, so it never recurs and accepts every word."""
    psi = DEFAULT_PSI
    cyc = Perm({1: 2, 2: 3, 3: 1})
    edges = [
        _move(psi, "r", ("*", OUT), 0, 1, cyc),
        _move(psi, ("1", IN), "r", 1, 0),
        _move(psi, ("0", IN), "a", 1, 0),
    ]
    return Machine(GraphingRep(psi.machine_support(), 2, edges), 3, psi)


@pytest.fixture
def tape_loop_machine():
    """Three-head machine that walks the whole tape on the word 1 and
    comes back with a net coordinate cycle: recurrent, so it rejects
    exactly that word among the short ones."""
    psi = DEFAULT_PSI
    cyc = Perm({1: 2, 2: 3, 3: 1})
    edges = [
        _move(psi, "r", ("*", OUT), 0, 1, cyc),
        _move(psi, ("1", IN), ("1", OUT), 1, 2),
        _move(psi, ("*", IN), "r", 2, 0),
    ]
    return Machine(GraphingRep(psi.machine_support(), 3, edges), 3, psi)


def _wide_source(rng, grid, bound, lo, hi):
    """One to three grid-aligned boxes within blocks [lo, hi), each over
    one or more blocks and over one or more cells on coordinates 1 and 2."""
    boxes = []
    for _ in range(rng.randint(1, 3)):
        a = rng.randrange(lo, hi)
        b = rng.randrange(a + 1, hi + 1)
        coords = {}
        for c in range(1, min(bound, 2) + 1):
            if rng.random() < 0.7:
                i = rng.randrange(grid)
                coords[str(c)] = (Fraction(i, grid),
                                  Fraction(rng.randrange(i + 1, grid + 1), grid))
        boxes.extend(seg(a, b, **coords).boxes)
    return MSet(boxes)


def random_rigid_pair(rng, grid=3, bound=2, blocks=(0, 1, 2), edges_each=4,
                      dialect=2, flag_rate=0.4, wide=False, perms=None):
    """A pair of cell-rigid, measure-preserving graphings on a shared
    support, with grid-aligned sources, block translations, optional
    coordinate swaps and 1/grid shifts, and a sprinkling of flags.  A
    source is one cell wide on at most one coordinate and one block long;
    with wide, it is made by _wide_source over one or two blocks.  Each
    edge's perm is drawn from perms when given, else it is (1 2) or the
    identity."""
    support = MSet([b for blk in blocks for b in seg(blk, blk + 1).boxes])

    def one_graphing():
        out = []
        for _ in range(edges_each):
            span = rng.randint(1, 2) if wide else 1
            src = rng.choice(blocks[:len(blocks) - span + 1])
            dst = rng.choice(blocks[:len(blocks) - span + 1])
            if wide:
                source = _wide_source(rng, grid, bound, src, src + span)
            elif rng.random() < 0.5:
                c = rng.randrange(1, bound + 1)
                j = rng.randrange(grid)
                source = seg(src, src + 1,
                             **{str(c): (Fraction(j, grid), Fraction(j + 1, grid))})
            else:
                source = seg(src, src + 1)
            if perms:
                perm = rng.choice(perms)
            else:
                perm = Perm({1: 2, 2: 1}) if rng.random() < 0.3 else Perm()
            shifts = {}
            if rng.random() < 0.4:
                c = rng.randrange(1, bound + 1)
                shifts[c] = Fraction(rng.randrange(1, grid), grid)
            d = TransformationDescriptor(offset=Fraction(dst - src),
                                         perm=perm, shifts=shifts)
            w = Weight(1, 1 if rng.random() < flag_rate else 0)
            out.append(Edge(source, rng.randrange(dialect),
                            rng.randrange(dialect), d, w))
        return GraphingRep(support, dialect, out)

    return one_graphing(), one_graphing()


def reweighted(h, dilation):
    """h with edge k's dilation set to dilation(k), flags kept."""
    return GraphingRep(h.support, h.dialect_size, [
        Edge(e.source, e.in_state, e.out_state, e.mapd, Weight(dilation(k), e.weight.flag))
        for k, e in enumerate(h.edges)])


def series_shaped_pairs(rng):
    """Bound-0 pairs of the series benchmark's shapes, blocks drawn by rng:
    the one-block loop pair, and pairs with one (cycle) or two (branch)
    block translations leaving each block on each side."""
    half = Weight(Fraction(1, 2), 1)
    pairs = [(GraphingRep(seg(0, 1), 1, [line_edge(0, 1, 1, 0, half)]),
              GraphingRep(seg(0, 1), 1, [line_edge(0, 1, 1, 0, Weight(Fraction(1, 2)))]))]
    for blocks, per in ((3, 1), (4, 1), (3, 2), (4, 2)):
        def one_side():
            return GraphingRep(seg(0, blocks), 1, [
                line_edge(b, b + 1, 1, t - b, Weight(Fraction(1, 32), rng.randrange(2)))
                for b in range(blocks) for t in rng.sample(range(blocks), per)])
        pairs.append((one_side(), one_side()))
    return pairs


def odometer(k, reject_ones=False):
    """A k-head automaton that counts like an odometer whose digits are
    head positions, the marker being 0.  Head 1 sweeps the tape; each time
    head i wraps onto the marker, head i + 1 steps, and the heads below it
    wait on the marker until the carry ends.  When head k wraps, every
    head is on the marker and it accepts, after about (n + 1)^k steps on
    n letters.  With reject_ones, a 1 under head k while the others wait
    on the marker sends head k round to the marker and into reject: every
    position comes under head k at such a moment, so the language is 0*.
    Only the reads that a run can meet get a transition."""
    c = [None] + [f"c{i}" for i in range(1, k + 1)]
    trans = [Transition(("*",) * k, "init", 1, IN, "c1")]
    for read in product(SYMBOLS, repeat=k):
        # c_i runs with the heads below i on the marker
        for i in range(1, k + 1):
            if set(read[:i - 1]) <= {"*"}:
                if reject_ones and i == k and read[i - 1] == "1":
                    trans.append(Transition(read, c[i], k, IN, "rewind"))
                elif read[i - 1] != "*":
                    trans.append(Transition(read, c[i], 1, IN, "c1"))
                elif i < k:
                    trans.append(Transition(read, c[i], i + 1, IN, c[i + 1]))
                else:
                    trans.append(Transition(read, c[i], 1, IN, "accept"))
        if reject_ones and set(read[:-1]) <= {"*"}:
            trans.append(Transition(read, "rewind", k, IN, "rewind") if read[-1] != "*"
                         else Transition(read, "rewind", 1, IN, "reject"))
    return MultiheadAutomaton(k, ["init", *c[1:], "rewind", "accept", "reject"], trans)


@st.composite
def random_automata(draw, compilable=False):
    """A small automaton with the init start and the two halting states:
    1-3 heads, 2-5 working states, In and Out moves, steps into accept and
    reject.  A rule reads one symbol on one head, or anything, and makes
    one or two moves, so runs branch.  Init has one rule, from the marker
    into the working states; each working state has one to three, and one
    working state one more, into reject.  Only a rule that reads a letter
    may reject, so that verdicts depend on the word.  A compilable one
    halts only where every head reads the marker, as the compiler asks:
    its halting moves are kept only there, any rule may reject, and the
    last rule reads the marker on one head.  It has one or two heads,
    since the compiled dialect grows by a factor k! 3^k in k heads."""
    heads = draw(st.integers(1, 2 if compilable else 3))
    work = [f"q{i}" for i in range(draw(st.integers(2, 5)))]
    letter = st.tuples(st.integers(0, heads - 1), st.sampled_from("01"))
    rule = st.one_of(letter, st.just((0, None)))

    def moves(targets):
        return st.lists(st.tuples(st.integers(1, heads), st.sampled_from((IN, OUT)),
                                  st.sampled_from(targets)),
                        min_size=1, max_size=2, unique=True)

    rules = [("init", (0, "*"), draw(moves(work)))]
    for state in work:
        for h, sym in draw(st.lists(rule, min_size=1, max_size=3)):
            halts = ["accept"] + ["reject"] * (sym is not None or compilable)
            rules.append((state, (h, sym), draw(moves(work + halts))))
    rules.append((draw(st.sampled_from(work)),
                  (draw(st.integers(0, heads - 1)), "*") if compilable else draw(letter),
                  draw(moves(["reject"]))))
    star = ("*",) * heads
    trans = {}
    for state, (h, sym), steps in rules:
        for read in product(SYMBOLS, repeat=heads):
            if sym is None or read[h] == sym:
                for head, d, nxt in steps:
                    if not compilable or read == star or nxt not in ("accept", "reject"):
                        trans[Transition(read, state, head, d, nxt)] = None
    return MultiheadAutomaton(heads, ["init"] + work + ["accept", "reject"],
                              list(trans))
