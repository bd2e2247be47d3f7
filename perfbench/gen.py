"""Seeded inputs for the benchmark workloads.

Everything here is plain Python and JSON: nothing imports gmachines, so the
inputs, and the hand-derived values that come with the series instances,
do not depend on the code under measurement.  The same seed always gives
the same inputs.

Each workload is a fixed list of *shapes* (word length and kind, command
and size, graphing family and size).  The seed fills in the content of
each shape: which bits a word has, how a graphing's blocks are numbered.
A shape's cost barely moves with the content, so runs on different seeds
measure the same amount of work.
"""

from __future__ import annotations

import random
from fractions import Fraction

# decide-long: one fresh machine per call, as the CLI builds it.  Parity is
# one head, so its words can be long; zeros-ones is two heads and its exact
# search grows steeply with length, so it stops at 24 letters.  A call's
# cost follows its automaton and length, not its content: a parity word's
# bits and a near-miss's flip barely move it, so runs on different seeds
# measure the same work.  The parity calls and the two 8-letter calls fill
# the lower half of a round with close costs (about 0.03 to 0.4 s), where
# the median reads; the three 12-letter calls sit third to fifth from the
# top, where the tail reads (run.py).
PARITY_LENGTHS = tuple(range(32, 257, 32))
# (length, in the language) of each zeros-ones call: members 0^n 1^n and
# seeded near-misses.
ZEROS_ONES_WORDS = ((8, True), (8, False), (12, True), (12, False),
                    (12, False), (16, False), (24, True))

# sweep: every word up to max_len, one machine shared by all of them.  The
# tables are chosen so that costs spread evenly from about 0.1 to 0.65 s:
# the median reads `compare parity --max-len 4`, between the correspond
# calls and the larger tables, and the tail reads inside the four costliest
# tables.  Only the correspond words depend on the seed.
SWEEP_CALLS = (
    ("compare", "parity", None, 4),
    ("compare", "parity", None, 5),
    ("compare", "zeros-ones", None, 3),
    ("roundtrip", "parity", "preamble", 9),
    ("roundtrip", "parity", "preamble", 10),
    ("roundtrip", "parity", "verbatim", 9),
    ("roundtrip", "parity", "verbatim", 10),
    ("roundtrip", "zeros-ones", "preamble", 8),
    ("roundtrip", "zeros-ones", "verbatim", 9),
    ("roundtrip", "zeros-ones", "verbatim", 10),
)
CORRESPOND_WORDS = 5
CORRESPOND_LENGTHS = (3, 6)
CORRESPOND_STEPS = 16

# measure-series, cycle family: one edge per block per side, so the
# alternating walk is a permutation and every circuit is a cycle of it.
# Cost comes from the length escalation, which depends on the dilation;
# an instance at 9/10 takes over a minute, so dilations stay at 3/4 or
# below.  The one-block loop pair (loop_pair) adds dilation 1/2.
CYCLE_SHAPES = ((3, Fraction(2, 3)), (3, Fraction(3, 4)))
# measure-series, branch family: two edges per block per side, so the
# number of label sequences doubles per step.  Dilation 1/32 keeps the
# row norm at 1/16 and the escalation short; an instance at 1/8 can run
# for more than ten minutes.
BRANCH_SHAPES = (
    (3, Fraction(1, 32)), (3, Fraction(1, 64)), (4, Fraction(1, 64)),
)
# Sizes: one round of each workload takes 3 to 6 s on a 2-core x86 host,
# so a run of 30 s times five to eight rounds.


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


# -- words ------------------------------------------------------------------

def parity_word(rng: random.Random, length: int, even: bool) -> str:
    bits = [rng.choice("01") for _ in range(length - 1)]
    ones = bits.count("1") + (0 if even else 1)
    return "".join(bits) + ("0" if ones % 2 == 0 else "1")


def zeros_ones_near_miss(rng: random.Random, length: int) -> str:
    """0^n 1^n of the given even length with one of its last n/2 letters
    flipped.  Deciding a near-miss tends to cost more the later its flip
    sits, so the flip stays in the last quarter, where the cost is nearly
    flat, and a run's work barely depends on the seed."""
    n = length // 2
    i = length - 1 - rng.randrange(max(1, n // 2))
    member = "0" * n + "1" * n
    return member[:i] + "0" + member[i + 1:]


def decide_calls(seed: int) -> list[tuple[str, str]]:
    """(automaton, word) for one decide-long round.  Parity words alternate
    between even and odd from a seeded start; zeros-ones words follow
    ZEROS_ONES_WORDS."""
    rng = _rng(seed, "decide")
    first = rng.randrange(2)
    out = []
    for i, length in enumerate(PARITY_LENGTHS):
        out.append(("parity", parity_word(rng, length, (i + first) % 2 == 0)))
    for length, member in ZEROS_ONES_WORDS:
        n = length // 2
        out.append(("zeros-ones", "0" * n + "1" * n if member
                    else zeros_ones_near_miss(rng, length)))
    rng.shuffle(out)
    return out


def correspond_words(seed: int) -> list[tuple[str, str]]:
    """(automaton, word) for the correspond calls of one sweep round."""
    rng = _rng(seed, "correspond")
    out = []
    for i in range(CORRESPOND_WORDS):
        automaton = ("parity", "zeros-ones")[i % 2]
        length = rng.randint(*CORRESPOND_LENGTHS)
        out.append((automaton, "".join(rng.choice("01") for _ in range(length))))
    return out


# -- graphing pairs ---------------------------------------------------------
#
# Blocks are the unit intervals [i, i+1) with no cube coordinate pinned, so
# every cell is a whole block and every closed orbit has period 1 and
# measure 1.

def _box(i: int) -> dict:
    return {"line": [str(i), str(i + 1)]}


def _edge(src: int, dst: int, a: Fraction, flag: int) -> dict:
    return {"source": [_box(src)], "in": 0, "out": 0,
            "map": {"slope": "1", "offset": str(dst - src)},
            "weight": {"a": f"{a.numerator}/{a.denominator}", "flag": flag}}


def _graphing(blocks: int, edges: list[dict]) -> dict:
    return {"support": [_box(i) for i in range(blocks)], "dialect": 0,
            "edges": edges}


def _relabel(rng: random.Random, blocks: int) -> list[int]:
    perm = list(range(blocks))
    rng.shuffle(perm)
    return perm


def cycle_pair(shape_index: int, seed: int):
    """A cycle-family pair and its hand-derived series value.

    The block permutations and flags are fixed by the shape, since which
    cycles are flagged moves the cost; the seed relabels the blocks, which
    gives an isomorphic pair of the same cost.  With f sending block i to s(i) and g
    sending block j to t(j), the primitive circuits are the cycles of t∘s.
    Every edge has dilation d, so a cycle through c blocks weighs
    y = d^(2c), and its closed orbit of period 1 and measure 1 sums to
    y + y^2 + ... = y / (1 - y) when one of its 2c edges is flagged.
    """
    blocks, d = CYCLE_SHAPES[shape_index]
    structure = _rng(shape_index, "cycle-structure")
    s = _relabel(structure, blocks)
    t = _relabel(structure, blocks)
    base_f_flags = [structure.randrange(2) for _ in range(blocks)]
    base_g_flags = [structure.randrange(2) for _ in range(blocks)]
    rng = _rng(seed, f"cycle-{shape_index}")
    pi = _relabel(rng, blocks)
    inv = [0] * blocks
    for i, p in enumerate(pi):
        inv[p] = i
    # conjugate by the relabeling: block pi(i) plays the part of block i
    s = [pi[s[inv[b]]] for b in range(blocks)]
    t = [pi[t[inv[b]]] for b in range(blocks)]
    f_flags = [base_f_flags[inv[b]] for b in range(blocks)]
    g_flags = [base_g_flags[inv[b]] for b in range(blocks)]
    f = _graphing(blocks, [_edge(b, s[b], d, f_flags[b]) for b in range(blocks)])
    g = _graphing(blocks, [_edge(b, t[b], d, g_flags[b]) for b in range(blocks)])
    value = Fraction(0)
    seen = set()
    for start in range(blocks):
        if start in seen:
            continue
        length, flagged, b = 0, False, start
        while b not in seen:
            seen.add(b)
            flagged = flagged or bool(f_flags[b]) or bool(g_flags[s[b]])
            length += 1
            b = t[s[b]]
        if flagged:
            y = d ** (2 * length)
            value += y / (1 - y)
    return f, g, value


def branch_pair(shape_index: int, seed: int):
    """A branch-family pair: every block has two edges per side, to two
    different blocks fixed by the shape, and flags fixed by it too.  The
    seed relabels the blocks."""
    blocks, d = BRANCH_SHAPES[shape_index]
    structure = _rng(shape_index, "branch-structure")
    targets = [[structure.sample(range(blocks), 2) for _ in range(blocks)]
               for _side in range(2)]
    flags = [[[structure.randrange(2) for _ in range(2)] for _ in range(blocks)]
             for _side in range(2)]
    rng = _rng(seed, f"branch-{shape_index}")
    pi = _relabel(rng, blocks)
    sides = []
    for side in range(2):
        edges = [_edge(pi[b], pi[dst], d, flag)
                 for b in range(blocks)
                 for dst, flag in zip(targets[side][b], flags[side][b])]
        sides.append(_graphing(blocks, edges))
    return sides[0], sides[1]


def loop_pair():
    """One block, one loop per side, dilation 1/2 on both and the flag on
    f only.  The single circuit weighs 1/4, so the series is
    1/4 + 1/16 + ... = 1/3."""
    half = Fraction(1, 2)
    return (_graphing(1, [_edge(0, 0, half, 1)]),
            _graphing(1, [_edge(0, 0, half, 0)]), Fraction(1, 3))


def series_instances(seed: int) -> list[tuple[str, dict, dict, Fraction | None]]:
    """(name, f, g, hand-derived value or None) for one measure-series round."""
    out = [("loop", *loop_pair())]
    for i in range(len(CYCLE_SHAPES)):
        f, g, value = cycle_pair(i, seed)
        out.append((f"cycle{i}", f, g, value))
    for i in range(len(BRANCH_SHAPES)):
        f, g = branch_pair(i, seed)
        out.append((f"branch{i}", f, g, None))
    return out
