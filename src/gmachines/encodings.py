"""Translations between multihead automata and machines.

The forward direction compiles every automaton transition into a family of
graphing edges, one per way the tape situation around it could look: a
guessed previous symbol for the head that owns coordinate 1, the direction
label of the block the run is standing on, and an arrangement of heads into
cube coordinates.  Wrong guesses either fail to chain in the dialect or get
killed by the word geometry, so the surviving alternating paths are exactly
the runs of the automaton.

The backward direction reads an essential machine off its blocks and emits
an automaton that hunts for a closed chain of answer-to-answer excursions:
it guesses the dialect state the chain will revisit, simulates edges while
tracking which head sits in which coordinate, and rejects when the chain
comes back around.  One loop emits every excursion step: an edge between
interface blocks, or a landing at the reject block with a departure from
a state its state reaches over silent answer-to-answer edges (a plain
reachability pass; a silent cycle rejects every word).  In "preamble"
mode the automaton may first walk its heads anywhere before anchoring;
"verbatim" mode anchors at the start position only.
"""

from __future__ import annotations

import functools
from itertools import permutations, product
from math import factorial

from .automata import (HALTING, IN, MARKER, MultiheadAutomaton, OUT,
                       Transition, successors)
from .errors import MalformedHalt, NotEssential
from .execution import FREE, cell_decompose, walk_counts
from .graphings import Edge, GraphingRep, ONE
from .machines import Machine, _is_star
from .microcosm import Perm, TransformationDescriptor
from .words import DEFAULT_PSI, SYMBOLS, VertexTable, representation

__all__ = [
    "automaton_to_machine",
    "family_counts",
    "machine_to_automaton",
    "trace_path_correspondence",
]


def _flip(d: str) -> str:
    return IN if d == OUT else OUT


def _bump(sig: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Left-compose a head arrangement with the (1 j) coordinate swap."""
    return tuple(1 if c == j else (j if c == 1 else c) for c in sig)


# ---------------------------------------------------------------------------
# automaton -> machine


def _compile(a: MultiheadAutomaton,
             psi: VertexTable) -> tuple[Machine, list[Transition], int]:
    """The machine, for every emitted edge the transition behind it, and
    the dialect tag of the start state."""
    k = a.heads
    star = (MARKER,) * k
    for t in a.transitions:
        if t.next == a.start:
            raise ValueError(f"transition {t} re-enters the start state")
        if t.next in HALTING and t.read != star:
            raise MalformedHalt(f"halting transition {t} reads {t.read!r}")

    working = [q for q in a.states if q not in HALTING]
    sigmas = [tuple(p) for p in permutations(range(1, k + 1))]
    id_sigma = tuple(range(1, k + 1))
    mems = [tuple(c) for c in product(SYMBOLS, repeat=k)]
    index = {}
    for q in working:
        for sig in sigmas:
            for mem in mems:
                index[(q, sig, mem)] = len(index)
    init_tag = index[(a.start, id_sigma, star)]

    edges = []
    prov = []
    # each distinct map, (block offset, coordinate swapped with 1), is built
    # once and shared by the edges that use it
    maps: dict[tuple[int, int], TransformationDescriptor] = {}
    for t in a.transitions:
        i = t.head
        halting = t.next in HALTING
        if t.state == a.start:
            if t.read != star:
                continue
            fams = [("a", id_sigma, star), ("r", id_sigma, star)]
        else:
            fams = []
            for sig in sigmas:
                h1 = sig.index(1) + 1
                s = t.read[h1 - 1]
                for guess in SYMBOLS:
                    mem = tuple(guess if h == h1 else t.read[h - 1]
                                for h in range(1, k + 1))
                    for d in (IN, OUT):
                        fams.append(((s, d), sig, mem))
        for src_key, sig, mem in fams:
            coord = sig[i - 1]
            if halting:
                tgt_key = "a" if t.next == "accept" else "r"
                tgt_tag = init_tag
            else:
                tgt_key = (t.read[i - 1], _flip(t.direction))
                tgt_tag = index[(t.next, _bump(sig, coord), t.read)]
            key = (psi.block(tgt_key) - psi.block(src_key), coord)
            if key not in maps:
                maps[key] = TransformationDescriptor(
                    offset=key[0], perm=Perm.transposition(1, coord))
            edges.append(Edge(psi.mset(src_key), index[(t.state, sig, mem)],
                              tgt_tag, maps[key], ONE))
            prov.append(t)

    g = GraphingRep(psi.machine_support(), len(index), edges)
    return Machine(g, k, psi), prov, init_tag


def automaton_to_machine(a: MultiheadAutomaton,
                         psi: VertexTable = DEFAULT_PSI) -> Machine:
    """Compile an automaton into a machine with the same language.

    The dialect is (state, arrangement, memory): which non-halting state
    the run is in, which head sits in which cube coordinate, and the
    remembered symbols under the heads, with the slot of the coordinate-1
    head holding a guess of its previous symbol.  The start state must not
    be re-enterable, halting transitions must read the marker everywhere.
    """
    return _compile(a, psi)[0]


def family_counts(a: MultiheadAutomaton,
                  psi: VertexTable = DEFAULT_PSI) -> dict[str, int]:
    """Edge budget of the compilation: the full family grid versus what
    actually gets emitted once the start-state families collapse."""
    raw = len(a.transitions) * len(SYMBOLS) * 2 * factorial(a.heads)
    emitted = len(automaton_to_machine(a, psi).graphing.edges)
    return {"raw": raw, "emitted": emitted}


# ---------------------------------------------------------------------------
# machine -> automaton


def _block_key(mset, rev):
    boxes = mset.boxes
    if len(boxes) != 1:
        raise NotEssential("edge source is not a single block")
    b = boxes[0]
    if b.coords or b.line.width() != 1 or b.line.lo.denominator != 1:
        raise NotEssential("edge source is not a whole unit block")
    blk = int(b.line.lo)
    if blk not in rev:
        raise NotEssential(f"block {blk} is not a vertex block")
    return blk


def _edge_parts(e: Edge, rev):
    """(source key, target key, swap index, in state, out state)."""
    mapd = e.mapd
    if mapd.slope != 1 or mapd.shifts or mapd.offset.denominator != 1:
        raise NotEssential(f"edge map {mapd!r} is not a block move")
    if not _is_star(mapd.perm):
        raise NotEssential(f"edge permutation {mapd.perm!r} is not a star swap")
    j = max(mapd.perm.support(), default=1)
    src = _block_key(e.source, rev)
    tgt = src + int(mapd.offset)
    if tgt not in rev:
        raise NotEssential(f"edge lands outside the vertex blocks at {tgt}")
    return rev[src], rev[tgt], j, e.in_state, e.out_state


def _reads(n: int, pins: dict[int, str]):
    slots = [(pins[h],) if h in pins else SYMBOLS for h in range(1, n + 1)]
    return product(*slots)


def _reject_all(n: int) -> MultiheadAutomaton:
    t = Transition((MARKER,) * n, "init", 1, IN, "reject")
    return MultiheadAutomaton(n, ("init", "accept", "reject"), (t,))


def machine_to_automaton(m: Machine, mode: str = "preamble") -> MultiheadAutomaton:
    """Extract an automaton from an essential machine.

    States are (dialect state, arrangement, anchor, anchored reads) plus
    the reserved ones; the anchor is the dialect state guessed to recur on
    an answer-to-answer chain, and the automaton rejects when a landing at
    the reject block comes back to it over the anchored reads.
    """
    if mode not in ("preamble", "verbatim"):
        raise ValueError(f"unknown extraction mode {mode!r}")
    psi = m.psi
    n = m.head_bound
    rev = {blk: key for key, blk in psi.items().items()}

    departures, landings, mids, silents = [], [], [], []
    for e in m.graphing.edges:
        parts = _edge_parts(e, rev)
        if parts[2] > n:
            raise NotEssential(f"edge swaps coordinate {parts[2]} beyond headBound {n}")
        src_key, tgt_key = parts[0], parts[1]
        if src_key == "a" or tgt_key == "a":
            continue
        if src_key == "r" and tgt_key == "r":
            silents.append(parts)
        elif src_key == "r":
            departures.append(parts)
        elif tgt_key == "r":
            landings.append(parts)
        else:
            mids.append(parts)

    if any(p[2] != 1 for p in silents):
        raise NotEssential("answer-to-answer edges must not move coordinates")

    # Silent hops between answer states collapse to the states each one
    # reaches; a silent cycle rejects every word outright.
    snext: dict[int, set[int]] = {}
    for p in silents:
        snext.setdefault(p[3], set()).add(p[4])
    reach: dict[int, set[int]] = {}
    for q0 in {q for p in silents for q in p[3:]}:
        seen, todo = {q0}, [q0]
        while todo:
            new = snext.get(todo.pop(), set()) - seen
            seen |= new
            todo.extend(new)
        reach[q0] = seen
    if any(q in reach[q2] for q in snext for q2 in snext[q]):
        return _reject_all(n)

    src_at_r = {p[3] for p in departures} | {p[3] for p in silents}
    tgt_at_r = {p[4] for p in landings} | {p[4] for p in silents}
    anchors = sorted(src_at_r & tgt_at_r)

    dep_by_state: dict[int, list] = {}
    for p in departures:
        dep_by_state.setdefault(p[3], []).append(p)

    def departures_of(q0):
        return [p for q in sorted(reach.get(q0, {q0}))
                for p in dep_by_state.get(q, ())]

    sigmas = [tuple(p) for p in permutations(range(1, n + 1))]
    id_sigma = tuple(range(1, n + 1))
    mems = [tuple(c) for c in product(SYMBOLS, repeat=n)]

    @functools.cache
    def name(q, sig, i, mem):
        return f"{q}/{'.'.join(map(str, sig))}/{i}/{''.join(mem)}"

    states = ["init"]
    if mode == "preamble":
        states.append("walk")
    states.extend(name(q, sig, i, mem)
                  for q in range(m.graphing.dialect_size)
                  for sig in sigmas for i in anchors for mem in mems)
    states.extend(HALTING)

    trans = set()

    def anchor_from(state_name):
        for i in anchors:
            for (_, tgt_key, j, _, q2) in departures_of(i):
                s2, d2 = tgt_key
                for mem in mems:
                    if mem[j - 1] != s2:
                        continue
                    trans.add(Transition(mem, state_name, j, _flip(d2),
                                         name(q2, _bump(id_sigma, j), i, mem)))

    anchor_from("init")

    # Excursion steps (read at coordinate 1, swap, second swap, in state,
    # target key, answer state, out state): each mid edge, with no second
    # swap and no answer state, and each landing with each departure after it.
    steps = [(src[0], j, 1, q0, tgt, None, q2)
             for (src, tgt, j, q0, q2) in mids]
    steps += [(lsrc[0], j1, j2, q0, tgt, qr, q2)
              for (lsrc, _, j1, q0, qr) in landings
              for (_, tgt, j2, _, q2) in departures_of(qr)]
    for (s, j1, j2, q0, (s2, d2), qr, q2) in steps:
        for sig in sigmas:
            sig2 = _bump(_bump(sig, j1), j2)
            h1 = sig.index(1) + 1
            h2 = sig2.index(1) + 1
            if h1 == h2 and s != s2:
                continue
            reads = list(_reads(n, {h1: s, h2: s2}))
            for i in anchors:
                # coming back to the anchor is left to the reject transitions
                back = qr == i
                if back and mode == "verbatim":
                    continue
                for mem in mems:
                    src, tgt = name(q0, sig, i, mem), name(q2, sig2, i, mem)
                    for av in reads:
                        if back and av == mem:
                            continue
                        trans.add(Transition(av, src, h2, _flip(d2), tgt))

    for (lsrc, _, j1, q0, qr) in landings:
        s = lsrc[0]
        for i in anchors:
            if i not in reach.get(qr, {qr}):
                continue
            for sig in sigmas:
                h1 = sig.index(1) + 1
                for mem in mems:
                    if mode == "preamble" and mem[h1 - 1] != s:
                        continue
                    trans.add(Transition(mem, name(q0, sig, i, mem), 1, IN,
                                         "reject"))

    if mode == "preamble":
        for av in mems:
            for h in range(1, n + 1):
                for d in (IN, OUT):
                    trans.add(Transition(av, "init", h, d, "walk"))
                    trans.add(Transition(av, "walk", h, d, "walk"))
        anchor_from("walk")

    ordered = sorted(trans, key=lambda t: (t.state, t.read, t.head,
                                           t.direction, t.next))
    return MultiheadAutomaton(n, states, ordered)


# ---------------------------------------------------------------------------
# runs against paths


def _run_label(tr) -> str:
    return "->".join([tr[0].state] + [t.next for t in tr])


def _run_to_path(tr, root, cg, prov, init_tag: int):
    """The alternating path a run drives from the given start cell.

    Each transition takes the one machine arrow leaving the current cell
    at the current dialect tag whose edge was emitted for it; between
    transitions the word side must offer exactly one arrow.  Returns
    (path, reason), with path None when a choice is missing or not unique.
    """
    path = []
    cell = root
    tag = init_tag
    for step, t in enumerate(tr):
        hits = [(j, img) for j, img in cg.arrows(0, tag, cg.cell_box(cell)) if prov[j] == t]
        if len(hits) != 1:
            return None, f"step {step + 1}: {len(hits)} machine edges chain"
        ((j, img),) = hits
        path.append((0, j))
        cell = cg.box_cell(img)
        tag = cg.edge(0, j).out_state
        if step + 1 < len(tr):
            hops = cg.arrows(1, 0, cg.cell_box(cell))
            if len(hops) != 1:
                return None, f"step {step + 1}: {len(hops)} word moves at {cell}"
            path.append((1, hops[0][0]))
            cell = cg.box_cell(hops[0][1])
    return tuple(path), ""


def trace_path_correspondence(a: MultiheadAutomaton, w: str, max_steps: int,
                              psi: VertexTable = DEFAULT_PSI) -> dict:
    """Map every run of the automaton on w to an alternating path of its
    compiled machine against the word representation, and check the map is
    a bijection.

    A run of n transitions goes to a path of 2n-1 edges rooted at an
    answer block with every head interval at the marker column.  The map
    is checked arrow by arrow (each step must have exactly one), for
    injectivity, and against an independent path count per length at
    both answer blocks.  Any failure lands in the report's mismatch list;
    with none, every run is mapped once, so both blocks carry the run
    tree's profile.
    """
    m, prov, init_tag = _compile(a, psi)
    cg = cell_decompose([m.graphing, representation(w, psi=psi)])

    runs = []
    level = [(a.initial(), ())]
    for _ in range(max_steps):
        nxt = []
        for cfg, tr in level:
            for t, c2 in successors(a, w, cfg):
                nxt.append((c2, tr + (t,)))
        runs.extend(tr for _, tr in nxt)
        level = nxt

    traces: dict[int, int] = {}
    for tr in runs:
        traces[len(tr)] = traces.get(len(tr), 0) + 1

    mismatches: list[str] = []
    profiles: dict[str, dict[int, int]] = {}
    for lab in ("r", "a"):
        root = (psi.block(lab), (0,) * cg.N)
        seen: dict[tuple, tuple] = {}
        mapped: dict[int, int] = {}
        for tr in runs:
            path, why = _run_to_path(tr, root, cg, prov, init_tag)
            if path is None:
                mismatches.append(f"{lab}: run {_run_label(tr)}: {why}")
                continue
            if path in seen:
                mismatches.append(f"{lab}: runs {_run_label(seen[path])} and "
                                  f"{_run_label(tr)} share a path")
                continue
            seen[path] = tr
            mapped[len(tr)] = mapped.get(len(tr), 0) + 1
        # the machine side fires first, from the root
        seeds = ((node, boxes) for _k, _e, node, boxes
                 in cg.successors((FREE, 0), [cg.cell_box(root)]))
        by_len = walk_counts(cg, seeds, 2 * max_steps - 1)
        paths = {(ln + 1) // 2: c for ln, c in by_len.items() if ln % 2}
        for i in range(1, max_steps + 1):
            if paths.get(i, 0) != mapped.get(i, 0):
                mismatches.append(
                    f"{lab}: {paths.get(i, 0)} paths of {i} rounds, "
                    f"{mapped.get(i, 0)} mapped runs")
        profiles[lab] = paths

    return {"traces": traces, "paths_r": profiles["r"],
            "paths_a": profiles["a"], "mismatches": mismatches,
            "match": not mismatches}
