"""Measurement of interaction between graphings.

The measurement between two graphings totals, over the alternating
circuits they form, the return behaviour of each circuit's points.  Only
circuits carrying the marker flag contribute, and only points that
actually return do.  With every dilation equal to one this collapses to a
dichotomy: zero when no flagged circuit exists, infinite otherwise.  The
search runs on demand over the finite cell structure: it roots only at
the targets of flagged arrows from which the other side fires, expands
only what they reach, and its budget counts the arcs it expands.  With
dilations below one the series converges: a closed orbit of period rho
and measure mu under a circuit of dilation a adds
mu * sum_{n >= 1} gcd(n, rho)/rho * a^lcm(n, rho) over the circuit's
powers, one sum over the squarefree divisors of rho in closed form.  A
geometric bound on the tail, which does not depend on the circuits,
fixes the length once; one DFS over label sequences, each carrying its
composed map (as grid integers), weight and the grid boxes its walks are
at, lists the circuits, whose orbits come from the walks of their first
live rotation.  The exact search still runs cell by cell.

The decision procedure at the bottom runs a project against the answer
test and reads the verdict off their orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IterationCapExceeded, SupportMismatch
from .execution import Cell, cell_count, cell_decompose, expansion_cap
from .graphings import Edge, GraphingRep, Project, SymValue, Weight
from .microcosm import TransformationDescriptor
from .space import equal_ae
from .words import DEFAULT_PSI, VertexTable

__all__ = [
    "INF",
    "Orbit",
    "Circuit",
    "circuits",
    "measure_graphings",
    "measure_projects",
    "orthogonal",
    "TestFamily",
    "t_minus",
    "decide_against_test",
    "DEFAULT_TOL",
]

DEFAULT_TOL = Fraction(1, 2**30)


class _Inf:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Inf()


# ---------------------------------------------------------------------------
# the exact circuit search

def _live_states(g: GraphingRep) -> list[int]:
    """Dialect states that some arrow enters and some arrow leaves."""
    return sorted({e.in_state for e in g.edges} & {e.out_state for e in g.edges})


def _exists_flagged_circuit(f: GraphingRep, g: GraphingRep,
                            cap: int | None = None) -> bool:
    """Is there an alternating circuit with a recurrent point carrying the
    flag?  Broken orbits weigh nothing, so this looks for a directed cycle
    through a flagged arrow in the finite graph on (cell, side to fire,
    state of either side).  The idle side's state stays put; on a circuit
    an arrow of that side entered it and another will leave it, so only
    live states are carried.  A flagged arrow u -> v lies on a cycle
    exactly when v reaches u, so one Tarjan pass from the flagged targets
    decides, expanding only what they reach; the budget counts the arcs
    it expands.

    A target is a root only where it has a successor: every successor of
    v fires on the other side, from the idle state, so v is taken only at
    the cells of the flagged edge's image that meet a source of the other
    side's edges of that in-state (`CellGraph.landings`), and u is read
    back through the edge's inverse map.  This is exact.  A v without a
    successor is a component of its own, and u is not v, since the side
    to fire flips; so it closes no flagged circuit.  It expands no arc
    either, so the arcs the budget counts, and every least passing cap,
    stay the same.  For the same reason an edge whose out-state is not
    live on its own side roots nothing."""
    if not (any(e.weight.flag for e in f.edges) or any(e.weight.flag for e in g.edges)):
        return False
    cg = cell_decompose([f, g])
    budget = expansion_cap(cap)
    live = (_live_states(f), _live_states(g))
    arcs = 0

    # a node is (cell, side to fire, that side's state, the idle side's
    # state); arrows are asked of the cell's one-cell box
    def successors(node):
        nonlocal arcs
        cell, turn, state, idle = node
        if idle in live[1 - turn]:
            for k, img in cg.arrows(turn, state, cg.cell_box(cell)):
                arcs += 1
                if arcs > budget:
                    raise IterationCapExceeded(
                        f"circuit search grew past {budget} arrows")
                yield cg.box_cell(img), 1 - turn, idle, cg.edge(turn, k).out_state

    flagged = [((start, side, e.in_state, idle), (cell, 1 - side, idle, e.out_state))
               for side, h in enumerate((f, g))
               for k, e in enumerate(h.edges) if e.weight.flag and e.out_state in live[side]
               for idle in live[1 - side]
               for start, cell in cg.landings(side, k, idle).items()]
    comp = _scc([v for _u, v in flagged], successors)
    return any(comp.get(u) == comp[v] for u, v in flagged)


def _scc(roots, successors) -> dict:
    """Strongly connected components of what the roots reach, iterative
    Tarjan; successors(node) gives an iterator, drawn only as far as the
    search goes.  Each node maps to the root node of its component."""
    index: dict = {}
    low: dict = {}
    comp: dict = {}
    stack: list = []
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, successors(root))]
        while work:
            node, outs = work[-1]
            for child in outs:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    work.append((child, successors(child)))
                    break
                if child not in comp:
                    # visited and not yet in a component: still on the stack
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if low[node] == index[node]:
                    while node not in comp:
                        comp[stack.pop()] = node
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return comp


# ---------------------------------------------------------------------------
# explicit circuit enumeration

@dataclass(frozen=True)
class Orbit:
    """Start cells a circuit's walk chains; the period, the passes that
    return a generic point, is None exactly for an open orbit."""
    cells: tuple[Cell, ...]
    closed: bool
    period: int | None
    measure: Fraction


@dataclass(frozen=True)
class Circuit:
    labels: tuple[tuple[int, int], ...]
    weight: Weight
    composed: TransformationDescriptor
    orbits: tuple[Orbit, ...]

    @property
    def length(self) -> int:
        return len(self.labels)


def _canonical_rotation(labels: tuple) -> tuple[tuple, int]:
    """The least rotation of labels, and the offset at which labels sits
    in it: labels == canon[offset:] + canon[:offset]."""
    n = len(labels)
    least = min(labels)
    # the least rotation starts at a least label
    i = min((i for i in range(n) if labels[i] == least),
            key=lambda i: labels[i:] + labels[:i])
    return labels[i:] + labels[:i], (n - i) % n


def _is_power(labels: tuple) -> bool:
    n = len(labels)
    for d in range(1, n):
        if n % d == 0 and labels[:d] * (n // d) == labels:
            return True
    return False


def _orbits(starts: dict, composed: TransformationDescriptor,
            vol: Fraction) -> tuple[Orbit, ...]:
    """Split a start map {start cell: end cell} into orbits: a closed one
    has period q * order(composed^q) over its q cells, as composed^q maps
    them onto themselves and so has an order."""
    orbits = []
    unvisited = set(starts)
    while unvisited:
        c = min(unvisited)
        trail = []
        index = {}
        cur = c
        while cur in starts and cur not in index:
            if cur not in unvisited:
                # joins territory already assigned to an earlier orbit
                break
            index[cur] = len(trail)
            trail.append(cur)
            cur = starts[cur]
        if cur in index:
            i = index[cur]
            tail, cycle = trail[:i], trail[i:]
        else:
            tail, cycle = trail, []
        for cell in trail:
            unvisited.discard(cell)
        if tail:
            orbits.append(Orbit(tuple(tail), False, None, vol * len(tail)))
        if cycle:
            q = len(cycle)
            orbits.append(Orbit(tuple(cycle), True, q * composed.power(q).order(),
                                vol * q))
    return tuple(orbits)


def circuits(f: GraphingRep, g: GraphingRep, max_len: int = 8,
             cap: int | None = None) -> list[Circuit]:
    """Primitive alternating circuits up to rotation, with orbit data.

    Enumeration is complete below max_len; powers of the returned
    circuits are the remaining ones below that length.  Each circuit
    comes as the first rotation, from its least one on, that some cell
    walks, with that rotation's orbits.  One DFS over label sequences
    reads it all off: each carries its composed map as grid integers, its
    dilation and flag, and the grid boxes its walks are at; the budget
    counts the cells they hold.  The walks of the first live rotation are
    its start map, read off its boxes through the inverse map
    (`CellGraph.walks`).  The map becomes a descriptor, and the weight a
    Weight, only for the circuits returned.
    """
    cg = cell_decompose([f, g])
    budget = expansion_cap(cap)
    # least canon -> (offset, integer map, dilation, flag, boxes reached)
    # of its first rotation that some cell walks
    found: dict[tuple, tuple] = {}
    steps = 0
    # depth-first over label sequences, each carrying its composed integer
    # map, dilation, flag and the grid boxes its walks are at
    stack = [(((side, k),), node, *cg.steps[side][k], boxes)
             for side, k, node, boxes in cg.seeds()]
    while stack:
        labels, node, imap, a, flag, boxes = stack.pop()
        steps += cell_count(boxes)
        if steps > budget:
            raise IterationCapExceeded(
                f"circuit enumeration exceeded {budget} expansions")
        ((ff, of), (fg, og)), turn = node
        if (turn == labels[0][0] and of == ff and og == fg
                and ff is not None and fg is not None):
            canon, offset = _canonical_rotation(labels)
            if not _is_power(canon) and (canon not in found or offset < found[canon][0]):
                found[canon] = (offset, imap, a, flag, boxes)
        if len(labels) >= max_len:
            continue
        fire = cg.steps[turn]
        for k, _e, nxt, moved in cg.successors(node, boxes):
            emap, dil, eflag = fire[k]
            stack.append((labels + ((turn, k),), nxt, cg.compose(emap, imap),
                          a if dil == 1 else a * dil, flag | eflag, moved))
    vol = cg.cell_volume()
    out = []
    # circuits share few weights: each is built once
    weights: dict[tuple, Weight] = {}
    for canon in sorted(found):
        i, imap, a, flag, boxes = found[canon]
        if (a, flag) not in weights:
            weights[a, flag] = Weight(a, flag)
        composed = cg.descriptor(imap)
        out.append(Circuit(canon[i:] + canon[:i], weights[a, flag], composed,
                           _orbits(cg.walks(imap, boxes), composed, vol)))
    return out


# ---------------------------------------------------------------------------
# summation

def _orbit_series(a: Fraction, flag: int, rho: int, mu: Fraction) -> Fraction:
    """Closed form of the full power series of a closed orbit of period
    rho and measure mu under a circuit of dilation a:

        mu * sum_{n >= 1} gcd(n, rho)/rho * a^lcm(n, rho)
          = mu * sum_{k | rho} moebius(k) * sigma(rho/k)/rho * y^k/(1 - y^k)

    with y = a^rho and sigma the sum of divisors; only squarefree k count."""
    if flag == 0 or a == 0:
        return Fraction(0)
    # each prime of rho, one that no product of smaller primes divides,
    # doubles the signed squarefree divisors with signs flipped
    signed = [(1, 1)]
    for p in range(2, rho + 1):
        if rho % p == 0 and all(p % k for k, _s in signed[1:]):
            signed += [(k * p, -s) for k, s in signed]
    y = a**rho
    total = Fraction(0)
    for k, s in signed:
        m, yk = rho // k, y**k
        total += s * sum(d for d in range(1, m + 1) if m % d == 0) * yk / (1 - yk)
    return mu * total / rho


def measure_graphings(f: GraphingRep, g: GraphingRep, mode: str = "exact",
                      tol: Fraction = DEFAULT_TOL, cap: int | None = None):
    """Total circuit measurement between two graphings.

    Exact mode requires every dilation to be one and returns 0 or INF.
    Series mode sums closed orbits in closed form and certifies that the
    discarded tail of longer circuits stays below tol.
    """
    if mode == "exact":
        for e in f.edges + g.edges:
            if e.weight.a != 1:
                raise ValueError(
                    "exact mode needs every dilation equal to 1; use series mode")
        return INF if _exists_flagged_circuit(f, g, cap) else Fraction(0)
    if mode != "series":
        raise ValueError(f"unknown measurement mode {mode!r}")
    if tol <= 0:
        raise ValueError("series tolerance must be positive")
    cg = cell_decompose([f, g])
    # total dilation leaving each product node (cell, side to fire, state)
    tails: dict[tuple, Fraction] = {}
    for side, h in enumerate((f, g)):
        for k, e in enumerate(h.edges):
            for cell in cg.source_cells(side, k):
                key = (cell, side, e.in_state)
                tails[key] = tails.get(key, Fraction(0)) + e.weight.a
    norm = max(tails.values(), default=Fraction(0))
    if norm >= 1:
        raise ValueError(
            f"series tail cannot be certified: row dilation norm {norm} >= 1")
    a_max = max([e.weight.a for e in f.edges + g.edges if not e.source.is_empty()],
                default=Fraction(0))
    volume = f.support.union(g.support).measure()
    states = max(f.dialect_size * g.dialect_size, 1)
    # crude but sound node count for the tail bound
    node_count = states * 2 * max(1, len({cell for cell, _side, _state in tails}))
    # the tail bound does not depend on the circuits, so the length is
    # fixed before any is listed
    length = 4
    while volume * node_count * norm**(length + 1) / ((1 - norm) * (1 - a_max)) >= tol:
        length *= 2
        if length > 4096:
            raise IterationCapExceeded(
                "series enumeration length escalated beyond 4096")
    total = Fraction(0)
    for circ in circuits(f, g, max_len=length, cap=cap):
        for orb in circ.orbits:
            if orb.closed:
                total += _orbit_series(circ.weight.a, circ.weight.flag,
                                       orb.period, orb.measure)
    return total


def measure_projects(p: Project, q: Project, mode: str = "exact",
                     tol: Fraction = DEFAULT_TOL, cap: int | None = None):
    """Measurement of projects: wrappers cross-scaled plus pairwise
    graphing measurements."""
    if not equal_ae(p.support(), q.support()):
        raise SupportMismatch("projects live on different supports")
    value = p.wrapper.scale(q.coeff_sum()) + q.wrapper.scale(p.coeff_sum())
    for ca, ga in p.terms:
        for cb, gb in q.terms:
            m = measure_graphings(ga, gb, mode=mode, tol=tol, cap=cap)
            if m is INF:
                if ca * cb != 0:
                    return INF
                continue
            value = value + SymValue(m).scale(ca * cb)
    return value


def orthogonal(p: Project, q: Project, mode: str = "exact",
               tol: Fraction = DEFAULT_TOL, cap: int | None = None) -> bool:
    """Projects are orthogonal when their measurement avoids 0 and INF.

    A symbolic multiple of the test scalar is read as: for every nonzero
    value of the scalar.
    """
    value = measure_projects(p, q, mode=mode, tol=tol, cap=cap)
    if value is INF:
        return False
    if value.zeta == 0:
        return value.const != 0
    return value.const == 0


@dataclass(frozen=True)
class TestFamily:
    """The negative answer test: a flagged identity sitting on the reject
    block, scaled by an arbitrary nonzero scalar."""

    graphing: GraphingRep

    def project(self) -> Project:
        return Project(SymValue(0, 1), [(Fraction(1), self.graphing)])


def t_minus(psi: VertexTable = DEFAULT_PSI) -> TestFamily:
    edge = Edge(psi.mset("r"), 0, 0, TransformationDescriptor(), Weight(1, 1))
    graphing = GraphingRep(psi.answers_mset(), 1, [edge])
    return TestFamily(graphing)


def decide_against_test(p: Project, psi: VertexTable = DEFAULT_PSI,
                        cap: int | None = None) -> str:
    """Run a computed project against the answer test on psi's blocks:
    "pass" when the project is orthogonal to it, "fail" otherwise.  The
    cap bounds the circuit search."""
    return "pass" if orthogonal(p, t_minus(psi).project(), cap=cap) else "fail"
