"""Independent reference implementations used to freeze expected values.

Nothing here imports from gmachines; every oracle recomputes its answer
from first principles so the tests compare two genuinely different
derivations.  The borrowed pieces are cell geometry, which the circuit
oracles take from a cell decomposition their caller passes in, and the
validating constructors of the maps that the compose oracle is given.
"""

from collections import Counter, deque
from fractions import Fraction
from itertools import product


def all_words(max_len):
    out = [""]
    for k in range(1, max_len + 1):
        out.extend("".join(p) for p in product("01", repeat=k))
    return out


def even_ones(w):
    return w.count("1") % 2 == 0


def zeros_then_ones(w):
    n = len(w) // 2
    return w == "0" * n + "1" * n


# -- reference automaton semantics ------------------------------------------
#
# Works on the JSON form only.  The tape is circular with the marker at
# position 0; "In" moves right, "Out" moves left; a word is co-accepted
# when no sequence of steps can reach the reject state.


def _sym(w, p):
    return "*" if p == 0 else w[p - 1]


def _steps(doc, w, state, heads):
    n = len(w) + 1
    reads = tuple(_sym(w, p) for p in heads)
    out = []
    for t in doc["transitions"]:
        if t["state"] != state or tuple(t["read"]) != reads:
            continue
        if t["next"] in ("accept", "reject"):
            out.append((t, t["next"], heads))
            continue
        moved = list(heads)
        i = t["head"] - 1
        moved[i] = (moved[i] + (1 if t["dir"] == "In" else -1)) % n
        out.append((t, t["next"], tuple(moved)))
    return out


def ref_co_accepts(doc, w):
    start = ("init", (0,) * doc["heads"])
    seen = {start}
    stack = [start]
    while stack:
        state, heads = stack.pop()
        if state == "reject":
            return False
        for _, q, hs in _steps(doc, w, state, heads):
            if (q, hs) not in seen:
                seen.add((q, hs))
                stack.append((q, hs))
    return True


def ref_run_counts(doc, w, max_steps):
    """Number of distinct transition sequences per length."""
    counts = {}
    level = [("init", (0,) * doc["heads"])]
    for n in range(1, max_steps + 1):
        nxt = []
        for state, heads in level:
            if state in ("accept", "reject"):
                continue
            for _, q, hs in _steps(doc, w, state, heads):
                nxt.append((q, hs))
        if not nxt:
            break
        counts[n] = len(nxt)
        level = nxt
    return counts


def dfa_even_ones(w):
    """Two-state table-driven recognizer, nothing shared with the rest."""
    table = {("e", "0"): "e", ("e", "1"): "o",
             ("o", "0"): "o", ("o", "1"): "e"}
    q = "e"
    for c in w:
        q = table[(q, c)]
    return q == "e"


# -- brute-force alternating paths on the line ------------------------------
#
# Edges are (lo, hi, slope, offset) over half-open rational intervals with
# a single control state.  Paths alternate between the two edge lists and
# keep a running domain; a path survives while its domain stays nonempty.


def _chain(dom, edge):
    lo, hi, a, b = edge
    dlo, dhi, s, o = dom
    # current image interval of the running domain
    img = sorted((s * dlo + o, s * dhi + o))
    cl, ch = max(img[0], lo), min(img[1], hi)
    if cl >= ch:
        return None
    # pull the clipped image back through the running map
    pre = sorted(((cl - o) / s, (ch - o) / s))
    return (pre[0], pre[1], a * s, a * o + b)


def brute_paths(fs, gs, max_len):
    """All alternating paths up to max_len, as (labels, lo, hi, slope, offset)."""
    found = []
    frontier = []
    for side, edges in ((0, fs), (1, gs)):
        for name, e in edges:
            dom = (Fraction(e[0]), Fraction(e[1]), Fraction(e[2]), Fraction(e[3]))
            frontier.append(((name,), side, dom))
    length = 1
    while frontier and length <= max_len:
        found.extend((labels, d[0], d[1], d[2], d[3])
                     for labels, _, d in frontier)
        nxt = []
        for labels, side, dom in frontier:
            for name, e in (gs if side == 0 else fs):
                d2 = _chain(dom, e)
                if d2 is not None:
                    nxt.append((labels + (name,), 1 - side, d2))
        frontier = nxt
        length += 1
    return found


def brute_plug(fs, gs, cut, max_len):
    """Completed paths: domain outside the cut, image outside the cut."""
    clo, chi = Fraction(cut[0]), Fraction(cut[1])
    out = []
    for labels, lo, hi, s, o in brute_paths(fs, gs, max_len):
        pieces = [(lo, hi)]
        # clip the domain against the cut
        kept = []
        for plo, phi in pieces:
            if phi <= clo or plo >= chi:
                kept.append((plo, phi))
            else:
                if plo < clo:
                    kept.append((plo, clo))
                if phi > chi:
                    kept.append((chi, phi))
        for plo, phi in kept:
            img = sorted((s * plo + o, s * phi + o))
            if img[1] <= clo or img[0] >= chi:
                out.append((labels, plo, phi, s, o))
    return out


# -- the arrows of a cell decomposition ---------------------------------------
#
# Every source cell of every edge with the cell the edge sends it to, by
# side, edge and cell; no index and no dialect state.


def ref_arrows(cells):
    """(side, k, cell, image) for every arrow.  `cells` is a cell
    decomposition: its graphings gs, grid n, coordinate count N and
    source_cells(side, k)."""
    return [(side, k, cell, image(cells, side, k, cell))
            for side, g in enumerate(cells.gs)
            for k in range(len(g.edges))
            for cell in cells.source_cells(side, k)]


# -- the cells of a set -------------------------------------------------------
#
# A set aligned to the grid holds a cell exactly when it holds the cell's
# centre.  Every cell of every block a box touches is tested against the
# box's own rational bounds: no grid boxes, no cell decomposition.


def ref_cells(m, n, bound):
    """The cells (block, cube) of a set whose boxes lie on integer blocks
    and on the 1/n grid in coordinates 1..bound."""
    out = set()
    for b in m.boxes:
        for blk in range(b.line.lo.numerator // b.line.lo.denominator,
                         -(-b.line.hi.numerator // b.line.hi.denominator)):
            if not b.line.lo <= blk + Fraction(1, 2) < b.line.hi:
                continue
            for cube in product(range(n), repeat=bound):
                if all(b.coord(c + 1).lo <= Fraction(2 * j + 1, 2 * n) < b.coord(c + 1).hi
                       for c, j in enumerate(cube)):
                    out.add((blk, cube))
    return out


# -- the edges that fire at a cell --------------------------------------------
#
# Read off the source cells of every edge and its in-state alone: no
# `arrows`, no index.


def ref_source_lists(cells, side):
    """{cell: [(k, in-state)]} over every source cell of a side's edges,
    in edge order.  `cells` is a cell decomposition: its graphings gs and
    source_cells(side, k)."""
    lists = {}
    for k, e in enumerate(cells.gs[side].edges):
        for cell in cells.source_cells(side, k):
            lists.setdefault(cell, []).append((k, e.in_state))
    return lists


def ref_edges_from(cells, side, state, cell, lists=None):
    """The edges of a side whose source holds cell, in order, of in-state
    state (any for None); lists, when given, is ref_source_lists(cells,
    side), read instead of recomputed."""
    if lists is None:
        lists = ref_source_lists(cells, side)
    return [k for k, s in lists.get(cell, ()) if state in (None, s)]


# -- the cell an edge sends a cell to -----------------------------------------
#
# A rigid map moves a cell's points together, so the image cell is the
# cell holding the image of the centre: the map at a point, no integer map.


def image(cells, side, k, cell):
    """The cell that edge k of a side sends cell to.  `cells` is a cell
    decomposition: its graphings gs, grid n and coordinate count N."""
    blk, cube = cell
    n = cells.n
    centre = {c + 1: Fraction(2 * j + 1, 2 * n) for c, j in enumerate(cube)}
    x, out = ref_apply_point(cells.gs[side].edges[k].mapd, blk + Fraction(1, 2), centre)
    return (x.numerator // x.denominator,
            tuple(int(out.get(c + 1, 0) * n) for c in range(cells.N)))


# -- plugging cell by cell -----------------------------------------------------
#
# A walk is (start cell, cell, dialect pair, side to fire, map, dilation,
# flag), the pair holding per side the in-state of its first edge and its
# last out-state, None while the side has not fired.  It takes the arrows
# of the side to fire whose in-state chains at that out-state, composing
# the maps with ref_compose, and leaves where it lands outside the cut.
# Each walk is taken once, breadth first; an exit is copied over the
# states of a side it never fired and renamed into the product dialect.


def ref_plug(cells, cut, max_len=None):
    """Counter of (in-state, out-state, map key, dilation, flag, start
    cell) over the composite edges of plugging the two graphings of a
    cell decomposition along the cut, per cell of their sources; walks
    stop at max_len edges.  `cells` gives gs, n, N and source_cells, read
    through ref_arrows."""
    fires = {}
    for side, k, cell, dst in ref_arrows(cells):
        fires.setdefault((side, cell), []).append((k, dst))
    inside = ref_cells(cut, cells.n, cells.N)

    def fire(walk, k, dst):
        start, _cell, pairs, side, d, a, flag = walk
        e = cells.gs[side].edges[k]
        first, last = pairs[side]
        if last is not None and last != e.in_state:
            return None
        pair = (e.in_state if first is None else first, e.out_state)
        pairs = (pair, pairs[1]) if side == 0 else (pairs[0], pair)
        return (start, dst, pairs, 1 - side, e.mapd if d is None else ref_compose(e.mapd, d),
                a * e.weight.a, flag | e.weight.flag)

    free = ((None, None), (None, None))
    level = [fire((cell, cell, free, side, None, 1, 0), k, dst)
             for (side, cell), arrows in fires.items() if cell not in inside
             for k, dst in arrows]
    seen, exits = set(), set()
    length = 1
    while level:
        nxt = []
        for walk in level:
            if walk is None or walk in seen:
                continue
            seen.add(walk)
            start, cell, pairs, side, d, a, flag = walk
            if cell not in inside:
                exits.add((start, pairs, d, a, flag))
            elif max_len is None or length < max_len:
                nxt += [fire(walk, k, dst) for k, dst in fires.get((side, cell), ())]
        level = nxt
        length += 1
    df, dg = (g.dialect_size for g in cells.gs)
    out = Counter()
    for start, ((in_f, out_f), (in_g, out_g)), d, a, flag in exits:
        if in_f is None:
            states = [(s, s, in_g, out_g) for s in range(df)]
        elif in_g is None:
            states = [(in_f, out_f, s, s) for s in range(dg)]
        else:
            states = [(in_f, out_f, in_g, out_g)]
        for p, q, r, s in states:
            out[p * dg + r, q * dg + s, d.key(), a, flag, start] += 1
    return out


# -- flagged circuits over the full product ----------------------------------
#
# Nodes are (cell, state of f, state of g, side to fire) over every dialect
# state of both sides, pruned nowhere.  A flagged arc lies on a circuit when
# a breadth-first search from its target gets back to its source.


def ref_flagged_circuit(cells, f, g):
    """Does some alternating circuit of f and g carry a flag?  `cells` is a
    cell decomposition of [f, g]: source_cells(side, k) and `image` give
    each edge's arrows."""
    sides = (f, g)
    adj = {}
    flagged = []
    for side in (0, 1):
        for k, e in enumerate(sides[side].edges):
            for cell in cells.source_cells(side, k):
                dst = image(cells, side, k, cell)
                for s in range(sides[1 - side].dialect_size):
                    if side == 0:
                        u, v = (cell, e.in_state, s, 0), (dst, e.out_state, s, 1)
                    else:
                        u, v = (cell, s, e.in_state, 1), (dst, s, e.out_state, 0)
                    adj.setdefault(u, []).append(v)
                    if e.weight.flag:
                        flagged.append((u, v))
    for u, v in flagged:
        seen = {v}
        queue = deque([v])
        while queue:
            x = queue.popleft()
            if x == u:
                return True
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return False


# -- the first live rotation of a circuit -----------------------------------
#
# A rotation of a label cycle is live when some cell of its first edge's
# source walks the whole sequence.  Rotations are tried from offset 0 on,
# each walked from scratch from every source cell.


def ref_first_live_rotation(cells, canon):
    """The first rotation of canon that some cell walks, with its start map
    {start cell: end cell}, or None when no rotation is live.  `cells` is a
    cell decomposition: source_cells(side, k), read with `image`."""
    sources = {lab: set(cells.source_cells(*lab)) for lab in set(canon)}
    for i in range(len(canon)):
        rot = canon[i:] + canon[:i]
        starts = {}
        for cell in cells.source_cells(*rot[0]):
            end = cell
            for side, k in rot:
                if end not in sources[side, k]:
                    break
                end = image(cells, side, k, end)
            else:
                starts[cell] = end
        if starts:
            return rot, starts
    return None


# -- composing maps by the textbook formula ---------------------------------
#
# (x, s) |-> (slope*x + offset, shifts(perm(s))): g moves coordinate i to
# perm_g(i) and shifts it, then f moves it on to perm_f(perm_g(i)), so g's
# shift on j lands on perm_f(j).  The raw fields go through the validating
# constructors of the inputs' own classes, which reduce shifts mod 1 and
# drop zeros.


def ref_compose(f, g):
    """f after g."""
    idxs = f.perm.support() | g.perm.support()
    perm = type(f.perm)({i: f.perm(g.perm(i)) for i in idxs})
    shifts = {f.perm(j): lam for j, lam in g.shifts}
    for j, lam in f.shifts:
        shifts[j] = shifts.get(j, 0) + lam
    return type(f)(f.slope * g.slope, f.slope * g.offset + f.offset, perm, shifts)


# -- a map at a point --------------------------------------------------------
#
# Coordinate i of the point moves to perm(i), then the shift at perm(i) is
# added on the unit circle; coordinates left at 0 are dropped.


def ref_apply_point(d, x, coords=None):
    """(line image, {coordinate: value}) of the point (x, coords) under the
    map d; coords default to 0 on every coordinate."""
    coords = {int(k): Fraction(v) for k, v in (coords or {}).items()}
    shifts = dict(d.shifts)
    out = {}
    for i in set(coords) | d.perm.support() | set(shifts):
        j = d.perm(i)
        v = coords.get(i, Fraction(0)) + shifts.get(j, Fraction(0))
        out[j] = v - (v.numerator // v.denominator)
    return (d.slope * Fraction(x) + d.offset, {j: v for j, v in out.items() if v != 0})


# -- the series measurement from its definition -------------------------------
#
# Every flagged alternating label cycle up to max_len, once up to rotation
# and powers included, whose dialect states close up.  A point that walks
# the cycle again and again until it comes back after p passes adds its
# cycle's weight^p / p.  Rigid maps move a cell's points together, so a
# point of each start cell stands for its cell: one whose coordinates sit
# at distinct offsets inside the cell, so that only the identity fixes it.


def ref_series(cells, max_len):
    """(sum, tail): the measurement summed over label cycles of length at
    most max_len, and a bound on what the longer ones add.  A walk of m
    arrows from a point weighs at most norm^m, norm the largest total
    dilation of the edges of one side whose sources hold one point; so
    cycles longer than max_len add at most |sources| * norm^(max_len + 1)
    / (1 - norm).  `cells` is a cell decomposition: its graphings gs, grid
    n, coordinate count N, source_cells(side, k) and cell_volume()."""
    sides = cells.gs
    n, dims = cells.n, cells.N
    vol = cells.cell_volume()

    def point(cell):
        blk, cube = cell
        return (blk + Fraction(1, 2),
                {c + 1: (j + Fraction(c + 1, dims + 1)) / n for c, j in enumerate(cube)})

    def holds(m, x, coords):
        return any(b.line.lo <= x < b.line.hi
                   and all(b.coord(c).lo <= coords.get(c, 0) < b.coord(c).hi
                           for c in range(1, dims + 1))
                   for b in m.boxes)

    def cycles(labels, first_in, last_out):
        # per side: the in-state of its first edge, the out-state of its last
        if labels and len(labels) % 2 == 0 and last_out == first_in:
            yield labels
        if len(labels) < max_len:
            for side in (1 - labels[-1][0],) if labels else (0, 1):
                for k, e in enumerate(sides[side].edges):
                    if last_out[side] in (None, e.in_state):
                        fi, lo = list(first_in), list(last_out)
                        if fi[side] is None:
                            fi[side] = e.in_state
                        lo[side] = e.out_state
                        yield from cycles(labels + ((side, k),), tuple(fi), tuple(lo))

    total = Fraction(0)
    for labels in cycles((), (None, None), (None, None)):
        edges = [sides[s].edges[j] for s, j in labels]
        if (labels != min(labels[i:] + labels[:i] for i in range(len(labels)))
                or not any(h.weight.flag for h in edges)):
            continue
        a = Fraction(1)
        for h in edges:
            a *= h.weight.a
        for cell in cells.source_cells(*labels[0]):
            x, coords = home = point(cell)
            passes = 0
            while passes == 0 or (x, coords) != home:
                for h in edges:
                    if not holds(h.source, x, coords):
                        break
                    x, coords = ref_apply_point(h.mapd, x, coords)
                else:
                    passes += 1
                    continue
                break
            else:
                total += vol * a**passes / passes
    norm = Fraction(0)
    sources = set()
    for side in (0, 1):
        held = {}
        for k, e in enumerate(sides[side].edges):
            for cell in cells.source_cells(side, k):
                sources.add((side, cell))
                held[cell] = held.get(cell, 0) + e.weight.a
        norm = max([norm, *held.values()])
    return total, len(sources) * vol * norm**(max_len + 1) / (1 - norm)


# -- measure of a Boolean combination of boxes ------------------------------
#
# Boxes are (line_lo, line_hi, {coord: (lo, hi)}).  Every axis is sliced at
# every endpoint that appears, so each grid atom lies inside or outside each
# box as a whole; an atom counts when its per-set cover counts pass keep.


def _covers(b, corner):
    if not (Fraction(b[0]) <= corner[0] < Fraction(b[1])):
        return False
    for c in range(1, len(corner)):
        lo, hi = b[2].get(c, (0, 1))
        if not (Fraction(lo) <= corner[c] < Fraction(hi)):
            return False
    return True


def grid_measure(sets, dims, keep):
    """Measure of the points whose cover counts pass keep: keep gets, per
    atom, how many boxes of each set in sets cover it."""
    boxes = [b for s in sets for b in s]
    if not boxes:
        return Fraction(0)
    axes = [sorted({Fraction(b[0]) for b in boxes}
                   | {Fraction(b[1]) for b in boxes})]
    for c in range(1, dims + 1):
        cuts = {Fraction(0), Fraction(1)}
        for b in boxes:
            if c in b[2]:
                cuts.add(Fraction(b[2][c][0]))
                cuts.add(Fraction(b[2][c][1]))
        axes.append(sorted(cuts))
    total = Fraction(0)
    for idx in product(*(range(len(ax) - 1) for ax in axes)):
        corner = [axes[d][idx[d]] for d in range(dims + 1)]
        if keep(tuple(sum(_covers(b, corner) for b in s) for s in sets)):
            size = Fraction(1)
            for d in range(dims + 1):
                size *= axes[d][idx[d] + 1] - axes[d][idx[d]]
            total += size
    return total


def union_measure(boxes, dims):
    return grid_measure([boxes], dims, lambda counts: counts[0] > 0)
