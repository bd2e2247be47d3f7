"""Machines: graphings that interact with word representations.

A machine is a graphing over the standard vertex blocks whose maps are
block translations composed with coordinate permutations.  Running a
machine on a word plugs the two graphings along the interface blocks;
what remains lives on the answer blocks and is judged against the answer
test.

Essential machines only use star transpositions.  essentialize rewrites
an arbitrary machine into an essential one by chaining each edge through
fresh dialect states: the extra hops bounce off the word inward and back
outward, so every intermediate displacement cancels and the language is
unchanged.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotEssential
from .execution import plug_projects
from .graphings import Edge, GraphingRep, ONE, Project, validate
from .measurement import decide_against_test
from .microcosm import Perm, TransformationDescriptor, decompose_star
from .space import MSet, _int_field
from .words import (DEFAULT_PSI, IN, OUT, SYMBOLS, VertexTable, _words_upto,
                    representation)

__all__ = [
    "Machine",
    "validate_machine",
    "compute",
    "accepts",
    "language_m",
    "is_essential",
    "essentialize",
]


class Machine:
    def __init__(self, graphing: GraphingRep, head_bound: int,
                 psi: VertexTable = DEFAULT_PSI):
        self.graphing = graphing
        self.head_bound = int(head_bound)
        self.psi = psi

    def to_json(self) -> dict:
        return {"graphing": self.graphing.to_json(), "headBound": self.head_bound}

    @classmethod
    def from_json(cls, data, psi: VertexTable = DEFAULT_PSI) -> "Machine":
        if not isinstance(data, dict) or "graphing" not in data:
            raise ValueError(f"machine needs a 'graphing' field, got {data!r}")
        bound = _int_field(data.get("headBound", 1), "headBound")
        if bound < 1:
            raise ValueError(f"headBound must be at least 1, got {bound}")
        return cls(GraphingRep.from_json(data["graphing"]), bound, psi)

    def __repr__(self):
        return (f"Machine({len(self.graphing.edges)} edges, "
                f"dialect {self.graphing.dialect_size}, "
                f"heads<= {self.head_bound})")


def validate_machine(g: GraphingRep, psi: VertexTable = DEFAULT_PSI,
                     head_bound: int | None = None) -> list[str]:
    """Diagnostics for a would-be machine graphing; empty when fine."""
    from .space import equal_ae

    diags = []
    if not equal_ae(g.support, psi.machine_support()):
        diags.append("support is not the standard vertex blocks")
    bound = head_bound if head_bound is not None else max(
        [max(e.mapd.perm.support(), default=1) for e in g.edges], default=1)
    diags.extend(validate(g, f"m({bound})"))
    return diags


def compute(m: Machine, word: str, cap: int | None = None) -> Project:
    """Run a machine against a word, on the machine's vertex blocks; the
    cap is the budget of the plug."""
    return plug_projects(
        Project(0, [(Fraction(1), m.graphing)]),
        Project(0, [(Fraction(1), representation(word, psi=m.psi))]),
        m.psi.interface_mset(),
        cap,
    )


def accepts(m: Machine, w: str, cap: int | None = None) -> bool:
    """Does the machine pass w?  The cap is the budget of every plug and
    circuit search on the way; None reads it from the environment."""
    return decide_against_test(compute(m, w, cap), m.psi, cap) == "pass"


def language_m(m: Machine, max_len: int) -> list[str]:
    return [w for w in _words_upto(max_len) if accepts(m, w)]


def _is_star(p: Perm) -> bool:
    supp = p.support()
    return len(supp) == 0 or (len(supp) == 2 and 1 in supp)


def is_essential(m: Machine) -> bool:
    return all(_is_star(e.mapd.perm) for e in m.graphing.edges)


def _block_start(box) -> int:
    line = box.line
    if line.lo.denominator != 1 or line.hi - line.lo != 1:
        raise NotEssential(
            f"edge source [{line.lo},{line.hi}) is not a unit block")
    return int(line.lo)


def essentialize(m: Machine) -> Machine:
    """Rewrite every edge to use star transpositions only.

    An edge with permutation sigma becomes a chain: one outward hop per
    factor of the star decomposition, an inward identity hop between two,
    so the word steps forward then straight back, all behind fresh dialect
    states.  Hop h leaves the edge's block if h is 0, else any outward
    block; the last hop lands on the edge's target with its weight, the
    others on every outward block, guessing the symbol there.  Wrong
    guesses die inside the interface.
    """
    psi = m.psi
    g = m.graphing
    edges: list[Edge] = []
    size = g.dialect_size
    outs = [(psi.mset((x, OUT)), psi.block((x, OUT))) for x in SYMBOLS]
    backs = [psi.mset((y, IN)) for y in SYMBOLS]

    for e in g.edges:
        if _is_star(e.mapd.perm):
            edges.append(e)
            continue
        # a non-star perm has at least two star factors, so hop 0 is never
        # the last one
        js = decompose_star(e.mapd.perm)
        t = len(js)
        for box in e.source.boxes:
            blk = _block_start(box)
            chain = [e.in_state] + [size + i for i in range(2 * t - 2)] + [e.out_state]
            size += 2 * t - 2
            for h, j in enumerate(js):
                a, b = chain[2 * h], chain[2 * h + 1]
                if h:
                    # inward hop: hold position while the word steps back
                    edges.extend(Edge(src, chain[2 * h - 1], a,
                                      TransformationDescriptor())
                                 for src in backs)
                sources = outs if h else [(MSet([box]), blk)]
                last = h == t - 1
                lands = [blk + int(e.mapd.offset)] if last else [x for _, x in outs]
                for src, lo in sources:
                    for land in lands:
                        edges.append(Edge(src, a, b, TransformationDescriptor(
                            offset=land - lo, perm=Perm.transposition(1, j)),
                            e.weight if last else ONE))
    return Machine(GraphingRep(g.support, size, edges), m.head_bound, psi)
