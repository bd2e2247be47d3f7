"""Weighted graphings over the line-with-cube space.

A graphing is a support set, a dialect size, and finitely many edges.
Each edge carries a source set, a dialect state on each end, a map in
normal form, and a weight.  The target set is always derived by applying
the map to the source, never stored.

Refinement and equivalence are decided per interface class: two edges are
in the same class when their dialect states, map and weight all agree, and
graphings are equivalent exactly when, within every class, the same points
are covered with the same multiplicity (almost everywhere).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import NonComparable, NotInjective, OverlappingSupports
from .microcosm import TransformationDescriptor
from .space import (MSet, _int_field, _object_field, _overlay, contains_ae,
                    equal_ae, rat, rat_str)

__all__ = [
    "Weight",
    "Edge",
    "GraphingRep",
    "SymValue",
    "Project",
    "validate",
    "refines",
    "equivalent",
    "rename_dialect",
    "tensor",
    "tensor_graphings",
    "ONE",
]


class Weight:
    """Dilation part in [0,1] plus a boolean marker flag.

    Products multiply the dilations and OR the flags, so a flagged edge
    taints every path through it.
    """

    __slots__ = ("a", "flag")

    def __init__(self, a=1, flag: int = 0):
        self.a = rat(a)
        if not (0 <= self.a <= 1):
            raise ValueError(f"weight dilation must lie in [0,1], got {self.a}")
        if flag not in (0, 1):
            raise ValueError(f"weight flag must be 0 or 1, got {flag!r}")
        self.flag = int(flag)

    def __mul__(self, other: "Weight") -> "Weight":
        # a product of dilations in [0,1] stays there: no check needed
        w = object.__new__(Weight)
        w.a, w.flag = self.a * other.a, self.flag | other.flag
        return w

    def to_json(self) -> dict:
        return {"a": rat_str(self.a), "flag": self.flag}

    @classmethod
    def from_json(cls, data) -> "Weight":
        if data is None:
            return ONE
        data = _object_field(data, "weight")
        return cls(rat(data.get("a", 1)), _int_field(data.get("flag", 0), "flag"))

    def __eq__(self, other):
        return isinstance(other, Weight) and self.a == other.a and self.flag == other.flag

    def __hash__(self):
        return hash((self.a, self.flag))

    def __repr__(self):
        return f"Weight({self.a}, {self.flag})"


ONE = Weight(1, 0)


class Edge:
    __slots__ = ("source", "in_state", "out_state", "mapd", "weight")

    def __init__(self, source: MSet, in_state: int, out_state: int,
                 mapd: TransformationDescriptor, weight: Weight = ONE):
        self.source = source
        self.in_state = int(in_state)
        self.out_state = int(out_state)
        self.mapd = mapd
        self.weight = weight

    def target(self) -> MSet:
        return self.mapd.apply_mset(self.source)

    def clss(self):
        """Interface class key: everything but the source set."""
        return (self.in_state, self.out_state, self.mapd.key(), self.weight.a, self.weight.flag)

    def to_json(self) -> dict:
        out = {
            "source": self.source.to_json(),
            "in": self.in_state,
            "out": self.out_state,
            "map": self.mapd.to_json(),
        }
        if self.weight != ONE:
            out["weight"] = self.weight.to_json()
        return out

    @classmethod
    def from_json(cls, data) -> "Edge":
        if not isinstance(data, dict) or "source" not in data:
            raise ValueError(f"edge needs a 'source' field, got {data!r}")
        return cls(
            MSet.from_json(data["source"]),
            _int_field(data.get("in", 0), "in"),
            _int_field(data.get("out", 0), "out"),
            TransformationDescriptor.from_json(data.get("map", {})),
            Weight.from_json(data.get("weight")),
        )

    def __repr__(self):
        return (f"Edge({self.source!r}, {self.in_state}->{self.out_state}, "
                f"{self.mapd!r}, {self.weight!r})")


class GraphingRep:
    __slots__ = ("support", "dialect_size", "edges")

    def __init__(self, support: MSet, dialect_size: int, edges: Sequence[Edge] = ()):
        if dialect_size < 1:
            raise ValueError("dialect size must be at least 1")
        self.support = support
        self.dialect_size = int(dialect_size)
        self.edges = tuple(edges)

    def to_json(self) -> dict:
        return {
            "support": self.support.to_json(),
            "dialect": self.dialect_size - 1,
            "edges": [e.to_json() for e in self.edges],
        }

    @classmethod
    def from_json(cls, data) -> "GraphingRep":
        if not isinstance(data, dict):
            raise ValueError(f"graphing must be an object, got {data!r}")
        edges = data.get("edges", [])
        if not isinstance(edges, list):
            raise ValueError(f"graphing 'edges' must be a list, got {edges!r}")
        return cls(
            MSet.from_json(data.get("support", [])),
            _int_field(data.get("dialect", 0), "dialect") + 1,
            [Edge.from_json(e) for e in edges],
        )

    def __repr__(self):
        return (f"GraphingRep(support={self.support!r}, dialect={self.dialect_size}, "
                f"{len(self.edges)} edges)")


def validate(g: GraphingRep, spec) -> list[str]:
    """Check every edge against a map family and the support; returns
    human-readable diagnostics, empty when the graphing is valid."""
    from .microcosm import MicrocosmSpec, member

    if isinstance(spec, str):
        spec = MicrocosmSpec.parse(spec)
    diags = []
    for k, e in enumerate(g.edges):
        if not (0 <= e.in_state < g.dialect_size):
            diags.append(f"edge {k}: in state {e.in_state} outside dialect")
        if not (0 <= e.out_state < g.dialect_size):
            diags.append(f"edge {k}: out state {e.out_state} outside dialect")
        if not member(e.mapd, spec):
            diags.append(f"edge {k}: map {e.mapd!r} outside {spec!r}")
        if not contains_ae(g.support, e.source):
            diags.append(f"edge {k}: source leaves the support")
        elif not contains_ae(g.support, e.target()):
            diags.append(f"edge {k}: target leaves the support")
    return diags


def _classes(g: GraphingRep) -> dict:
    out: dict = {}
    for e in g.edges:
        if e.source.is_empty():
            continue
        out.setdefault(e.clss(), []).append(e.source)
    return out


def _multiplicities_match(fs: list[MSet], gs: list[MSet]) -> bool:
    """Do fs and gs cover every point equally often?  A set in normal
    form is disjoint, so it covers a point at most once."""
    n = len(fs)
    return _overlay([s.boxes for s in fs + gs],
                    lambda tags: sum(1 if t < n else -1 for t in tags) != 0).is_empty()


def refines(f: GraphingRep, g: GraphingRep) -> bool:
    """Does f refine g: every g edge splits into f edges of the same class,
    covering the same points the same number of times."""
    if f.dialect_size != g.dialect_size:
        return False
    if not equal_ae(f.support, g.support):
        return False
    fc, gc = _classes(f), _classes(g)
    if set(fc) != set(gc):
        return False
    for key in fc:
        fs, gs = fc[key], gc[key]
        if not _multiplicities_match(fs, gs):
            return False
        for s in fs:
            if not any(t.contains(s) for t in gs):
                return False
    return True


def equivalent(f: GraphingRep, g: GraphingRep) -> bool:
    """Almost-everywhere equality of the underlying weighted graphs.

    Graphings over different supports or dialects are not comparable at
    all and raise; graphings with matching frames but different edges
    simply compare unequal.
    """
    if f.dialect_size != g.dialect_size:
        raise NonComparable(
            f"dialect sizes differ: {f.dialect_size} vs {g.dialect_size}")
    if not equal_ae(f.support, g.support):
        raise NonComparable("supports differ on a set of positive measure")
    fc, gc = _classes(f), _classes(g)
    for key in set(fc) | set(gc):
        if not _multiplicities_match(fc.get(key, []), gc.get(key, [])):
            return False
    return True


def rename_dialect(g: GraphingRep, injection: Mapping[int, int],
                   new_size: int | None = None) -> GraphingRep:
    """Push the dialect along an injective map of state indices."""
    table = {int(k): int(v) for k, v in injection.items()}
    for s in range(g.dialect_size):
        if s not in table:
            raise NotInjective(f"renaming does not cover state {s}")
        if table[s] < 0:
            raise NotInjective(f"state {s} renamed to negative {table[s]}")
    if len(set(table[s] for s in range(g.dialect_size))) != g.dialect_size:
        raise NotInjective("renaming collides two states")
    if new_size is None:
        new_size = max(table[s] for s in range(g.dialect_size)) + 1
    edges = [
        Edge(e.source, table[e.in_state], table[e.out_state], e.mapd, e.weight)
        for e in g.edges
    ]
    return GraphingRep(g.support, new_size, edges)


class SymValue:
    """Rational value with a formal multiple of the test scalar zeta."""

    __slots__ = ("const", "zeta")

    def __init__(self, const=0, zeta=0):
        self.const = rat(const)
        self.zeta = rat(zeta)

    def __add__(self, other):
        if isinstance(other, SymValue):
            return SymValue(self.const + other.const, self.zeta + other.zeta)
        return SymValue(self.const + rat(other), self.zeta)

    __radd__ = __add__

    def scale(self, c) -> "SymValue":
        c = rat(c)
        return SymValue(self.const * c, self.zeta * c)

    def to_json(self):
        if self.zeta == 0:
            return rat_str(self.const)
        return {"const": rat_str(self.const), "zeta": rat_str(self.zeta)}

    @classmethod
    def coerce(cls, value) -> "SymValue":
        if isinstance(value, SymValue):
            return value
        return cls(rat(value), 0)

    def __eq__(self, other):
        if not isinstance(other, SymValue):
            other = SymValue.coerce(other)
        return self.const == other.const and self.zeta == other.zeta

    def __hash__(self):
        return hash((self.const, self.zeta))

    def __repr__(self):
        if self.zeta == 0:
            return f"SymValue({self.const})"
        return f"SymValue({self.const} + {self.zeta}*zeta)"


class Project:
    """Formal combination: a wrapper scalar plus weighted graphings."""

    __slots__ = ("wrapper", "terms")

    def __init__(self, wrapper, terms: Iterable = ()):
        self.wrapper = SymValue.coerce(wrapper)
        cleaned = []
        for coeff, g in terms:
            coeff = rat(coeff)
            if not isinstance(g, GraphingRep):
                raise TypeError("project terms must pair scalars with graphings")
            cleaned.append((coeff, g))
        self.terms = tuple(cleaned)

    def coeff_sum(self) -> Fraction:
        return sum((c for c, _ in self.terms), Fraction(0))

    def support(self) -> MSet:
        out = MSet()
        for _, g in self.terms:
            out = out.union(g.support)
        return out

    def __repr__(self):
        return f"Project({self.wrapper!r}, {len(self.terms)} terms)"


def tensor_graphings(a: GraphingRep, b: GraphingRep) -> GraphingRep:
    """Juxtaposition of graphings on disjoint supports.

    The dialect becomes the product, renamed to an initial segment by
    (i, j) -> i * |b| + j; each edge acts as the identity on the other
    component's dialect.
    """
    if not a.support.intersect(b.support).is_empty():
        raise OverlappingSupports("tensor requires disjoint supports")
    size = a.dialect_size * b.dialect_size

    def pair(i: int, j: int) -> int:
        return i * b.dialect_size + j

    edges = []
    for e in a.edges:
        for j in range(b.dialect_size):
            edges.append(Edge(e.source, pair(e.in_state, j), pair(e.out_state, j),
                              e.mapd, e.weight))
    for e in b.edges:
        for i in range(a.dialect_size):
            edges.append(Edge(e.source, pair(i, e.in_state), pair(i, e.out_state),
                              e.mapd, e.weight))
    return GraphingRep(a.support.union(b.support), size, edges)


def tensor(p: Project, q: Project) -> Project:
    """Tensor of projects.

    The wrapper mixes the two wrappers through the coefficient sums; the
    cross-measurement term vanishes because disjoint supports admit no
    alternating circuit at all.
    """
    wrapper = p.wrapper.scale(q.coeff_sum()) + q.wrapper.scale(p.coeff_sum())
    terms = []
    for ca, ga in p.terms:
        for cb, gb in q.terms:
            terms.append((ca * cb, tensor_graphings(ga, gb)))
    return Project(wrapper, terms)
