"""Maps of the space and the families they generate.

A transformation acts as an affine map on the line component and as a
finitely-supported coordinate permutation followed by circle shifts on the
cube component:

    (x, s)  |->  (slope*x + offset,  shifts(perm(s)))

Each shift moves one coordinate by a rational amount mod 1.  The normal
form (slope, offset, perm, shifts) is unique, so composition and inversion
are algebra on these four fields and equality is field equality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import WrapSplitRequired
from .space import Box, Interval, MSet, _int_field, _object_field, rat, rat_str

__all__ = [
    "Perm",
    "TransformationDescriptor",
    "MicrocosmSpec",
    "classify",
    "member",
    "decompose_star",
    "IDENTITY",
]


class Perm:
    """Finitely-supported permutation of the positive integers."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[int, int] | Iterable = ()):
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        m = {}
        for k, v in items:
            k, v = int(k), int(v)
            if k < 1 or v < 1:
                raise ValueError("permutations act on indices >= 1")
            if k != v:
                m[k] = v
        if sorted(m.keys()) != sorted(m.values()):
            raise ValueError(f"not a permutation: {m!r}")
        self._map = tuple(sorted(m.items()))

    @classmethod
    def identity(cls) -> "Perm":
        """The identity, one shared instance."""
        return _IDENTITY_PERM

    @classmethod
    def transposition(cls, i: int, j: int) -> "Perm":
        if i == j:
            return cls()
        return cls({i: j, j: i})

    def __call__(self, i: int) -> int:
        for k, v in self._map:
            if k == i:
                return v
        return i

    def inverse(self) -> "Perm":
        return Perm({v: k for k, v in self._map})

    def compose(self, other: "Perm") -> "Perm":
        """self after other."""
        idxs = {k for k, _ in self._map} | {k for k, _ in other._map}
        return Perm({i: self(other(i)) for i in idxs})

    def support(self) -> frozenset[int]:
        return frozenset(k for k, _ in self._map)

    def is_identity(self) -> bool:
        return not self._map

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for k, _ in self._map:
            if k in seen:
                continue
            cyc = [k]
            seen.add(k)
            j = self(k)
            while j != k:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        return out

    def to_json(self) -> dict:
        return {str(k): v for k, v in self._map}

    @classmethod
    def from_json(cls, data) -> "Perm":
        return cls({_int_field(k, "perm"): _int_field(v, "perm")
                    for k, v in _object_field(data, "perm").items()})

    def __eq__(self, other):
        return isinstance(other, Perm) and self._map == other._map

    def __hash__(self):
        return hash(self._map)

    def __repr__(self):
        if not self._map:
            return "Perm.identity()"
        return f"Perm({dict(self._map)!r})"


_IDENTITY_PERM = Perm()


def _frac_part(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


class TransformationDescriptor:
    """Normal form of a map of the space; immutable."""

    __slots__ = ("slope", "offset", "perm", "shifts")

    def __init__(self, slope=1, offset=0, perm: Perm | None = None, shifts: Mapping[int, Fraction] | None = None):
        self.slope = rat(slope)
        self.offset = rat(offset)
        if self.slope == 0:
            raise ValueError("slope must be nonzero")
        self.perm = perm if perm is not None else Perm.identity()
        cleaned = {}
        for idx, lam in (shifts or {}).items():
            idx = int(idx)
            if idx < 1:
                raise ValueError("shift coordinates are indexed from 1")
            lam = _frac_part(rat(lam))
            if lam != 0:
                cleaned[idx] = lam
        self.shifts = tuple(sorted(cleaned.items()))

    def shift(self, idx: int) -> Fraction:
        for i, lam in self.shifts:
            if i == idx:
                return lam
        return Fraction(0)

    def is_identity(self) -> bool:
        return (
            self.slope == 1
            and self.offset == 0
            and self.perm.is_identity()
            and not self.shifts
        )

    def key(self):
        """Sortable identity: the perm enters as its sorted pairs."""
        return (self.slope, self.offset, self.perm._map, self.shifts)

    @classmethod
    def _normal(cls, slope, offset, perm, shifts) -> "TransformationDescriptor":
        """Wrap fields that are already in normal form, unchecked."""
        d = object.__new__(cls)
        d.slope, d.offset, d.perm, d.shifts = slope, offset, perm, shifts
        return d

    def compose(self, other: "TransformationDescriptor") -> "TransformationDescriptor":
        """self after other.  Both are normal, so the fields compose
        directly: other's shift on i moves to perm(i), and two shifts in
        [0,1) sum below 2."""
        if self.slope == 1:
            slope, offset = other.slope, other.offset + self.offset
        else:
            slope = self.slope * other.slope
            offset = self.slope * other.offset + self.offset
        p = self.perm
        if p.is_identity():
            perm = other.perm
        elif other.perm.is_identity():
            perm = p
        else:
            perm = p.compose(other.perm)
        merged = {p(i): lam for i, lam in other.shifts}
        for j, lam in self.shifts:
            s = merged.get(j, 0) + lam
            merged[j] = s - 1 if s >= 1 else s
        shifts = tuple(sorted((j, lam) for j, lam in merged.items() if lam))
        return TransformationDescriptor._normal(slope, offset, perm, shifts)

    def inverse(self) -> "TransformationDescriptor":
        slope = 1 / self.slope
        offset = -self.offset / self.slope
        perm = self.perm.inverse()
        shifts = {perm(j): _frac_part(-lam) for j, lam in self.shifts}
        return TransformationDescriptor(slope, offset, perm, shifts)

    def power(self, n: int) -> "TransformationDescriptor":
        if n < 0:
            return self.inverse().power(-n)
        out = IDENTITY
        base = self
        while n:
            if n & 1:
                out = base.compose(out)
            base = base.compose(base)
            n >>= 1
        return out

    def order(self) -> int | None:
        """Least n >= 1 with self^n the identity, None if there is none."""
        if self.slope == 1 and self.offset != 0:
            return None
        if self.slope == 1:
            p = self.perm.order()
            g = self.power(p)
            t = 1
            for _, lam in g.shifts:
                t = math.lcm(t, lam.denominator)
            return p * t
        if self.slope == -1:
            sq = self.compose(self)
            sub = sq.order()
            return None if sub is None else 2 * sub
        return None

    def apply_box(self, box: Box) -> Box:
        """Image of a box; raises WrapSplitRequired if a shift tears it."""
        lo = self.slope * box.line.lo + self.offset
        hi = self.slope * box.line.hi + self.offset
        line = Interval(min(lo, hi), max(lo, hi))
        inv = self.perm.inverse()
        idxs = {self.perm(i) for i, _ in box.coords} | {i for i, _ in self.shifts}
        coords = {}
        for j in sorted(idxs):
            iv = box.coord(inv(j))
            lam = self.shift(j)
            a = _frac_part(iv.lo + lam)
            b = a + iv.width()
            if b > 1:
                raise WrapSplitRequired(
                    f"shift {rat_str(lam)} on coordinate {j} tears [{iv.lo},{iv.hi})"
                )
            coords[j] = Interval(a, b)
        return Box(line, coords)

    def apply_mset(self, m: MSet) -> MSet:
        """Image of a set, splitting boxes at shift seams as needed."""
        pieces = list(m.boxes)
        for j, lam in self.shifts:
            src = self.perm.inverse()(j)
            cut = _frac_part(-lam)
            if cut == 0:
                continue
            nxt = []
            for b in pieces:
                iv = b.coord(src)
                if iv.lo < cut < iv.hi:
                    for part in (Interval(iv.lo, cut), Interval(cut, iv.hi)):
                        coords = dict(b.coords)
                        coords[src] = part
                        nxt.append(Box(b.line, coords))
                else:
                    nxt.append(b)
            pieces = nxt
        return MSet([self.apply_box(b) for b in pieces])

    def to_json(self) -> dict:
        out: dict = {"slope": rat_str(self.slope), "offset": rat_str(self.offset)}
        if not self.perm.is_identity():
            out["perm"] = self.perm.to_json()
        if self.shifts:
            out["shifts"] = {str(i): rat_str(lam) for i, lam in self.shifts}
        return out

    @classmethod
    def from_json(cls, data) -> "TransformationDescriptor":
        data = _object_field(data, "map")
        perm = Perm.from_json(data.get("perm", {}))
        shifts = {_int_field(k, "shifts"): rat(v)
                  for k, v in _object_field(data.get("shifts", {}), "shifts").items()}
        return cls(rat(data.get("slope", 1)), rat(data.get("offset", 0)), perm, shifts)

    @classmethod
    def translation(cls, z) -> "TransformationDescriptor":
        return cls(1, z)

    @classmethod
    def coordinate_shift(cls, idx: int, lam) -> "TransformationDescriptor":
        return cls(1, 0, None, {idx: rat(lam)})

    def __eq__(self, other):
        return isinstance(other, TransformationDescriptor) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        parts = [f"{self.slope}x+{self.offset}"]
        if not self.perm.is_identity():
            parts.append(repr(self.perm))
        if self.shifts:
            parts.append("shifts=" + repr({i: str(l) for i, l in self.shifts}))
        return f"TransformationDescriptor({', '.join(parts)})"


IDENTITY = TransformationDescriptor()


class MicrocosmSpec:
    """Named family of maps: z, h, aff, m(i), mbar(i), or macrocosm.

    The index may be a positive integer or None, None standing for the
    unbounded family.
    """

    __slots__ = ("kind", "index")

    KINDS = ("z", "h", "aff", "m", "mbar", "macrocosm")

    def __init__(self, kind: str, index: int | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown family {kind!r}")
        if kind in ("m", "mbar"):
            if index is not None and index < 1:
                raise ValueError("family index must be >= 1")
        elif index is not None:
            raise ValueError(f"family {kind!r} takes no index")
        self.kind = kind
        self.index = index

    @classmethod
    def parse(cls, text: str) -> "MicrocosmSpec":
        text = text.strip()
        for kind in ("mbar", "m"):
            if text.startswith(kind + "(") and text.endswith(")"):
                inner = text[len(kind) + 1 : -1].strip()
                if inner in ("inf", "oo", ""):
                    return cls(kind, None)
                return cls(kind, int(inner))
        if text in ("z", "h", "aff", "macrocosm"):
            return cls(text)
        if text in ("m", "mbar"):
            return cls(text, None)
        raise ValueError(f"unknown family {text!r}")

    def __eq__(self, other):
        return (
            isinstance(other, MicrocosmSpec)
            and self.kind == other.kind
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.kind, self.index))

    def __repr__(self):
        if self.kind in ("m", "mbar"):
            return f"{self.kind}({self.index if self.index is not None else 'inf'})"
        return self.kind


def member(f: TransformationDescriptor, spec: MicrocosmSpec) -> bool:
    """Does the map belong to the named family?"""
    if spec.kind == "macrocosm":
        return True
    plain_cube = f.perm.is_identity() and not f.shifts
    integral = f.slope.denominator == 1 and f.offset.denominator == 1
    if spec.kind == "z":
        return f.slope == 1 and f.offset.denominator == 1 and plain_cube
    if spec.kind == "h":
        return f.offset == 0 and f.slope.denominator == 1 and plain_cube
    if spec.kind == "aff":
        return integral and plain_cube
    if f.slope != 1 or f.offset.denominator != 1:
        return False
    bound = spec.index
    if spec.kind == "m":
        if f.shifts:
            return False
        supp = f.perm.support()
    else:
        supp = f.perm.support() | {i for i, _ in f.shifts}
    if bound is None:
        return True
    return all(i <= bound for i in supp)


def classify(f: TransformationDescriptor) -> set[MicrocosmSpec]:
    """The named families containing f, with least indices where bounded.

    Memberships that hold for every map (macrocosm, the unbounded star
    families) are left implicit; member() still reports them.
    """
    out: set[MicrocosmSpec] = set()
    for kind in ("z", "h", "aff"):
        if member(f, MicrocosmSpec(kind)):
            out.add(MicrocosmSpec(kind))
    if f.slope == 1 and f.offset.denominator == 1:
        cube_supp = f.perm.support() | {i for i, _ in f.shifts}
        least = max(cube_supp, default=1)
        if not f.shifts:
            out.add(MicrocosmSpec("m", least))
        out.add(MicrocosmSpec("mbar", least))
    return out


def decompose_star(perm: Perm) -> list[int]:
    """Write perm as a product of transpositions (1 j), first applied first.

    The returned list [j1, ..., jm] satisfies
    perm = (1 jm) o ... o (1 j1), with m at most twice the support size.
    """
    out: list[int] = []
    for cyc in perm.cycles():
        if 1 in cyc:
            k = cyc.index(1)
            cyc = cyc[k:] + cyc[:k]
            # (1 c2 ... cn) = (1 cn) o ... o (1 c2)
            out.extend(cyc[1:])
        else:
            # (c1 ... cn) = (1 c1) o (1 cn) o ... o (1 c2) o (1 c1)
            out.append(cyc[0])
            out.extend(cyc[1:])
            out.append(cyc[0])
    return out
