"""Measurable subsets of the line-with-cube space Z x [0,1]^N.

Everything here is a finite union of half-open rational boxes.  A box is a
half-open interval on the line crossed with finitely many half-open
constraints on the cube coordinates (coordinates without a constraint are
the full [0,1)).  All set predicates are almost-everywhere ones: two sets
that differ by a null set are the same set for every purpose in this
library.

MSet values are kept in a canonical normal form (a sorted, disjoint slab
decomposition), so almost-everywhere equality is literal equality of the
normal forms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Interval",
    "Box",
    "MSet",
    "rat",
    "rat_str",
    "intersect",
    "union",
    "difference",
    "measure",
    "equal_ae",
    "contains_ae",
    "EMPTY",
]


def rat(value) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to Fraction; ValueError
    for anything else."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"cannot interpret {value!r} as a rational")


def _int_field(value, field: str) -> int:
    """A JSON field read as an integer, or ValueError naming it."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{field!r} must be an integer, got {value!r}") from None


def _object_field(value, field: str) -> dict:
    """A JSON field that must be an object, or ValueError naming it."""
    if not isinstance(value, dict):
        raise ValueError(f"{field!r} must be an object, got {value!r}")
    return value


def rat_str(value: Fraction) -> str:
    value = rat(value)
    return f"{value.numerator}/{value.denominator}"


class Interval:
    """Half-open rational interval [lo, hi).  Empty when lo >= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = rat(lo)
        self.hi = rat(hi)

    def is_empty(self) -> bool:
        return self.lo >= self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo if self.hi > self.lo else Fraction(0)

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def contains(self, other: "Interval") -> bool:
        """other is a subset of self (both taken as honest sets)."""
        if other.is_empty():
            return True
        return self.lo <= other.lo and other.hi <= self.hi

    def to_json(self) -> list:
        return [rat_str(self.lo), rat_str(self.hi)]

    @classmethod
    def from_json(cls, data: Sequence) -> "Interval":
        if not isinstance(data, (list, tuple)) or len(data) != 2:
            raise ValueError(f"interval must be a [lo, hi] pair, got {data!r}")
        return cls(rat(data[0]), rat(data[1]))

    def __eq__(self, other):
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"


UNIT = Interval(0, 1)


class Box:
    """Product of a line interval with finitely many cube constraints.

    coords maps a coordinate index (>= 1) to a subinterval of [0,1).
    Full constraints are dropped at construction, so an absent index always
    means the full coordinate.
    """

    __slots__ = ("line", "coords")

    def __init__(self, line: Interval, coords: Mapping[int, Interval] | Iterable = ()):
        self.line = line
        items = coords.items() if isinstance(coords, Mapping) else coords
        cleaned = []
        for idx, iv in items:
            idx = int(idx)
            if idx < 1:
                raise ValueError(f"cube coordinates are indexed from 1, got {idx}")
            if iv.lo < 0 or iv.hi > 1:
                raise ValueError(f"coordinate {idx} constraint {iv!r} leaves [0,1)")
            if iv.lo <= 0 and iv.hi >= 1:
                continue
            cleaned.append((idx, iv))
        cleaned.sort(key=lambda p: p[0])
        self.coords = tuple(cleaned)

    def coord(self, idx: int) -> Interval:
        for i, iv in self.coords:
            if i == idx:
                return iv
        return UNIT

    def is_empty(self) -> bool:
        if self.line.is_empty():
            return True
        return any(iv.is_empty() for _, iv in self.coords)

    def measure(self) -> Fraction:
        m = self.line.width()
        for _, iv in self.coords:
            m *= iv.width()
        return m

    def intersect(self, other: "Box") -> "Box":
        line = self.line.intersect(other.line)
        idxs = {i for i, _ in self.coords} | {i for i, _ in other.coords}
        coords = [(i, self.coord(i).intersect(other.coord(i))) for i in sorted(idxs)]
        return Box(line, coords)

    def sort_key(self):
        return (self.line.lo, self.line.hi, tuple((i, iv.lo, iv.hi) for i, iv in self.coords))

    def to_json(self) -> dict:
        out: dict = {"line": self.line.to_json()}
        if self.coords:
            out["coords"] = {str(i): iv.to_json() for i, iv in self.coords}
        return out

    @classmethod
    def from_json(cls, data) -> "Box":
        if not isinstance(data, dict) or "line" not in data:
            raise ValueError(f"box must be an object with a 'line' field, got {data!r}")
        coords = {}
        for key, val in _object_field(data.get("coords", {}), "coords").items():
            coords[int(key)] = Interval.from_json(val)
        return cls(Interval.from_json(data["line"]), coords)

    def __eq__(self, other):
        return (
            isinstance(other, Box)
            and self.line == other.line
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.line, self.coords))

    def __repr__(self):
        if not self.coords:
            return f"Box({self.line!r})"
        cs = ", ".join(f"{i}: [{iv.lo},{iv.hi})" for i, iv in self.coords)
        return f"Box({self.line!r}, {{{cs}}})"


def _box_minus(a: Box, b: Box) -> list[Box]:
    """a minus b as a list of disjoint boxes."""
    core = a.intersect(b)
    if core.is_empty():
        return [a]
    out = []
    remaining = a
    dims: list[int | None] = [None] + [i for i, _ in core.coords]
    for dim in dims:
        if dim is None:
            av, bv = remaining.line, b.line
        else:
            av, bv = remaining.coord(dim), b.coord(dim)
        left = Interval(av.lo, min(av.hi, bv.lo))
        right = Interval(max(av.lo, bv.hi), av.hi)
        mid = av.intersect(bv)
        for part in (left, right):
            if part.is_empty():
                continue
            if dim is None:
                out.append(Box(part, remaining.coords))
            else:
                coords = dict(remaining.coords)
                coords[dim] = part
                out.append(Box(remaining.line, coords))
        if dim is None:
            remaining = Box(mid, remaining.coords)
        else:
            coords = dict(remaining.coords)
            coords[dim] = mid
            remaining = Box(remaining.line, coords)
    return out


def _fiber_normal(fibers: list[tuple[tuple[int, Interval], ...]]) -> tuple:
    """Canonical disjoint decomposition of a union of coordinate boxes.

    Input and output are tuples of ((idx, Interval), ...) entries; the
    output entries are pairwise disjoint and the decomposition is uniquely
    determined by the union, which is what makes MSet equality literal.
    """
    dims = sorted({i for fib in fibers for i, _ in fib})
    if not dims:
        # at least one unconstrained member makes the whole cube
        return ((),)
    d = dims[0]

    def get(fib, idx):
        for i, iv in fib:
            if i == idx:
                return iv
        return UNIT

    def strip(fib, idx):
        return tuple((i, iv) for i, iv in fib if i != idx)

    pts = sorted({p for fib in fibers for iv in (get(fib, d),) for p in (iv.lo, iv.hi)})
    slabs: list[tuple[Fraction, Fraction, tuple]] = []
    for lo, hi in zip(pts, pts[1:]):
        members = [strip(fib, d) for fib in fibers if get(fib, d).lo <= lo and get(fib, d).hi >= hi]
        if not members:
            continue
        sub = _fiber_normal(members)
        if slabs and slabs[-1][1] == lo and slabs[-1][2] == sub:
            slabs[-1] = (slabs[-1][0], hi, sub)
        else:
            slabs.append((lo, hi, sub))
    if len(slabs) == 1 and slabs[0][0] == 0 and slabs[0][1] == 1:
        return slabs[0][2]
    out = []
    for lo, hi, sub in slabs:
        for fib in sub:
            out.append(((d, Interval(lo, hi)),) + fib)
    return tuple(out)


def _normalize(boxes: Iterable[Box]) -> tuple[Box, ...]:
    boxes = [b for b in boxes if not b.is_empty()]
    if not boxes:
        return ()
    pts = sorted({p for b in boxes for p in (b.line.lo, b.line.hi)})
    slabs: list[tuple[Fraction, Fraction, tuple]] = []
    for lo, hi in zip(pts, pts[1:]):
        members = [b.coords for b in boxes if b.line.lo <= lo and b.line.hi >= hi]
        if not members:
            continue
        fib = _fiber_normal(members)
        if slabs and slabs[-1][1] == lo and slabs[-1][2] == fib:
            slabs[-1] = (slabs[-1][0], hi, fib)
        else:
            slabs.append((lo, hi, fib))
    out = []
    for lo, hi, fib in slabs:
        for coords in fib:
            out.append(Box(Interval(lo, hi), coords))
    out.sort(key=Box.sort_key)
    return tuple(out)


class MSet:
    """Finite union of boxes, stored in canonical normal form."""

    __slots__ = ("boxes",)

    def __init__(self, boxes: Iterable[Box] = ()):
        self.boxes = _normalize(boxes)

    def is_empty(self) -> bool:
        return not self.boxes

    def measure(self) -> Fraction:
        return sum((b.measure() for b in self.boxes), Fraction(0))

    def intersect(self, other: "MSet") -> "MSet":
        out = []
        for a in self.boxes:
            for b in other.boxes:
                c = a.intersect(b)
                if not c.is_empty():
                    out.append(c)
        return MSet(out)

    def union(self, other: "MSet") -> "MSet":
        return MSet(self.boxes + other.boxes)

    def difference(self, other: "MSet") -> "MSet":
        pieces = list(self.boxes)
        for b in other.boxes:
            nxt = []
            for p in pieces:
                nxt.extend(_box_minus(p, b))
            pieces = nxt
        return MSet(pieces)

    def contains(self, other: "MSet") -> bool:
        """other is a subset of self up to a null set."""
        return other.difference(self).measure() == 0

    def to_json(self) -> list:
        return [b.to_json() for b in self.boxes]

    @classmethod
    def from_json(cls, data) -> "MSet":
        if not isinstance(data, list):
            raise ValueError(f"measurable set must be a list of boxes, got {data!r}")
        return cls([Box.from_json(b) for b in data])

    def __eq__(self, other):
        return isinstance(other, MSet) and self.boxes == other.boxes

    def __hash__(self):
        return hash(self.boxes)

    def __repr__(self):
        return f"MSet({list(self.boxes)!r})"


EMPTY = MSet()


# Module-level spellings of the set algebra; these are the stable API and
# the methods above are conveniences.

def intersect(a: MSet, b: MSet) -> MSet:
    return a.intersect(b)


def union(a: MSet, b: MSet) -> MSet:
    return a.union(b)


def difference(a: MSet, b: MSet) -> MSet:
    return a.difference(b)


def measure(a: MSet) -> Fraction:
    return a.measure()


def equal_ae(a: MSet, b: MSet) -> bool:
    """Equality up to null sets; literal on normal forms."""
    return a.boxes == b.boxes


def contains_ae(a: MSet, b: MSet) -> bool:
    return a.contains(b)
