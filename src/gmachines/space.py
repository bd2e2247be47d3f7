"""Measurable subsets of the line-with-cube space Z x [0,1]^N.

Everything here is a finite union of half-open rational boxes.  A box is a
half-open interval on the line crossed with finitely many half-open
constraints on the cube coordinates (coordinates without a constraint are
the full [0,1)).  All set predicates are almost-everywhere ones: two sets
that differ by a null set are the same set for every purpose in this
library.

MSet values are kept in a canonical normal form (a sorted, disjoint slab
decomposition), so almost-everywhere equality is literal equality of the
normal forms.  One tagged sweep computes it: the line and then each cube
coordinate in order is cut at every endpoint, adjacent slabs with equal
contents merge, and a cube coordinate left whole is dropped.  Told which
input sets a kept point must lie in, the same sweep computes differences
and the multiplicity check of graphings; intersections stay pairwise.
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
    """A JSON field read as an integer or an integer string, or ValueError
    naming it; booleans and fractional numbers are refused, not truncated."""
    if not isinstance(value, bool):
        try:
            n = int(value)
            if n == value or isinstance(value, str):
                return n
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{field!r} must be an integer, got {value!r}")


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


def _overlay(sets: Sequence[Iterable[Box]], keep) -> "MSet":
    """The points whose covering sets pass keep, in normal form.

    keep gets the indices of the input box lists that cover a point; it
    must reject the empty set.  This one sweep serves every operation
    that needs more than one box: the normal form keeps any covered
    point, difference keeps {0}, and the multiplicity check in graphings
    keeps points where its two families disagree.
    """
    out = MSet()
    members = [(i, ((0, b.line),) + b.coords) for i, s in enumerate(sets) for b in s]
    out.boxes = tuple(Box(cs[0][1], cs[1:]) for cs in _sweep(members, keep))
    return out


def _sweep(members: list, keep) -> tuple:
    """Sorted, disjoint, canonical pieces of the kept points.

    members are (tag, constraints) pairs, the constraints a tuple of
    (axis, Interval) sorted by axis, the line being axis 0.  The least
    axis any member constrains is cut at every endpoint, and each slab is
    swept in turn on the members covering it.  Adjacent slabs with equal
    contents merge, and a cube axis whose only slab is [0,1) is dropped,
    so the pieces depend on the kept set alone.  The axes are walked with
    an explicit stack, one frame per axis, so a set may constrain any
    number of coordinates.
    """
    # per open axis: [axis, cut members, endpoints, slabs opened, pieces]
    stack: list[list] = []
    while True:
        axes = [cs[0][0] for _, cs in members if cs]
        if axes:
            d = min(axes)
            cut = [(t, cs[0][1], cs[1:]) if cs and cs[0][0] == d else (t, UNIT, cs)
                   for t, cs in members]
            pts = sorted({p for _, iv, _ in cut for p in (iv.lo, iv.hi)})
            stack.append([d, cut, pts, 0, []])
            sub = None
        else:
            sub = ((),) if keep({t for t, _ in members}) else ()
        # hand each finished sweep to its axis until one has a slab left
        while stack:
            top = stack[-1]
            d, cut, pts, i, slabs = top
            if sub:
                # the pieces of slab i - 1
                lo, hi = pts[i - 1], pts[i]
                if slabs and slabs[-1][1] == lo and slabs[-1][2] == sub:
                    slabs[-1] = (slabs[-1][0], hi, sub)
                else:
                    slabs.append((lo, hi, sub))
            if i + 1 < len(pts):
                lo, hi = pts[i], pts[i + 1]
                top[3] = i + 1
                members = [(t, rest) for t, iv, rest in cut if iv.lo <= lo and hi <= iv.hi]
                break
            stack.pop()
            if d and len(slabs) == 1 and slabs[0][:2] == (0, 1):
                sub = slabs[0][2]
            else:
                sub = tuple(((d, Interval(lo, hi)),) + piece
                            for lo, hi, pieces in slabs for piece in pieces)
        else:
            return sub


class MSet:
    """Finite union of boxes, stored in canonical normal form."""

    __slots__ = ("boxes",)

    def __init__(self, boxes: Iterable[Box] = ()):
        boxes = [b for b in boxes if not b.is_empty()]
        # a Box is already canonical; two or more need the sweep
        self.boxes = tuple(boxes) if len(boxes) < 2 else _overlay([boxes], bool).boxes

    def is_empty(self) -> bool:
        return not self.boxes

    def measure(self) -> Fraction:
        return sum((b.measure() for b in self.boxes), Fraction(0))

    def intersect(self, other: "MSet") -> "MSet":
        return MSet([a.intersect(b) for a in self.boxes for b in other.boxes])

    def union(self, other: "MSet") -> "MSet":
        return MSet(self.boxes + other.boxes)

    def difference(self, other: "MSet") -> "MSet":
        return _overlay([self.boxes, other.boxes], lambda tags: tags == {0})

    def contains(self, other: "MSet") -> bool:
        """other is a subset of self up to a null set."""
        return other.difference(self).is_empty()

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
