"""Exact rational plane geometry.

Every predicate is decided with arbitrary-precision integer arithmetic
(`fractions.Fraction` coordinates, integer line coefficients).  No floating
point is used anywhere in this module; collinearity and maximality answers
are exact, never approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DuplicatePoints, EqualPoints, SameLine

@dataclass(frozen=True, order=True)
class PlanePoint:
    x: Fraction
    y: Fraction

    @staticmethod
    def of(x, y) -> "PlanePoint":
        return PlanePoint(Fraction(x), Fraction(y))

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


@dataclass(frozen=True, order=True)
class LineEquation:
    """The line a*x + b*y + c = 0 in canonical integer form.

    Canonical means gcd(|a|, |b|, |c|) = 1 and the first nonzero of (a, b)
    is positive, so two equal point sets always compare structurally equal.
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise ValueError("degenerate line: a = b = 0")
        g = gcd(gcd(abs(self.a), abs(self.b)), abs(self.c))
        if g != 1:
            raise ValueError(f"non-canonical coefficients {self}")
        lead = self.a if self.a != 0 else self.b
        if lead < 0:
            raise ValueError(f"non-canonical sign {self}")

    @staticmethod
    def from_coefficients(a, b, c) -> "LineEquation":
        """Normalize arbitrary rational coefficients to the canonical form."""
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a == 0 and b == 0:
            raise ValueError("degenerate line: a = b = 0")
        scale = a.denominator * b.denominator * c.denominator
        ia, ib, ic = (int(v * scale) for v in (a, b, c))
        g = gcd(gcd(abs(ia), abs(ib)), abs(ic))
        ia, ib, ic = ia // g, ib // g, ic // g
        lead = ia if ia != 0 else ib
        if lead < 0:
            ia, ib, ic = -ia, -ib, -ic
        return LineEquation(ia, ib, ic)

    def contains(self, p: PlanePoint) -> bool:
        return self.a * p.x + self.b * p.y + self.c == 0

    def __repr__(self) -> str:
        return f"<{self.a}x{self.b:+}y{self.c:+}=0>"


def collinear(p: PlanePoint, q: PlanePoint, r: PlanePoint) -> bool:
    """True iff the determinant of (q - p, r - p) is exactly zero."""
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x) == 0


def canonical_line(p: PlanePoint, q: PlanePoint) -> LineEquation:
    """The unique canonical line through two distinct points; symmetric in p, q."""
    if p == q:
        raise EqualPoints(f"cannot span a line with a single point {p}")
    a = q.y - p.y
    b = p.x - q.x
    c = -(a * p.x + b * p.y)
    return LineEquation.from_coefficients(a, b, c)


def maximal_collinear_family(points: list[PlanePoint]) -> dict[LineEquation, frozenset[int]]:
    """All lines spanned by >= 2 of the given points, as index sets.

    Each returned set is maximal: it holds every input point on its line.
    The family size is at most n*(n-1)/2.
    """
    seen = {}
    for i, p in enumerate(points):
        if p in seen:
            raise DuplicatePoints(f"points {seen[p]} and {i} coincide at {p}")
        seen[p] = i
    family: dict[LineEquation, set[int]] = {}
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            line = canonical_line(points[i], points[j])
            family.setdefault(line, set()).update((i, j))
    return {line: frozenset(members) for line, members in family.items()}


def intersect(l1: LineEquation, l2: LineEquation) -> PlanePoint | None:
    """The unique common point of two distinct lines, or None if parallel."""
    if l1 == l2:
        raise SameLine(f"lines coincide: {l1}")
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return None
    x = Fraction(l1.b * l2.c - l2.b * l1.c, det)
    y = Fraction(l2.a * l1.c - l1.a * l2.c, det)
    return PlanePoint(x, y)
