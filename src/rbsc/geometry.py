"""Exact rational plane geometry.

Points carry `fractions.Fraction` coordinates and lines carry canonical
integer coefficients; that is the public and the serialized form.  The
predicates do no `Fraction` arithmetic.  A point list is scaled once: every
coordinate is multiplied by the lcm L of all its denominators, which gives
integers.  Scaling by L > 0 maps lines to lines and keeps incidence, so
three points are collinear iff the integer cross product
dx*(y - y0) - dy*(x - x0) of their scaled coordinates is zero.  A single
point is tested against a line by a*x + b*y + c = 0 multiplied by the
denominators of x and y.  Both are sums of integer products, and Python
integers do not overflow, so every answer is exact; no floating point is
used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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

    def contains(self, p: PlanePoint) -> bool:
        """a*x + b*y + c == 0, times the denominators of x and y."""
        xd, yd = p.x.denominator, p.y.denominator
        return self.a * p.x.numerator * yd + self.b * p.y.numerator * xd + self.c * xd * yd == 0

    def __repr__(self) -> str:
        return f"<{self.a}x{self.b:+}y{self.c:+}=0>"


def _scaled(points) -> tuple[int, list[tuple[int, int]]]:
    """The lcm L of all coordinate denominators, and every point times L."""
    scale = lcm(*(v.denominator for p in points for v in (p.x, p.y)))
    return scale, [
        (p.x.numerator * (scale // p.x.denominator), p.y.numerator * (scale // p.y.denominator))
        for p in points
    ]


def _direction(dx: int, dy: int) -> tuple[int, int]:
    """(dx, dy) != (0, 0) over its gcd, signed so that dy > 0, or dy = 0 < -dx.

    Two scaled point pairs span parallel lines iff their directions are equal.
    """
    g = gcd(dx, dy)
    if dy < 0 or (dy == 0 and dx > 0):
        g = -g
    return dx // g, dy // g


def _line(scale: int, x0: int, y0: int, dx: int, dy: int) -> LineEquation:
    """The canonical line through the scaled point (x0, y0) with direction
    (dx, dy), as _direction returns it.

    In scaled coordinates the line is dy*X - dx*Y + c = 0 with
    c = dx*y0 - dy*x0; X = scale*x turns it into (dy*scale, -dx*scale, c).
    As gcd(dx, dy) = 1, the gcd of those three is gcd(scale, c), and the sign
    of _direction makes the first nonzero of (dy, -dx) positive.
    """
    c = dx * y0 - dy * x0
    g = gcd(scale, c)
    f = scale // g
    return LineEquation(dy * f, -dx * f, c // g)


def collinear(p: PlanePoint, q: PlanePoint, r: PlanePoint) -> bool:
    """True iff the determinant of (q - p, r - p) is exactly zero."""
    _, ((px, py), (qx, qy), (rx, ry)) = _scaled((p, q, r))
    return (qx - px) * (ry - py) == (qy - py) * (rx - px)


def canonical_line(p: PlanePoint, q: PlanePoint) -> LineEquation:
    """The unique canonical line through two distinct points; symmetric in p, q."""
    if p == q:
        raise EqualPoints(f"cannot span a line with a single point {p}")
    scale, ((x0, y0), (x1, y1)) = _scaled((p, q))
    return _line(scale, x0, y0, *_direction(x1 - x0, y1 - y0))


def maximal_collinear_family(points: list[PlanePoint]) -> dict[LineEquation, frozenset[int]]:
    """All lines spanned by >= 2 of the given points, as index sets.

    Each returned set is maximal: it holds every input point on its line.
    The family size is at most n*(n-1)/2, and its lines come in the order of
    their first point pair (i, j), lexicographically.  Each line is found
    once, from its lowest point i, by grouping the later points by their
    direction from i; a direction that a line found from an earlier point
    already covers at i is skipped.
    """
    scale, xy = _scaled(points)
    seen = {}
    for i, p in enumerate(xy):
        if p in seen:
            raise DuplicatePoints(f"points {seen[p]} and {i} coincide at {points[i]}")
        seen[p] = i
    covered: list[set[tuple[int, int]]] = [set() for _ in xy]
    family: dict[LineEquation, frozenset[int]] = {}
    for i, (x0, y0) in enumerate(xy):
        skip = covered[i]
        lines: dict[tuple[int, int], list[int]] = {}
        for j in range(i + 1, len(xy)):
            x, y = xy[j]
            d = _direction(x - x0, y - y0)
            if d not in skip:
                lines.setdefault(d, [i]).append(j)
        for d, members in lines.items():
            family[_line(scale, x0, y0, *d)] = frozenset(members)
            for j in members[1:]:
                covered[j].add(d)
    return family


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
