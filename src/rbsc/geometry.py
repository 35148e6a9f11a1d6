"""Exact rational plane geometry.

Points carry `fractions.Fraction` coordinates, and a line is its checked
canonical integer coefficient triple (a, b, c); that is the public and the
serialized form.  The predicates do no `Fraction` arithmetic.  A point list
is scaled once: every coordinate is multiplied by the lcm L of all its
denominators, which gives integers.  Scaling by L > 0 maps lines to lines and
keeps incidence, so three points are collinear iff the integer cross product
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
from typing import NamedTuple

from .errors import DuplicatePoints, EqualPoints, SameLine

@dataclass(frozen=True, order=True)
class PlanePoint:
    x: Fraction
    y: Fraction

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


class _Coefficients(NamedTuple):
    a: int
    b: int
    c: int


class LineEquation(_Coefficients):
    """The line a*x + b*y + c = 0 in canonical integer form.

    Canonical means gcd(|a|, |b|, |c|) = 1 and the first nonzero of (a, b)
    is positive, so two equal point sets always give equal lines.  A line is
    the tuple (a, b, c): it hashes and orders as that tuple, and it also
    equals the plain tuple (a, b, c).  Every way to build one runs the checks.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> "LineEquation":
        line = tuple.__new__(cls, (a, b, c))
        if a == 0 and b == 0:
            raise ValueError("degenerate line: a = b = 0")
        if gcd(a, b, c) != 1:
            raise ValueError(f"non-canonical coefficients {line}")
        if (a if a != 0 else b) < 0:
            raise ValueError(f"non-canonical sign {line}")
        return line

    @classmethod
    def _make(cls, iterable) -> "LineEquation":
        return cls(*iterable)  # also serves _replace

    def contains(self, p: PlanePoint) -> bool:
        """a*x + b*y + c == 0, times the denominators of x and y."""
        xd, yd = p.x.denominator, p.y.denominator
        return self.a * p.x.numerator * yd + self.b * p.y.numerator * xd + self.c * xd * yd == 0

    def __repr__(self) -> str:
        return f"<{self.a}x{self.b:+}y{self.c:+}=0>"


def _scaled(points) -> tuple[int, list[tuple[int, int]]]:
    """The lcm L of all coordinate denominators, and every point times L."""
    ratios = [(p.x.as_integer_ratio(), p.y.as_integer_ratio()) for p in points]
    scale = lcm(*(d for (_, xd), (_, yd) in ratios for d in (xd, yd)))
    return scale, [(xn * (scale // xd), yn * (scale // yd)) for (xn, xd), (yn, yd) in ratios]


def collinear(p: PlanePoint, q: PlanePoint, r: PlanePoint) -> bool:
    """True iff the determinant of (q - p, r - p) is exactly zero."""
    _, ((px, py), (qx, qy), (rx, ry)) = _scaled((p, q, r))
    return (qx - px) * (ry - py) == (qy - py) * (rx - px)


def canonical_line(p: PlanePoint, q: PlanePoint) -> LineEquation:
    """The unique canonical line through two distinct points; symmetric in p, q."""
    if p == q:
        raise EqualPoints(f"cannot span a line with a single point {p}")
    (line,) = maximal_collinear_family([p, q])
    return line


def maximal_collinear_family(points: list[PlanePoint]) -> dict[LineEquation, frozenset[int]]:
    """All lines spanned by >= 2 of the given points, as index sets.

    Each returned set is maximal: it holds every input point on its line.
    The family size is at most n*(n-1)/2, and its lines come in the order of
    their first point pair (i, j), lexicographically.  Each line is found
    once, from its lowest point i, by grouping the later points by their
    direction from i; a direction that a line found from an earlier point
    already covers at i is skipped.  A direction (dx, dy) is divided by its
    gcd and signed so that dy > 0, or dy = 0 < -dx.  The line through the
    scaled point (x0, y0) is then (dy*scale, -dx*scale, c), c = dx*y0 - dy*x0,
    over gcd(scale, c): as gcd(dx, dy) = 1, that is the gcd of all three, and
    the sign rule makes the first nonzero of (dy, -dx) positive.
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
            dx, dy = x - x0, y - y0
            g = gcd(dx, dy)
            if dy < 0 or (dy == 0 and dx > 0):
                g = -g
            d = dx // g, dy // g
            if d not in skip:
                if d in lines:
                    lines[d].append(j)
                else:
                    lines[d] = [i, j]
        for d, members in lines.items():
            dx, dy = d
            c = dx * y0 - dy * x0
            g = gcd(scale, c)
            f = scale // g
            family[LineEquation(dy * f, -dx * f, c // g)] = frozenset(members)
            for j in members[1:-1]:  # no point after the last one lies on the line
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
