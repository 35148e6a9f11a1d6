"""The Fraction-based geometric scans, kept as a test reference.

rbsc.geometry.maximal_collinear_family and rbsc.model.validate scale each
point list once to integers and decide incidence with integer cross
products.  These are the plain versions they replaced: one canonical line
per point pair, built from Fraction coefficients, and incidence tested as
a*x + b*y + c == 0 on Fraction coordinates.  The tests compare the two.
"""

from __future__ import annotations

from math import gcd

from rbsc.errors import DuplicatePoints
from rbsc.geometry import LineEquation, PlanePoint
from rbsc.model import GEOMETRIC, Instance, ValidationReport


def fraction_line(p: PlanePoint, q: PlanePoint) -> LineEquation:
    """The canonical line through two distinct points, from Fraction coefficients."""
    a = q.y - p.y
    b = p.x - q.x
    c = -(a * p.x + b * p.y)
    scale = a.denominator * b.denominator * c.denominator
    ia, ib, ic = (int(v * scale) for v in (a, b, c))
    g = gcd(gcd(abs(ia), abs(ib)), abs(ic))
    ia, ib, ic = ia // g, ib // g, ic // g
    if (ia if ia != 0 else ib) < 0:
        ia, ib, ic = -ia, -ib, -ic
    return LineEquation(ia, ib, ic)


def on_line(line: LineEquation, p: PlanePoint) -> bool:
    return line.a * p.x + line.b * p.y + line.c == 0


def maximal_collinear_family(points: list[PlanePoint]) -> dict[LineEquation, frozenset[int]]:
    """One canonical line per point pair (i, j), in lexicographic pair order."""
    seen = {}
    for i, p in enumerate(points):
        if p in seen:
            raise DuplicatePoints(f"points {seen[p]} and {i} coincide at {p}")
        seen[p] = i
    family: dict[LineEquation, set[int]] = {}
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            family.setdefault(fraction_line(points[i], points[j]), set()).update((i, j))
    return {line: frozenset(members) for line, members in family.items()}


def validate(instance: Instance) -> ValidationReport:
    """model.validate with each set's line tested on Fraction coordinates."""
    rep = ValidationReport()
    for sid, mem in instance.family:
        for eid in sorted(mem):
            if not instance.has_element(eid):
                rep.violations.append(f"set {sid} references missing element {eid}")
    if instance.mode == GEOMETRIC:
        coords = {}
        for el in instance.elements:
            if el.point is None:
                rep.violations.append(f"element {el.eid} has no coordinates")
            elif el.point in coords:
                rep.violations.append(
                    f"elements {coords[el.point]} and {el.eid} share coordinates {el.point}"
                )
            else:
                coords[el.point] = el.eid
        for sid, mem in instance.family:
            pts = [
                (eid, instance.element(eid).point)
                for eid in sorted(mem)
                if instance.has_element(eid) and instance.element(eid).point is not None
            ]
            if len(pts) < 2 or pts[0][1] == pts[1][1]:
                continue  # coincident points already reported
            line = fraction_line(pts[0][1], pts[1][1])
            if any(not on_line(line, p) for _, p in pts):
                rep.violations.append(f"set {sid} is not collinear")
                continue
            inside = {eid for eid, _ in pts}
            for el in instance.elements:
                if el.eid not in inside and el.point is not None and on_line(line, el.point):
                    rep.violations.append(
                        f"set {sid} is not maximal: element {el.eid} lies on its line"
                    )
    else:
        for el in instance.elements:
            if el.point is not None:
                rep.violations.append(f"element {el.eid} carries coordinates in abstract mode")
    overlaps = instance.overlaps
    rep.linear_system = not overlaps
    for a, b in overlaps:
        common = instance.members(a) & instance.members(b)
        rep.warnings.append(
            f"not a linear set system: sets {a} and {b} share {len(common)} elements"
        )
    return rep
