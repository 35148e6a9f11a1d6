import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geometry_reference as ref
from conftest import point
from rbsc import cli, generators, model
from rbsc.errors import DuplicatePoints, EqualPoints, SameLine
from rbsc.geometry import (
    LineEquation,
    PlanePoint,
    canonical_line,
    collinear,
    intersect,
    maximal_collinear_family,
)

P = point


def test_collinear_examples():
    assert collinear(P(0, 0), P(1, 1), P(2, 2))
    assert not collinear(P(0, 0), P(1, 0), P(0, 1))
    assert collinear(P(0, 0), P(1, 1), P(1, 1))  # duplicate point degenerates


def test_canonical_line_examples():
    assert canonical_line(P(0, 0), P(2, 2)) == LineEquation(1, -1, 0)
    assert canonical_line(P(0, 1), P(5, 1)) == LineEquation(0, 1, -1)
    line = canonical_line(P(Fraction(1, 2), 0), P(Fraction(1, 2), 3))
    assert line == LineEquation(2, 0, -1)
    assert line.contains(P(Fraction(1, 2), 0)) and line.contains(P(Fraction(1, 2), 3))


def test_canonical_line_rejects_equal_points():
    with pytest.raises(EqualPoints):
        canonical_line(P(3, 4), P(3, 4))


def test_line_equation_enforces_canonical_form():
    with pytest.raises(ValueError):
        LineEquation(0, 0, 1)
    with pytest.raises(ValueError):
        LineEquation(2, 2, 0)
    with pytest.raises(ValueError):
        LineEquation(-1, 1, 0)


def test_line_equation_errors_are_pinned():
    cases = {
        (0, 0, 1): "degenerate line: a = b = 0",
        (2, 2, 0): "non-canonical coefficients <2x+2y+0=0>",
        (-1, 1, 0): "non-canonical sign <-1x+1y+0=0>",
        (0, -2, 1): "non-canonical sign <0x-2y+1=0>",
    }
    for coefficients, message in cases.items():
        with pytest.raises(ValueError) as err:
            LineEquation(*coefficients)
        assert str(err.value) == message
    lines = [LineEquation(1, -1, 0), LineEquation(0, 1, -1), LineEquation(1, 0, -3), LineEquation(0, 1, 2)]
    assert [repr(line) for line in lines] == ["<1x-1y+0=0>", "<0x+1y-1=0>", "<1x+0y-3=0>", "<0x+1y+2=0>"]
    assert sorted(lines) == [LineEquation(0, 1, -1), LineEquation(0, 1, 2), LineEquation(1, -1, 0), LineEquation(1, 0, -3)]
    assert LineEquation(0, 1, -1) < LineEquation(0, 1, 2) <= LineEquation(0, 1, 2)
    assert LineEquation(1, -1, 0) == LineEquation(1, -1, 0)
    assert hash(LineEquation(1, -1, 0)) == hash(LineEquation(1, -1, 0))
    assert len({LineEquation(1, 0, -3), LineEquation(1, 0, -3), LineEquation(0, 1, 2)}) == 2
    assert (lines[0].a, lines[0].b, lines[0].c) == (1, -1, 0)
    with pytest.raises(ValueError, match="non-canonical sign"):
        lines[0]._replace(a=-1)


def test_maximal_family_square():
    fam = maximal_collinear_family([P(0, 0), P(0, 1), P(1, 0), P(1, 1)])
    assert len(fam) == 6
    assert all(len(m) == 2 for m in fam.values())


def test_maximal_family_with_triple():
    fam = maximal_collinear_family([P(0, 0), P(1, 1), P(2, 2), P(0, 1)])
    sizes = sorted(len(m) for m in fam.values())
    assert len(fam) == 4 and sizes == [2, 2, 2, 3]
    triple = next(m for m in fam.values() if len(m) == 3)
    assert triple == frozenset({0, 1, 2})


def test_maximal_family_parabola():
    pts = [P(t, t * t) for t in range(1, 6)]
    fam = maximal_collinear_family(pts)
    assert len(fam) == 10
    assert all(len(m) == 2 for m in fam.values())
    # independent confirmation that no parabola triple is collinear
    for i in range(5):
        for j in range(i + 1, 5):
            for k in range(j + 1, 5):
                assert not collinear(pts[i], pts[j], pts[k])


def test_maximal_family_rejects_duplicates():
    with pytest.raises(DuplicatePoints):
        maximal_collinear_family([P(0, 0), P(1, 1), P(0, 0)])


def test_intersect_examples():
    assert intersect(LineEquation(1, -1, 0), LineEquation(0, 1, -1)) == P(1, 1)
    assert intersect(LineEquation(0, 1, 0), LineEquation(0, 1, -1)) is None
    assert intersect(LineEquation(1, -2, 0), LineEquation(3, 1, -7)) == P(2, 1)
    with pytest.raises(SameLine):
        intersect(LineEquation(1, -1, 0), LineEquation(1, -1, 0))


def _random_point(rng):
    return PlanePoint(
        Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
        Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
    )


def test_randomized_properties():
    rng = random.Random(20240)
    for _ in range(3000):
        p, q, r = (_random_point(rng) for _ in range(3))
        if p == q:
            continue
        line = canonical_line(p, q)
        assert line == canonical_line(q, p)
        assert line.contains(p) and line.contains(q)
        assert collinear(p, q, r) == line.contains(r)
    for _ in range(300):
        pts = []
        while len(pts) < rng.randint(2, 7):
            cand = _random_point(rng)
            if cand not in pts:
                pts.append(cand)
        fam = maximal_collinear_family(pts)
        n = len(pts)
        assert len(fam) <= n * (n - 1) // 2
        for line, members in fam.items():
            assert len(members) >= 2
            for i, pt in enumerate(pts):
                assert line.contains(pt) == (i in members)


def test_intersection_satisfies_both_equations():
    rng = random.Random(7)
    for _ in range(2000):
        pts = [_random_point(rng) for _ in range(4)]
        if pts[0] == pts[1] or pts[2] == pts[3]:
            continue
        l1 = canonical_line(pts[0], pts[1])
        l2 = canonical_line(pts[2], pts[3])
        if l1 == l2:
            continue
        cross = intersect(l1, l2)
        if cross is not None:
            assert l1.contains(cross) and l2.contains(cross)
        else:
            assert l1.a * l2.b == l2.a * l1.b  # parallel


# -- differential tests against the Fraction reference ------------------------

RATIONALS = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 7))
POINTS = st.builds(PlanePoint, RATIONALS, RATIONALS)
DIRECTIONS = st.sampled_from([(0, 1), (1, 0)]) | st.tuples(RATIONALS, RATIONALS).filter(
    lambda d: d != (0, 0)
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(p=POINTS, q=POINTS, r=POINTS)
def test_predicates_match_fraction_reference(p, q, r):
    assert collinear(p, q, r) == ((q.x - p.x) * (r.y - p.y) == (q.y - p.y) * (r.x - p.x))
    if p != q:
        line = canonical_line(p, q)
        assert line == ref.fraction_line(p, q)
        assert line.contains(r) == ref.on_line(line, r)


@st.composite
def point_sets(draw):
    """Scattered rational points plus runs of >= 4 collinear ones, shuffled."""
    pts = draw(st.lists(POINTS, max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        x0, y0 = draw(RATIONALS), draw(RATIONALS)
        dx, dy = draw(DIRECTIONS)
        steps = draw(st.lists(RATIONALS, min_size=4, max_size=6, unique=True))
        pts += [PlanePoint(x0 + t * dx, y0 + t * dy) for t in steps]
    return draw(st.permutations(list(dict.fromkeys(pts))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pts=point_sets(), duplicate=st.booleans())
def test_maximal_family_matches_fraction_reference(pts, duplicate):
    if duplicate and pts:
        pts = pts + [pts[len(pts) // 2]]
        with pytest.raises(DuplicatePoints) as got:
            maximal_collinear_family(pts)
        with pytest.raises(DuplicatePoints) as want:
            ref.maximal_collinear_family(pts)
        assert str(got.value) == str(want.value)
        return
    assert list(maximal_collinear_family(pts).items()) == list(
        ref.maximal_collinear_family(pts).items()
    )


GEOMETRIC_PROFILES = sorted(
    name for name, profile in cli.PROFILES.items() if profile.mode == model.GEOMETRIC
)


def _mutate(data, inst):
    """One random fault: a dropped or foreign member, a moved, shared or
    missing point, a removed element, or a dangling id."""
    elements = list(inst.elements)
    family = [(sid, set(mem)) for sid, mem in inst.family]
    kind = data.draw(st.sampled_from(
        ["drop", "foreign", "move", "share", "unplace", "remove", "dangling"]
    ))
    el = data.draw(st.integers(0, len(elements) - 1))
    sid, mem = family[data.draw(st.integers(0, len(family) - 1))]
    if kind == "drop" and mem:
        mem.discard(data.draw(st.sampled_from(sorted(mem))))
    elif kind == "foreign":
        mem.add(elements[el].eid)
    elif kind == "move":
        elements[el] = replace(elements[el], point=data.draw(POINTS))
    elif kind == "share":
        other = data.draw(st.integers(0, len(elements) - 1))
        elements[el] = replace(elements[el], point=elements[other].point)
    elif kind == "unplace":
        elements[el] = replace(elements[el], point=None)
    elif kind == "remove" and len(elements) > 1:
        del elements[el]
    elif kind == "dangling":
        mem.add(max(e.eid for e in elements) + data.draw(st.integers(1, 3)))
    return model.Instance(
        tuple(elements), tuple(family), inst.budget_lines, inst.budget_red, inst.mode
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    profile=st.sampled_from(GEOMETRIC_PROFILES),
    faults=st.integers(0, 3),
    data=st.data(),
)
def test_validate_matches_fraction_reference(seed, profile, faults, data):
    inst = generators.gen_random(seed, cli.PROFILES[profile])
    for _ in range(faults):
        inst = _mutate(data, inst)
    got, want = model.validate(inst), ref.validate(inst)
    assert (got.violations, got.warnings, got.linear_system) == (
        want.violations,
        want.warnings,
        want.linear_system,
    )
