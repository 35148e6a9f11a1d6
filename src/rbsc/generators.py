"""Instance factories.

The hardness constructions double as generators: each one turns a source
problem (set cover, multicolored clique) into a covering instance whose
YES/NO answer provably matches the source, so the equivalences become
executable cross-checks instead of proofs.  Geometric outputs are audited
with exact arithmetic rather than trusted.  gen_random drives the
property-test corpora and is deterministic in its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

from . import model
from .errors import (
    FilterUnsatisfiable,
    GeometryAuditError,
    NotRegular,
    ParseError,
    PlacementExhausted,
    SemanticError,
)
from .geometry import LineEquation, PlanePoint, canonical_line, intersect, maximal_collinear_family
from .model import ABSTRACT, BLUE, GEOMETRIC, RED, Element, Instance, _parse_nonneg, _rows


# ---------------------------------------------------------------------------
# source problems


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe {1..n}, a family of subsets, and a cover budget."""

    universe_size: int
    sets: tuple[frozenset[int], ...]
    budget: int

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        for s in self.sets:
            if any(not 1 <= e <= self.universe_size for e in s):
                raise ValueError("set element outside the universe")
        if self.universe_size < 1 or len(self.sets) < 1:
            raise ValueError("need at least one element and one set")
        if self.budget < 0:
            raise ValueError("negative budget")


def setcover_decide(sc: SetCoverInstance) -> bool:
    """Plain enumeration over <= budget sets; the independent source oracle."""
    universe = frozenset(range(1, sc.universe_size + 1))
    covered_all = frozenset().union(*sc.sets)
    if not universe <= covered_all:
        return False
    for size in range(min(sc.budget, len(sc.sets)) + 1):
        for combo in combinations(sc.sets, size):
            if frozenset().union(*combo) >= universe:
                return True
    return False


@dataclass(frozen=True)
class MulticoloredGraph:
    """Vertex classes (each an independent set) and cross-class edges."""

    classes: tuple[tuple[int, ...], ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(
            self, "classes", tuple(tuple(sorted(c)) for c in self.classes)
        )
        object.__setattr__(
            self, "edges", frozenset((min(u, v), max(u, v)) for u, v in self.edges)
        )
        owner: dict[int, int] = {}
        for ci, cls in enumerate(self.classes):
            if not cls:
                raise ValueError("empty vertex class")
            for v in cls:
                if v in owner:
                    raise ValueError(f"vertex {v} in two classes")
                owner[v] = ci
        for u, v in self.edges:
            if u not in owner or v not in owner:
                raise ValueError(f"edge ({u},{v}) uses an unknown vertex")
            if u == v or owner[u] == owner[v]:
                raise ValueError(f"edge ({u},{v}) inside one class")
        object.__setattr__(self, "_owner", owner)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def vertices(self) -> list[int]:
        return sorted(v for cls in self.classes for v in cls)

    def class_of(self, v: int) -> int:
        return self._owner[v]

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def regular_degree(self) -> int | None:
        degs = {self.degree(v) for v in self.vertices}
        return degs.pop() if len(degs) == 1 else None


def has_multicolored_clique(g: MulticoloredGraph) -> bool:
    """One vertex per class, pairwise adjacent; exhaustive check."""
    for pick in product(*g.classes):
        if all(
            (min(a, b), max(a, b)) in g.edges for a, b in combinations(pick, 2)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# source-problem file formats


def parse_setcover(text: str) -> SetCoverInstance:
    rows = _rows(text)
    if not rows or rows[0][1] != ["setcover", "1"]:
        raise ParseError(rows[0][0] if rows else 1, "expected 'setcover 1' header")
    n = k = None
    n_line = 1
    sets: list[tuple[int, int, frozenset[int]]] = []
    for lineno, toks in rows[1:]:
        if toks[0] == "n" and len(toks) == 2:
            n, n_line = _parse_nonneg(toks[1], lineno, "n"), lineno
        elif toks[0] == "k" and len(toks) == 2:
            k = _parse_nonneg(toks[1], lineno, "k")
        elif toks[0] == "set" and len(toks) >= 3 and toks[2] == ":":
            sid = _parse_nonneg(toks[1], lineno, "set id")
            mem = frozenset(_parse_nonneg(t, lineno, "element") for t in toks[3:])
            sets.append((sid, lineno, mem))
        else:
            raise ParseError(lineno, f"bad set cover line {' '.join(toks)!r}")
    if n is None or k is None:
        raise ParseError(1, "missing n or k")
    if n < 1:
        raise SemanticError(n_line, "the universe needs at least one element")
    if not sets:
        raise SemanticError(n_line, "no 'set' lines")
    for sid, lineno, mem in sets:
        outside = sorted(e for e in mem if not 1 <= e <= n)
        if outside:
            raise SemanticError(lineno, f"set {sid} element {outside[0]} outside 1..{n}")
    sets.sort()
    return SetCoverInstance(n, tuple(s for _, _, s in sets), k)


def serialize_setcover(sc: SetCoverInstance) -> str:
    lines = ["setcover 1", f"n {sc.universe_size}", f"k {sc.budget}"]
    for i, s in enumerate(sc.sets):
        lines.append(f"set {i} : " + " ".join(str(e) for e in sorted(s)))
    return "\n".join(lines) + "\n"


def parse_mcgraph(text: str) -> MulticoloredGraph:
    rows = _rows(text)
    if not rows or rows[0][1] != ["mcgraph", "1"]:
        raise ParseError(rows[0][0] if rows else 1, "expected 'mcgraph 1' header")
    k = None
    classes_line = 1
    members: dict[int, list[int]] = {}
    owner: dict[int, int] = {}
    edges = []
    for lineno, toks in rows[1:]:
        if toks[0] == "classes" and len(toks) == 2:
            k, classes_line = _parse_nonneg(toks[1], lineno, "classes"), lineno
            members, owner = {}, {}
        elif toks[0] == "vertex" and len(toks) == 3:
            vid = _parse_nonneg(toks[1], lineno, "vertex id")
            cls = _parse_nonneg(toks[2], lineno, "vertex class")
            if k is None or not 1 <= cls <= k:
                raise ParseError(lineno, f"vertex class {cls} out of range")
            if vid in owner:
                raise SemanticError(lineno, f"vertex {vid} already in class {owner[vid]}")
            owner[vid] = cls
            members.setdefault(cls, []).append(vid)
        elif toks[0] == "edge" and len(toks) == 3:
            u = _parse_nonneg(toks[1], lineno, "edge endpoint")
            v = _parse_nonneg(toks[2], lineno, "edge endpoint")
            edges.append((lineno, u, v))
        else:
            raise ParseError(lineno, f"bad graph line {' '.join(toks)!r}")
    if k is None:
        raise ParseError(1, "missing 'classes' line")
    # The first empty class is at most len(members) + 1, so a huge k costs nothing.
    empty = next((c for c in range(1, k + 1) if c not in members), None)
    if empty is not None:
        raise SemanticError(classes_line, f"class {empty} has no vertex")
    for lineno, u, v in edges:
        for end in (u, v):
            if end not in owner:
                raise SemanticError(lineno, f"edge ({u},{v}) uses unknown vertex {end}")
        if owner[u] == owner[v]:
            raise SemanticError(lineno, f"edge ({u},{v}) inside class {owner[u]}")
    return MulticoloredGraph(
        tuple(tuple(members[c]) for c in range(1, k + 1)), frozenset((u, v) for _, u, v in edges)
    )


def serialize_mcgraph(g: MulticoloredGraph) -> str:
    lines = ["mcgraph 1", f"classes {g.num_classes}"]
    for ci, cls in enumerate(g.classes, start=1):
        for v in cls:
            lines.append(f"vertex {v} {ci}")
    for u, v in sorted(g.edges):
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# set cover reductions (parabola placement keeps every triple non-collinear)


def _parabola(t: int) -> PlanePoint:
    return PlanePoint(Fraction(t), Fraction(t * t))


def gen_setcover_lines(sc: SetCoverInstance) -> Instance:
    """Cover instance with one two-point line per (element, set) incidence.

    Blue points sit at (t, t^2) for elements, red points continue along the
    parabola for sets; budgets are (universe size, cover budget).
    """
    n, m = sc.universe_size, len(sc.sets)
    elements = [Element(u - 1, BLUE, _parabola(u)) for u in range(1, n + 1)]
    elements += [Element(n + j - 1, RED, _parabola(n + j)) for j in range(1, m + 1)]
    family = []
    sid = 0
    for j in range(1, m + 1):
        for u in sorted(sc.sets[j - 1]):
            family.append((sid, frozenset((u - 1, n + j - 1))))
            sid += 1
    return Instance(tuple(elements), tuple(family), n, sc.budget, GEOMETRIC)


def _interior_schedule():
    for den in range(2, 17):
        for num in range(1, den):
            if gcd(num, den) == 1:
                yield Fraction(num, den)


def gen_setcover_uniqred_lines(sc: SetCoverInstance) -> Instance:
    """As gen_setcover_lines, plus one extra red point private to each line.

    The extra point is placed at a deterministic interior parameter of its
    line segment, retried until it avoids every other point and line; the
    line budget becomes unbounded and the red budget k + n.
    """
    base = gen_setcover_lines(sc)
    points = {el.eid: el.point for el in base.elements}
    equations = {}
    for sid, mem in base.family:
        a, b = sorted(mem)
        equations[sid] = canonical_line(points[a], points[b])
    elements = list(base.elements)
    taken = {el.point for el in base.elements}
    family = []
    next_eid = len(elements)
    for sid, mem in base.family:
        blue = min(mem)  # blue ids precede red ids in the base construction
        red = max(mem)
        p, q = points[blue], points[red]
        placed = None
        for t in _interior_schedule():
            cand = PlanePoint(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
            if cand in taken:
                continue
            if any(o != sid and eq.contains(cand) for o, eq in equations.items()):
                continue
            placed = cand
            break
        if placed is None:
            raise PlacementExhausted(f"no interior point found for line {sid}")
        taken.add(placed)
        elements.append(Element(next_eid, RED, placed))
        family.append((sid, mem | {next_eid}))
        next_eid += 1
    return Instance(
        tuple(elements), tuple(family), None, sc.budget + sc.universe_size, GEOMETRIC
    )


# ---------------------------------------------------------------------------
# multicolored clique reductions


def gen_mcc_lines(g: MulticoloredGraph, d: int) -> Instance:
    """Geometric clique reduction: two bundles of lines through axis points.

    Class i gets blue anchors (0, i) and (i, 0).  Each vertex owns a
    near-horizontal and a near-vertical line; red points mark every
    vertex self-intersection and both crossings per edge, each added to
    the two lines that define it, so each line carries d + 1 reds.
    model.validate audits the result exactly: it refuses coincident points
    and any set that is not all the points on its line.
    """
    k = g.num_classes
    if d < 0:
        raise NotRegular("degree must be nonnegative")
    for v in g.vertices:
        if g.degree(v) != d:
            raise NotRegular(f"vertex {v} has degree {g.degree(v)}, expected {d}")
    elements = [Element(i, BLUE, PlanePoint(Fraction(0), Fraction(i + 1))) for i in range(k)]
    elements += [Element(k + i, BLUE, PlanePoint(Fraction(i + 1), Fraction(0))) for i in range(k)]
    # vertex -> (its line, the element ids on it so far), in class order
    horiz: dict[int, tuple[LineEquation, set[int]]] = {}
    vert: dict[int, tuple[LineEquation, set[int]]] = {}
    for ci, cls in enumerate(g.classes):
        for idx, u in enumerate(cls):
            offset = ci + Fraction(idx + 1, 2 * (len(cls) + 1))
            far_h, far_v = PlanePoint(Fraction(k), offset), PlanePoint(offset, Fraction(k))
            horiz[u] = canonical_line(elements[ci].point, far_h), {ci}
            vert[u] = canonical_line(elements[k + ci].point, far_v), {k + ci}
    crossings = [(u, u) for u in g.vertices]
    for u, v in sorted(g.edges):
        crossings += [(u, v), (v, u)]
    for hu, vu in crossings:
        pt = intersect(horiz[hu][0], vert[vu][0])
        if pt is None:
            raise GeometryAuditError("defining lines are parallel")
        horiz[hu][1].add(len(elements))
        vert[vu][1].add(len(elements))
        elements.append(Element(len(elements), RED, pt))
    lines = [*horiz.values(), *vert.values()]
    family = tuple((sid, frozenset(mem)) for sid, (_, mem) in enumerate(lines))
    budget_red = max(0, 2 * (d + 1) * k - k * k)
    inst = Instance(tuple(elements), family, 2 * k, budget_red, GEOMETRIC)
    violations = model.validate(inst).violations
    if violations:
        raise GeometryAuditError("; ".join(violations))
    return inst


def gen_mcc_setsystem(g: MulticoloredGraph) -> Instance:
    """Abstract clique reduction: one blue per class pair, one red per vertex,
    one 3-element set per edge; budgets (pairs, classes)."""
    k = g.num_classes
    pair_eid: dict[tuple[int, int], int] = {}
    elements = []
    eid = 0
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            pair_eid[(i, j)] = eid
            elements.append(Element(eid, BLUE))
            eid += 1
    red_eid: dict[int, int] = {}
    for v in g.vertices:
        red_eid[v] = eid
        elements.append(Element(eid, RED))
        eid += 1
    family = []
    rows = []
    for u, v in g.edges:
        i, j = g.class_of(u) + 1, g.class_of(v) + 1
        if i > j:
            i, j, u, v = j, i, v, u
        rows.append((i, j, u, v))
    for sid, (i, j, u, v) in enumerate(sorted(rows)):
        family.append((sid, frozenset((pair_eid[(i, j)], red_eid[u], red_eid[v]))))
    return Instance(tuple(elements), tuple(family), comb(k, 2), k, ABSTRACT)


# ---------------------------------------------------------------------------
# random instances


# Random coordinates lie on the grid 0..COORD_RANGE in steps of 1/2.  They are
# drawn in half units, as ints k = 0..2*COORD_RANGE, and _GRID[kx][ky] is the
# point (kx/2, ky/2): a constant of the grid, shared by every instance.
COORD_RANGE = 6
_GRID = tuple(
    tuple(PlanePoint(Fraction(kx, 2), Fraction(ky, 2)) for ky in range(2 * COORD_RANGE + 1))
    for kx in range(2 * COORD_RANGE + 1)
)


@dataclass(frozen=True)
class RandomProfile:
    """Shape bounds and structural filters for gen_random."""

    mode: str = GEOMETRIC
    min_points: int = 4
    max_points: int = 10
    min_sets: int = 1
    max_sets: int = 12
    max_budget_lines: int = 4
    max_budget_red: int = 5
    unbounded_lines: bool = False
    structure: str = "any"  # any | one-blue | two-blue | max-one-red | two-red
    linear: bool = True  # abstract mode: keep pairwise intersections <= 1
    blue_chance: tuple[int, int] = (1, 2)  # color an element blue with chance num/den


def _structure_ok(profile: RandomProfile, blues: int, reds: int) -> bool:
    s = profile.structure
    if s == "any":
        return True
    if s == "one-blue":
        return blues == 1
    if s == "two-blue":
        return blues == 0 or blues >= 2
    if s == "max-one-red":
        return reds <= 1
    if s == "two-red":
        return reds == 0 or reds >= 2
    raise ValueError(f"unknown structure filter {s!r}")


def _random_budgets(rng: random.Random, profile: RandomProfile) -> tuple[int | None, int]:
    lines = None if profile.unbounded_lines else rng.randint(0, profile.max_budget_lines)
    return lines, rng.randint(0, profile.max_budget_red)


def _random_color(rng: random.Random, profile: RandomProfile) -> str:
    num, den = profile.blue_chance
    return BLUE if rng.randrange(den) < num else RED


def _random_coordinate(rng: random.Random) -> int:
    # in half units; mostly the integer grid (rich in collinear triples), sometimes halves
    if rng.randrange(4) == 0:
        return rng.randrange(2 * COORD_RANGE + 1)
    return 2 * rng.randrange(COORD_RANGE + 1)


def _random_geometric(rng: random.Random, profile: RandomProfile) -> Instance | None:
    n = rng.randint(profile.min_points, profile.max_points)
    pts: list[tuple[int, int]] = []
    seen = set()
    for _ in range(40 * n):
        p = (_random_coordinate(rng), _random_coordinate(rng))
        if p not in seen:
            seen.add(p)
            pts.append(p)
        if len(pts) == n:
            break
    if len(pts) < n:
        return None
    colors = [_random_color(rng, profile) for _ in pts]
    blue = {i for i, color in enumerate(colors) if color == BLUE}
    plane = [_GRID[kx][ky] for kx, ky in pts]
    candidates = []
    for _, members in sorted(maximal_collinear_family(plane).items()):
        blues = len(members & blue)
        if _structure_ok(profile, blues, len(members) - blues):
            candidates.append(members)
    if len(candidates) < profile.min_sets:
        return None
    count = rng.randint(profile.min_sets, min(profile.max_sets, len(candidates)))
    picked = sorted(rng.sample(range(len(candidates)), count))
    used = sorted(set().union(*(candidates[i] for i in picked)))
    new_id = [0] * n
    for new, old in enumerate(used):
        new_id[old] = new
    elements = tuple(Element(new_id[i], colors[i], plane[i]) for i in used)
    family = tuple(
        (sid, frozenset(map(new_id.__getitem__, candidates[idx])))
        for sid, idx in enumerate(picked)
    )
    budget_lines, budget_red = _random_budgets(rng, profile)
    return Instance(elements, family, budget_lines, budget_red, GEOMETRIC)


def _random_abstract(rng: random.Random, profile: RandomProfile) -> Instance | None:
    n = rng.randint(profile.min_points, profile.max_points)
    colors = [_random_color(rng, profile) for _ in range(n)]
    target = rng.randint(profile.min_sets, profile.max_sets)
    family: list[frozenset[int]] = []
    for _ in range(60 * target):
        if len(family) == target:
            break
        size = rng.randint(1, min(4, n))
        mem = frozenset(rng.sample(range(n), size))
        blues = sum(1 for e in mem if colors[e] == BLUE)
        if not _structure_ok(profile, blues, len(mem) - blues):
            continue
        if mem in family:
            continue
        if profile.linear and any(len(mem & other) >= 2 for other in family):
            continue
        family.append(mem)
    if len(family) < profile.min_sets:
        return None
    elements = tuple(Element(i, colors[i]) for i in range(n))
    sets = tuple((sid, mem) for sid, mem in enumerate(sorted(family, key=sorted)))
    budget_lines, budget_red = _random_budgets(rng, profile)
    return Instance(elements, sets, budget_lines, budget_red, ABSTRACT)


ATTEMPTS = 300  # candidates gen_random draws before it gives up


def gen_random(seed: int, profile: RandomProfile = RandomProfile()) -> Instance:
    """Deterministic-in-seed random instance satisfying the profile filters."""
    rng = random.Random(seed)
    build = _random_geometric if profile.mode == GEOMETRIC else _random_abstract
    for _ in range(ATTEMPTS):
        inst = build(rng, profile)
        if inst is not None:
            return inst
    raise FilterUnsatisfiable(f"profile filters unsatisfied after {ATTEMPTS} attempts")
