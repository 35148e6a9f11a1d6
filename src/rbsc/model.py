"""Instance and solution model, structural validation, and file I/O.

Instances are immutable after construction.  A kernel edit is a TraceEntry,
and apply_trace_entry at the bottom is the one place that carries one out,
returning a fresh instance; cleanup names the empty and duplicate sets to drop
as such an entry.  Deleting elements from a geometric instance switches it to
abstract mode: only the linear-set-system structure is guaranteed afterwards,
so coordinates are dropped rather than kept half-valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .errors import ParseError, SemanticError, UnknownSetId
from .geometry import PlanePoint, _scaled

BLUE = "B"
RED = "R"
GEOMETRIC = "geometric"
ABSTRACT = "abstract"


@dataclass(frozen=True)
class Element:
    eid: int
    color: str
    point: PlanePoint | None = None
    weight: int = 1

    def __post_init__(self):
        if self.color not in (BLUE, RED):
            raise ValueError(f"bad color {self.color!r} on element {self.eid}")
        if self.weight < 1:
            raise ValueError(f"non-positive weight on element {self.eid}")
        if self.color == BLUE and self.weight != 1:
            raise ValueError(f"weight on blue element {self.eid}")


@dataclass(frozen=True)
class Instance:
    """A universe of colored elements, a set family, and the two budgets.

    budget_lines is None when the number of chosen sets is unbounded.
    Elements and family are stored sorted by id, so equal instances compare
    equal structurally and serialization is canonical.
    """

    elements: tuple[Element, ...]
    family: tuple[tuple[int, frozenset[int]], ...]
    budget_lines: int | None
    budget_red: int
    mode: str = GEOMETRIC

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(self.elements, key=lambda e: e.eid)))
        object.__setattr__(
            self, "family", tuple(sorted(((s, frozenset(m)) for s, m in self.family)))
        )
        if self.mode not in (GEOMETRIC, ABSTRACT):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.budget_lines is not None and self.budget_lines < 0:
            raise ValueError("negative budget_lines")
        if self.budget_red < 0:
            raise ValueError("negative budget_red")
        by_eid = {}
        for el in self.elements:
            if el.eid < 0:
                raise ValueError(f"negative element id {el.eid}")
            if el.eid in by_eid:
                raise ValueError(f"duplicate element id {el.eid}")
            by_eid[el.eid] = el
        members = {}
        for sid, mem in self.family:
            if sid < 0:
                raise ValueError(f"negative set id {sid}")
            if sid in members:
                raise ValueError(f"duplicate set id {sid}")
            members[sid] = mem
        object.__setattr__(self, "_by_eid", by_eid)
        object.__setattr__(self, "_members", members)

    # -- derived views (computed once per instance, on first use) --

    @cached_property
    def index(self) -> InstanceIndex:
        return InstanceIndex(self)

    @cached_property
    def overlaps(self) -> tuple[tuple[int, int], ...]:
        """Ascending pairs of set ids whose sets share two or more elements.

        Hashing every member pair to the sets holding it takes O(sum of
        |S|^2), not O(ell^2) pairwise intersections.  Kept apart from the
        index so that validate does not pay for the color split.
        """
        holders: dict[tuple[int, int], list[int]] = {}
        for sid, mem in self.family:
            for pair in combinations(sorted(mem), 2):
                holders.setdefault(pair, []).append(sid)
        return tuple(sorted({p for sids in holders.values() for p in combinations(sids, 2)}))

    def element(self, eid: int) -> Element:
        return self._by_eid[eid]

    def has_element(self, eid: int) -> bool:
        return eid in self._by_eid

    def members(self, sid: int) -> frozenset[int]:
        return self._members[sid]

    @property
    def set_ids(self) -> list[int]:
        return [sid for sid, _ in self.family]

    @property
    def blue_ids(self) -> frozenset[int]:
        return self.index.blue_ids

    @property
    def red_ids(self) -> frozenset[int]:
        return self.index.red_ids

    @property
    def num_blue(self) -> int:
        return len(self.index.blues)

    @property
    def num_red(self) -> int:
        return len(self.index.reds)

    @property
    def num_sets(self) -> int:
        return len(self.family)

    def blue_members(self, sid: int) -> frozenset[int]:
        return self.index.sets[sid].blue

    def red_members(self, sid: int) -> frozenset[int]:
        return self.index.sets[sid].red

    def color_of(self, eid: int) -> str:
        return self._by_eid[eid].color

    def red_weight(self, eid: int) -> int:
        return self._by_eid[eid].weight

    def is_weighted(self) -> bool:
        return self.index.weighted


class SetSplit(NamedTuple):
    """One set's members split by color.

    Bit i of blue_mask (red_mask) stands for the i-th smallest blue (red) id.
    """

    blue: frozenset[int]
    red: frozenset[int]
    red_weight: int
    blue_mask: int
    red_mask: int


class InstanceIndex:
    """Per-set color splits and their bit numbering, built once per instance.

    Members naming no element of the universe are in neither split; validate
    reports them.
    """

    def __init__(self, instance: Instance):
        self.blues = tuple(e.eid for e in instance.elements if e.color == BLUE)
        self.reds = tuple(e.eid for e in instance.elements if e.color == RED)
        self.blue_ids = frozenset(self.blues)
        self.red_ids = frozenset(self.reds)
        self.weighted = any(e.weight != 1 for e in instance.elements)
        blue_bit = {eid: 1 << i for i, eid in enumerate(self.blues)}
        red_bit = {eid: 1 << i for i, eid in enumerate(self.reds)}
        self.sets: dict[int, SetSplit] = {}
        for sid, mem in instance.family:
            blue = mem & self.blue_ids
            red = mem & self.red_ids
            self.sets[sid] = SetSplit(
                blue,
                red,
                sum(instance.red_weight(e) for e in red),
                sum(blue_bit[e] for e in blue),
                sum(red_bit[e] for e in red),
            )


@dataclass(frozen=True)
class Solution:
    chosen: frozenset[int]
    blue_covered: int
    red_covered: int
    feasible: bool
    forced: frozenset[int] = frozenset()


@dataclass(frozen=True)
class TraceEntry:
    """One answer-preserving transformation, mechanical enough to replay."""

    rule: str
    removed_sets: tuple[int, ...] = ()
    forced_sets: tuple[int, ...] = ()
    removed_elements: tuple[int, ...] = ()
    delta_lines: int = 0
    delta_red: int = 0
    reweights: tuple[tuple[int, int], ...] = ()
    note: str = ""


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    linear_system: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(instance: Instance) -> ValidationReport:
    """Report dangling ids, coordinate problems, non-collinear or non-maximal
    sets, and whether the family is a linear set system."""
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
        placed = [el for el in instance.elements if el.point is not None]
        _, scaled = _scaled([el.point for el in placed])
        xy = {el.eid: p for el, p in zip(placed, scaled)}
        for sid, mem in instance.family:
            pts = [eid for eid in sorted(mem) if eid in xy]
            if len(pts) < 2:
                continue
            (x0, y0), (x1, y1) = xy[pts[0]], xy[pts[1]]
            if x0 == x1 and y0 == y1:
                continue  # coincident points already reported
            # (x, y) lies on the line iff dx*(y - y0) - dy*(x - x0) == 0
            dx, dy = x1 - x0, y1 - y0
            c = dx * y0 - dy * x0
            on = [eid for eid, (x, y) in xy.items() if dx * y - dy * x == c]
            inside = set(pts)
            if not inside.issubset(on):
                rep.violations.append(f"set {sid} is not collinear")
                continue
            for eid in on:
                if eid not in inside:
                    rep.violations.append(
                        f"set {sid} is not maximal: element {eid} lies on its line"
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


def is_linear_system(instance: Instance) -> bool:
    return not instance.overlaps


def verify(instance: Instance, chosen) -> Solution:
    """Recompute coverage statistics of a chosen subfamily from scratch.

    Red elements are counted (weight-summed) once each no matter how many
    chosen sets cover them.
    """
    chosen = frozenset(chosen)
    splits = instance.index.sets
    for sid in chosen:
        if sid not in splits:
            raise UnknownSetId(f"set {sid} is not in the family")
    blue: set[int] = set()
    red: set[int] = set()
    for sid in chosen:
        blue |= splits[sid].blue
        red |= splits[sid].red
    blue_covered = len(blue)
    red_covered = sum(instance.red_weight(e) for e in red)
    feasible = (
        blue_covered == instance.num_blue
        and red_covered <= instance.budget_red
        and (instance.budget_lines is None or len(chosen) <= instance.budget_lines)
    )
    return Solution(chosen, blue_covered, red_covered, feasible)


# ---------------------------------------------------------------------------
# instance file format


def _fmt_rational(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def serialize_instance(instance: Instance) -> str:
    lines = ["rbsc 1", f"mode {instance.mode}"]
    lines.append(
        "budget_lines inf" if instance.budget_lines is None else f"budget_lines {instance.budget_lines}"
    )
    lines.append(f"budget_red {instance.budget_red}")
    for el in instance.elements:
        parts = [f"point {el.eid} {el.color}"]
        if instance.mode == GEOMETRIC and el.point is not None:
            parts.append(f"{_fmt_rational(el.point.x)} {_fmt_rational(el.point.y)}")
        if el.color == RED and el.weight != 1:
            parts.append(f"w={el.weight}")
        lines.append(" ".join(parts))
    for sid, mem in instance.family:
        body = " ".join(str(e) for e in sorted(mem))
        lines.append(f"set {sid} : {body}".rstrip())
    return "\n".join(lines) + "\n"


def _is_digits(token: str) -> bool:
    """ASCII digits only: str.isdigit also holds for '²' and '٣'."""
    return token.isascii() and token.isdigit()


def _parse_rational(token: str, lineno: int) -> Fraction:
    num, sep, den = token.partition("/")
    if not sep:
        raise SemanticError(lineno, f"bad rational {token!r}: expected n/d")
    if not (_is_digits(num.removeprefix("-")) and _is_digits(den)):
        raise SemanticError(lineno, f"bad rational {token!r}")
    n, d = int(num), int(den)
    if d <= 0:
        raise SemanticError(lineno, f"bad rational {token!r}: denominator must be positive")
    return Fraction(n, d)


def _parse_nonneg(token: str, lineno: int, what: str) -> int:
    if not _is_digits(token):
        raise ParseError(lineno, f"expected nonnegative integer for {what}, got {token!r}")
    return int(token)


def _rows(text: str) -> list[tuple[int, list[str]]]:
    """(1-based line number, tokens) of every line left non-blank once its comment is cut."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            rows.append((lineno, tokens))
    return rows


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format; inverse of serialize_instance."""
    rows = _rows(text)
    if not rows:
        raise ParseError(1, "empty instance file")
    it = iter(rows)

    def expect(keyword: str):
        try:
            lineno, toks = next(it)
        except StopIteration:
            raise ParseError(len(text.splitlines()) + 1, f"missing {keyword!r} line") from None
        if toks[0] != keyword:
            raise ParseError(lineno, f"expected {keyword!r}, got {toks[0]!r}")
        return lineno, toks

    lineno, toks = expect("rbsc")
    if toks[1:] != ["1"]:
        raise ParseError(lineno, "unsupported format version")
    lineno, toks = expect("mode")
    if len(toks) != 2 or toks[1] not in (GEOMETRIC, ABSTRACT):
        raise ParseError(lineno, "mode must be 'geometric' or 'abstract'")
    mode = toks[1]
    lineno, toks = expect("budget_lines")
    if len(toks) != 2:
        raise ParseError(lineno, "budget_lines takes one value")
    budget_lines = None if toks[1] == "inf" else _parse_nonneg(toks[1], lineno, "budget_lines")
    lineno, toks = expect("budget_red")
    if len(toks) != 2:
        raise ParseError(lineno, "budget_red takes one value")
    budget_red = _parse_nonneg(toks[1], lineno, "budget_red")

    elements: list[Element] = []
    eids: set[int] = set()
    family: list[tuple[int, frozenset[int]]] = []
    sids: set[int] = set()
    for lineno, toks in it:
        if toks[0] == "point":
            if len(toks) < 3:
                raise ParseError(lineno, "point needs an id and a color")
            eid = _parse_nonneg(toks[1], lineno, "point id")
            color = toks[2]
            if color not in (BLUE, RED):
                raise ParseError(lineno, f"bad color {color!r}")
            rest = toks[3:]
            weight = 1
            if rest and rest[-1].startswith("w="):
                wtok = rest.pop()[2:]
                if not _is_digits(wtok) or int(wtok) < 1:
                    raise SemanticError(lineno, f"bad weight {wtok!r}")
                if color == BLUE:
                    raise SemanticError(lineno, "weight on a blue point")
                weight = int(wtok)
            point = None
            if mode == GEOMETRIC:
                if len(rest) != 2:
                    raise SemanticError(lineno, "geometric point needs two coordinates")
                point = PlanePoint(
                    _parse_rational(rest[0], lineno), _parse_rational(rest[1], lineno)
                )
            elif rest:
                raise SemanticError(lineno, "coordinates forbidden in abstract mode")
            if eid in eids:
                raise SemanticError(lineno, f"duplicate point id {eid}")
            eids.add(eid)
            elements.append(Element(eid, color, point, weight))
        elif toks[0] == "set":
            if len(toks) < 3 or toks[2] != ":":
                raise ParseError(lineno, "set line must look like 'set <id> : <pid> ...'")
            sid = _parse_nonneg(toks[1], lineno, "set id")
            if sid in sids:
                raise SemanticError(lineno, f"duplicate set id {sid}")
            sids.add(sid)
            mem = []
            for tok in toks[3:]:
                pid = _parse_nonneg(tok, lineno, "member id")
                if pid not in eids:
                    raise SemanticError(lineno, f"set {sid} references unknown point {pid}")
                if pid in mem:
                    raise SemanticError(lineno, f"set {sid} repeats member {pid}")
                mem.append(pid)
            family.append((sid, frozenset(mem)))
        else:
            raise ParseError(lineno, f"unknown directive {toks[0]!r}")
    return Instance(tuple(elements), tuple(family), budget_lines, budget_red, mode)


# ---------------------------------------------------------------------------
# solution file format


@dataclass(frozen=True)
class SolutionFile:
    decision: bool
    chosen: frozenset[int] = frozenset()
    red_covered: int = 0
    blue_covered: int = 0


def serialize_solution(solution: Solution | None) -> str:
    if solution is None:
        return "solution no\n"
    lines = ["solution yes"]
    lines += [f"set {sid}" for sid in sorted(solution.chosen)]
    lines.append(f"red {solution.red_covered}")
    lines.append(f"blue {solution.blue_covered}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> SolutionFile:
    rows = _rows(text)
    if not rows:
        raise ParseError(1, "empty solution file")
    lineno, head = rows[0]
    if head[0] != "solution" or len(head) != 2 or head[1] not in ("yes", "no"):
        raise ParseError(lineno, "first line must be 'solution yes' or 'solution no'")
    if head[1] == "no":
        if len(rows) > 1:
            raise ParseError(rows[1][0], "content after 'solution no'")
        return SolutionFile(False)
    chosen = set()
    red = blue = 0
    for lineno, toks in rows[1:]:
        if toks[0] == "set" and len(toks) == 2:
            chosen.add(_parse_nonneg(toks[1], lineno, "set id"))
        elif toks[0] in ("red", "blue") and len(toks) == 2:
            value = _parse_nonneg(toks[1], lineno, toks[0])
            if toks[0] == "red":
                red = value
            else:
                blue = value
        else:
            raise ParseError(lineno, f"bad solution line {' '.join(toks)!r}")
    return SolutionFile(True, frozenset(chosen), red, blue)


# ---------------------------------------------------------------------------
# applying kernel edits


def cleanup(instance: Instance) -> TraceEntry | None:
    """The entry dropping empty sets and duplicate sets (smallest id survives), if any."""
    removed = []
    seen: set[frozenset[int]] = set()
    for sid, mem in instance.family:  # family is sorted, so first owner has smallest id
        if not mem or mem in seen:
            removed.append(sid)
        seen.add(mem)
    if not removed:
        return None
    return TraceEntry("cleanup", removed_sets=tuple(removed), note="empty or duplicate sets")


def apply_trace_entry(instance: Instance, entry: TraceEntry) -> tuple[Instance, frozenset[int]]:
    """Apply one trace entry; returns (instance, newly forced sets).

    Removed and forced sets leave the family; removed elements leave the
    universe and every set.  Sets may then stop being maximal collinear
    families of the shrunken universe, so deleting elements demotes the
    instance to abstract mode and drops every coordinate.
    """
    gone = set(entry.removed_sets) | set(entry.forced_sets)
    drop = set(entry.removed_elements)
    weights = dict(entry.reweights)
    elements = instance.elements
    if drop or weights:
        elements = tuple(
            Element(e.eid, e.color, None if drop else e.point, weights.get(e.eid, e.weight))
            for e in elements
            if e.eid not in drop
        )
    mode = ABSTRACT if drop else instance.mode
    family = tuple((s, m - drop) for s, m in instance.family if s not in gone)
    budget_lines = instance.budget_lines
    if entry.delta_lines:
        budget_lines += entry.delta_lines
    reduced = Instance(elements, family, budget_lines, instance.budget_red + entry.delta_red, mode)
    return reduced, frozenset(entry.forced_sets)


def replay_trace(instance: Instance, trace) -> tuple[Instance, frozenset[int]]:
    """Replay a kernelization trace on the original instance."""
    forced: frozenset[int] = frozenset()
    inst = instance
    for entry in trace:
        if entry.rule == "no_certificate":
            break
        inst, newly = apply_trace_entry(inst, entry)
        forced |= newly
    return inst, forced


def format_trace(trace) -> str:
    """Human-readable log, one rule application per line."""
    out = []
    for e in trace:
        bits = [e.rule]
        if e.forced_sets:
            bits.append("forced sets " + ",".join(map(str, e.forced_sets)))
        if e.removed_sets:
            bits.append("removed sets " + ",".join(map(str, e.removed_sets)))
        if e.removed_elements:
            bits.append("removed elements " + ",".join(map(str, e.removed_elements)))
        if e.delta_lines:
            bits.append(f"budget_lines {e.delta_lines:+}")
        if e.delta_red:
            bits.append(f"budget_red {e.delta_red:+}")
        if e.reweights:
            bits.append("weights " + ",".join(f"{eid}->{w}" for eid, w in e.reweights))
        if e.note:
            bits.append(f"({e.note})")
        out.append("; ".join(bits))
    return "\n".join(out) + ("\n" if out else "")
