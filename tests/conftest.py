"""Shared helpers: compact instance builders and independent mini-oracles."""

from __future__ import annotations

from itertools import combinations

from rbsc.geometry import PlanePoint
from rbsc.model import ABSTRACT, GEOMETRIC, RED, Element, Instance


def abstract_instance(colors, sets, budget_lines, budget_red, weights=None):
    """colors: string like 'BBR' (element i gets colors[i]); sets: iterable of iterables."""
    weights = weights or {}
    elements = tuple(
        Element(i, c, None, weights.get(i, 1)) for i, c in enumerate(colors)
    )
    family = tuple((sid, frozenset(mem)) for sid, mem in enumerate(sets))
    return Instance(elements, family, budget_lines, budget_red, ABSTRACT)


def geometric_instance(points, sets, budget_lines, budget_red):
    """points: list of (x, y, color); sets: iterable of member-index iterables."""
    elements = tuple(
        Element(i, c, PlanePoint.of(x, y)) for i, (x, y, c) in enumerate(points)
    )
    family = tuple((sid, frozenset(mem)) for sid, mem in enumerate(sets))
    return Instance(elements, family, budget_lines, budget_red, GEOMETRIC)


def brute_min_family_size(instance) -> int | None:
    """Smallest feasible family size by plain enumeration; None when infeasible.

    Independent of the package solvers: works directly on member sets.
    """
    blues = instance.blue_ids
    sids = instance.set_ids
    limit = len(sids) if instance.budget_lines is None else min(instance.budget_lines, len(sids))
    for size in range(limit + 1):
        for combo in combinations(sids, size):
            covered = set()
            for sid in combo:
                covered |= instance.members(sid)
            if not blues <= covered:
                continue
            red = sum(
                instance.red_weight(e) for e in covered if instance.color_of(e) == RED
            )
            if red <= instance.budget_red:
                return size
    return None


def intersection_graph(instance, set_ids=None) -> dict[int, frozenset[int]]:
    """Adjacency over sets; an edge joins two sets with a common element."""
    ids = sorted(instance.set_ids if set_ids is None else set_ids)
    adj: dict[int, set[int]] = {sid: set() for sid in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if instance.members(a) & instance.members(b):
                adj[a].add(b)
                adj[b].add(a)
    return {sid: frozenset(n) for sid, n in adj.items()}
