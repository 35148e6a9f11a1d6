"""Shared helpers: compact instance builders, instance views and independent mini-oracles."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from rbsc.geometry import PlanePoint
from rbsc.model import ABSTRACT, BLUE, GEOMETRIC, RED, Element, Instance


def point(x, y) -> PlanePoint:
    """The plane point (x, y), from anything Fraction takes."""
    return PlanePoint(Fraction(x), Fraction(y))


def element(instance, eid) -> Element:
    """The element of the universe with id eid."""
    return next(e for e in instance.elements if e.eid == eid)


def set_ids(instance) -> list[int]:
    return [sid for sid, _ in instance.family]


def blue_ids(instance) -> frozenset[int]:
    return frozenset(e.eid for e in instance.elements if e.color == BLUE)


def red_ids(instance) -> frozenset[int]:
    return frozenset(e.eid for e in instance.elements if e.color == RED)


def blue_members(instance, sid) -> frozenset[int]:
    return instance.members(sid) & blue_ids(instance)


def red_members(instance, sid) -> frozenset[int]:
    return instance.members(sid) & red_ids(instance)


def abstract_instance(colors, sets, budget_lines, budget_red, weights=None):
    """colors: string like 'BBR' (element i gets colors[i]); sets: iterable of iterables."""
    weights = weights or {}
    elements = tuple(
        Element(i, c, None, weights.get(i, 1)) for i, c in enumerate(colors)
    )
    family = tuple((sid, frozenset(mem)) for sid, mem in enumerate(sets))
    return Instance(elements, family, budget_lines, budget_red, ABSTRACT)


def with_random_weights(instance, seed):
    """instance with each red's weight drawn from 1..3 by a seeded rng."""
    rng = random.Random(seed)
    elements = tuple(
        replace(e, weight=rng.randint(1, 3)) if e.color == RED else e for e in instance.elements
    )
    return replace(instance, elements=elements)


def geometric_instance(points, sets, budget_lines, budget_red):
    """points: list of (x, y, color); sets: iterable of member-index iterables."""
    elements = tuple(
        Element(i, c, point(x, y)) for i, (x, y, c) in enumerate(points)
    )
    family = tuple((sid, frozenset(mem)) for sid, mem in enumerate(sets))
    return Instance(elements, family, budget_lines, budget_red, GEOMETRIC)


def brute_min_family_size(instance) -> int | None:
    """Smallest feasible family size by plain enumeration; None when infeasible.

    Independent of the package solvers: works directly on member sets.
    """
    blues = blue_ids(instance)
    sids = set_ids(instance)
    weight = {e.eid: e.weight for e in instance.elements}
    limit = len(sids) if instance.budget_lines is None else min(instance.budget_lines, len(sids))
    for size in range(limit + 1):
        for combo in combinations(sids, size):
            covered = set()
            for sid in combo:
                covered |= instance.members(sid)
            if not blues <= covered:
                continue
            red = sum(weight[e] for e in covered if instance.color_of(e) == RED)
            if red <= instance.budget_red:
                return size
    return None


def intersection_graph(instance, sids=None) -> dict[int, frozenset[int]]:
    """Adjacency over sets; an edge joins two sets with a common element."""
    ids = sorted(set_ids(instance) if sids is None else sids)
    adj: dict[int, set[int]] = {sid: set() for sid in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if instance.members(a) & instance.members(b):
                adj[a].add(b)
                adj[b].add(a)
    return {sid: frozenset(n) for sid, n in adj.items()}
