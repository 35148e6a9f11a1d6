"""Brute-force reference solvers.

These are the ground truth the faster algorithms are property-tested against.
Guards turn accidental exponential blowups into loud errors instead of hangs;
pass force=True to override.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BoundedBudget, TooLarge
from .model import Instance, Solution

SUBSET_GUARD = 25


def _bit_tables(instance: Instance):
    ix = instance.index
    weights = [instance.red_weight(eid) for eid in ix.reds]
    sets = [(sid, split.blue_mask, split.red_mask) for sid, split in ix.sets.items()]
    return ix.blues, ix.reds, weights, sets


def _red_score(mask: int, weights: list[int]) -> int:
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def brute_force_solve(instance: Instance, *, force: bool = False) -> Solution | None:
    """Enumerate every subfamily within the line budget.

    Returns a feasible family minimizing (red covered, family size)
    lexicographically, ties broken by enumeration order, or None.
    """
    ell = instance.num_sets
    if ell > SUBSET_GUARD and not force:
        raise TooLarge(f"{ell} sets exceeds the brute-force guard of {SUBSET_GUARD}")
    blues, reds, weights, sets = _bit_tables(instance)
    full = (1 << len(blues)) - 1
    k_r = instance.budget_red
    max_size = ell if instance.budget_lines is None else min(instance.budget_lines, ell)
    best: tuple[int, int, tuple[int, ...]] | None = None
    for size in range(max_size + 1):
        for combo in combinations(sets, size):
            bm = rm = 0
            for _, b, r in combo:
                bm |= b
                rm |= r
            if bm != full:
                continue
            score = _red_score(rm, weights)
            if score > k_r:
                continue
            if best is None or (score, size) < best[:2]:
                best = (score, size, tuple(s for s, _, _ in combo))
    if best is None:
        return None
    score, _, chosen = best
    return Solution(frozenset(chosen), len(blues), score, True)


def solve_rbsc_by_red_subsets(instance: Instance, *, force: bool = False) -> Solution | None:
    """Decide unbounded-budget instances by guessing the covered red set.

    For each red subset R' of size <= budget_red (smallest first), take every
    set whose red elements all lie in R' and test whether those cover the
    blues.  The first success is returned.
    """
    if instance.budget_lines is not None:
        raise BoundedBudget("red-subset enumeration needs an unbounded line budget")
    r = instance.num_red
    if r > SUBSET_GUARD and not force:
        raise TooLarge(f"{r} red elements exceeds the guard of {SUBSET_GUARD}")
    blues, reds, weights, sets = _bit_tables(instance)
    full = (1 << len(blues)) - 1
    for size in range(min(instance.budget_red, r) + 1):
        for picked in combinations(range(r), size):
            rmask = 0
            for i in picked:
                rmask |= 1 << i
            chosen = []
            bm = rm_cov = 0
            for sid, b, rr in sets:
                if rr & ~rmask == 0:
                    chosen.append(sid)
                    bm |= b
                    rm_cov |= rr
            if bm != full:
                continue
            score = _red_score(rm_cov, weights)
            if score > instance.budget_red:
                continue  # possible only with non-unit weights
            return Solution(frozenset(chosen), len(blues), score, True)
    return None
