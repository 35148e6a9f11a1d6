"""The paper's good tuples and their conformity search, kept as a test reference.

A good tuple is the numerical skeleton of a candidate solution of a one-blue
instance: a partition of the blues into components, an ordering of each,
and a split of the red budget.  check_conforming searches for a family
realizing one tuple, and the instance is YES iff some tuple of
enumerate_good_tuples is realized.  The solvers decide it by the subset
search in rbsc.fpt instead, and the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from rbsc.errors import PreconditionViolated
from rbsc.model import Instance


@dataclass(frozen=True)
class GoodTuple:
    """Numerical skeleton of a candidate solution's component structure."""

    blue_count: int
    red_total: int
    part_count: int
    blocks: tuple[tuple[int, ...], ...]
    orderings: tuple[tuple[int, ...], ...]
    red_budgets: tuple[int, ...]

    def __post_init__(self):
        s = self.part_count
        if not 1 <= s <= self.blue_count:
            raise ValueError("part count out of range")
        if not (len(self.blocks) == len(self.orderings) == len(self.red_budgets) == s):
            raise ValueError("component lists disagree with part count")
        seen: set[int] = set()
        for block, ordering in zip(self.blocks, self.orderings):
            if not block:
                raise ValueError("empty block")
            if set(ordering) != set(block) or len(ordering) != len(block):
                raise ValueError("ordering is not a permutation of its block")
            if seen & set(block):
                raise ValueError("blocks overlap")
            seen |= set(block)
        if len(seen) != self.blue_count:
            raise ValueError("blocks do not cover the blue elements")
        if any(k < 0 for k in self.red_budgets) or sum(self.red_budgets) != self.red_total:
            raise ValueError("red budgets must be nonnegative and sum to the total")
        mins = [min(block) for block in self.blocks]
        if mins != sorted(mins):
            raise ValueError("blocks are not in canonical order")


def _partitions_into(elems: tuple[int, ...], s: int):
    """Partitions of elems into exactly s blocks, canonical enumeration order."""
    n = len(elems)
    blocks: list[list[int]] = []

    def rec(i):
        if i == n:
            if len(blocks) == s:
                yield tuple(tuple(b) for b in blocks)
            return
        x = elems[i]
        rem_after = n - i - 1
        for blk in blocks:
            if len(blocks) + rem_after >= s:
                blk.append(x)
                yield from rec(i + 1)
                blk.pop()
        if len(blocks) < s:
            blocks.append([x])
            yield from rec(i + 1)
            blocks.pop()

    yield from rec(0)


def _compositions(total: int, parts: int):
    """Nonnegative integer tuples of given length summing to total, lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_good_tuples(blue_ids, budget_lines: int, budget_red: int):
    """Stream every good tuple exactly once, in deterministic order.

    Order: ascending part count, then partition, then per-block orderings,
    then ascending covered-red total, then budget compositions.
    """
    blues = tuple(sorted(blue_ids))
    b = len(blues)
    if b == 0 or b > budget_lines:
        return
    for s in range(1, b + 1):
        for partition in _partitions_into(blues, s):
            for orderings in product(*[permutations(block) for block in partition]):
                for p in range(budget_red + 1):
                    for comp in _compositions(p, s):
                        yield GoodTuple(b, p, s, partition, orderings, comp)


class _OneBlueContext:
    """Index of a family in which every set covers exactly one blue element.

    sets maps a set id to its blue and its red mask; by_blue lists the set
    ids holding each blue in ascending order.
    """

    __slots__ = ("blues", "sets", "by_blue")

    def __init__(self, instance: Instance):
        self.blues = tuple(sorted(instance.blue_ids))
        self.sets: dict[int, tuple[int, int]] = {}
        self.by_blue: dict[int, list[int]] = {}
        for sid, split in sorted(instance.index.sets.items()):
            if len(split.blue) != 1:
                raise PreconditionViolated(
                    f"set {sid} has {len(split.blue)} blue elements; exactly one is required"
                )
            (blue,) = split.blue
            self.sets[sid] = (blue, split.red_mask)
            self.by_blue.setdefault(blue, []).append(sid)


def _search_block(ctx: _OneBlueContext, ordering, budget: int) -> list[int] | None:
    """First family (in candidate order) realizing one component, or None.

    Step 1 tries every set holding the first blue; step j > 1 only the sets
    holding the j-th blue that share a red with those chosen before.
    """
    t = len(ordering)
    chosen: list[int] = []

    def rec(j: int, acc: int) -> bool:
        if j == t:
            return True
        for sid in ctx.by_blue.get(ordering[j], ()):
            reds = ctx.sets[sid][1]
            if j and not reds & acc or (acc | reds).bit_count() > budget:
                continue
            chosen.append(sid)
            if rec(j + 1, acc | reds):
                return True
            chosen.pop()
        return False

    return list(chosen) if rec(0, 0) else None


def _assemble_blocks(ctx: _OneBlueContext, tup: GoodTuple, budget_red: int):
    families: list[int] = []
    for ordering, budget in zip(tup.orderings, tup.red_budgets):
        fam = _search_block(ctx, ordering, budget)
        if fam is None:
            return None
        families.extend(fam)
    union = tuple(sorted(set(families)))
    covered_blue = {ctx.sets[sid][0] for sid in union}
    covered_red = 0
    for sid in union:
        covered_red |= ctx.sets[sid][1]
    if covered_blue != set(ctx.blues) or covered_red.bit_count() > budget_red:
        return None
    return union


def check_conforming(instance: Instance, tup: GoodTuple) -> tuple[int, ...] | None:
    """Search for a family realizing the skeleton; None when none exists.

    The returned union is re-verified to cover every blue element while
    touching at most budget_red distinct red elements.
    """
    return _assemble_blocks(_OneBlueContext(instance), tup, instance.budget_red)
