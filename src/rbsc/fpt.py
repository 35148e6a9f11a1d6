"""Fixed-parameter search for instances with finite line and red budgets.

The solver pivots on instances where every set covers exactly one blue
element.  An inclusion-minimal solution there takes one set per blue and
splits into red-connected components whose red sets are disjoint, so its red
count is the sum of its components' red counts.  The one-blue search
therefore works per blue mask:

  * it grows red-connected families one blue at a time (a new set must share
    a red with the reds already covered), memoized on the state (blue mask,
    covered-red mask), and drops every state above budget_red;
  * a blue mask's demand is the fewest reds any of its states covers;
  * a min-sum set partition over blue masks, g[m] = min over blocks B of m
    holding m's lowest blue of demand[B] + g[m - B], combines the blocks,
    and the answer is YES iff g[all blues] <= budget_red.

General instances are reduced to the one-blue case: after kernelization at
most budget_lines^2 blue elements survive, so at most budget_lines^4 sets
carry two or more blues.  A bounded search tree decides which of them the
solution takes: each node branches on its lowest blue that is neither
covered nor marked, over every multi-blue set containing it and finally over
marking it for the one-blue search if a one-blue set holds it.  Each branch
excludes, below it, the sets its earlier siblings took, so marking excludes
every multi-blue set holding the blue and no subfamily is reached twice.  A
node dies when the chosen sets cover more reds than budget_red, or when
chosen + marked + ceil(open / widest) exceeds budget_lines (widest: the most
blues in one multi-blue set).  Each leaf pays for its chosen sets, deletes
what they cover, and runs the one-blue search on the marked blues.  An
instance whose sets all hold one blue goes through the same tree: it has no
multi-blue set to choose, so the tree marks its blues in order and its one
leaf runs the one-blue search on all of them.

Searches are deterministic: the tree tries sets in ascending id order before
marking, the one-blue search grows states blue by blue in id order and keeps
the first state with the fewest reds per blue mask, and the partition keeps
the first block of least total.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

from . import kernel, model
from .errors import DegreeExceeded, PreconditionViolated
from .model import Instance, Solution


@dataclass
class SolveStats:
    """Work counters.

    branches: nodes of the multi-blue search tree (_search) visited;
    pruned: those of them cut by the red or the line bound;
    tuples: (blue mask, covered-red mask) states the one-blue search
    expanded, each once.
    """

    branches: int = 0
    pruned: int = 0
    tuples: int = 0


def _solve_one_blue_core(
    groups: list[list[tuple[int, int]]], budget_lines: int, budget_red: int, stats: SolveStats | None
) -> list[int] | None:
    """One set per blue covering at most budget_red reds in all, or None.

    groups[i] lists (set id, red mask) of the sets holding the i-th blue, in
    id order.
    """
    b = len(groups)
    if b > budget_lines:
        return None
    # via[(blue mask, red mask)]: the state and the set that first reached it
    via: dict[tuple[int, int], tuple[tuple[int, int] | None, int]] = {}
    layer: list[tuple[int, int]] = []
    for i, group in enumerate(groups):
        for sid, reds in group:
            state = (1 << i, reds)
            if reds.bit_count() <= budget_red and state not in via:
                via[state] = (None, sid)
                layer.append(state)
    # demand[blue mask]: the fewest reds of its states; cheapest: the first state with that few
    demand: dict[int, int] = {}
    cheapest: dict[int, tuple[int, int]] = {}
    while layer:
        grown: list[tuple[int, int]] = []
        for state in layer:
            blues, reds = state
            cost = reds.bit_count()
            if cost < demand.get(blues, budget_red + 1):
                demand[blues], cheapest[blues] = cost, state
            for i, group in enumerate(groups):
                if blues >> i & 1:
                    continue
                for sid, more in group:
                    if more & reds:
                        nxt = (blues | 1 << i, reds | more)
                        if nxt not in via and nxt[1].bit_count() <= budget_red:
                            via[nxt] = (state, sid)
                            grown.append(nxt)
        layer = grown
    if stats is not None:
        stats.tuples += len(via)
    # g[m]: fewest reds over partitions of m into blocks; pick[m]: the block holding m's lowest blue
    full = (1 << b) - 1
    g = [0] * (full + 1)
    pick = [0] * (full + 1)
    for m in range(1, full + 1):
        low = m & -m
        rest = m ^ low
        top = budget_red + 1
        sub = rest
        while True:
            val = demand.get(sub | low, top) + g[rest ^ sub]
            if val < top:
                top, pick[m] = val, sub | low
            if not sub:
                break
            sub = (sub - 1) & rest
        g[m] = top
    if g[full] > budget_red:
        return None
    family: list[int] = []
    m = full
    while m:
        step = cheapest[pick[m]]
        m ^= pick[m]
        while step is not None:
            step, sid = via[step]
            family.append(sid)
    return family


def _require_unweighted(instance: Instance):
    if instance.is_weighted():
        raise PreconditionViolated("red weights must all be 1 for this solver")


def _require_finite_budget(instance: Instance):
    if instance.budget_lines is None:
        raise PreconditionViolated("a finite line budget is required")


def _finish(instance: Instance, chosen, forced: frozenset[int]) -> Solution:
    sol = model.verify(instance, chosen)
    if not sol.feasible:
        raise AssertionError("assembled family failed verification")
    return Solution(sol.chosen, sol.blue_covered, sol.red_covered, True, forced)


def _search(reduced: Instance, stats: SolveStats | None) -> list[int] | None:
    """The sets of a solution, or None: the multi-blue tree, then the one-blue search.

    A node takes its lowest blue that is neither covered by a chosen set nor
    marked; its children choose each set containing that blue in id order,
    the k-th child excluding the k-1 sets before it, and a last child, when
    some one-blue set holds the blue, marks it as left to such a set,
    excluding every multi-blue set that contains it.  A node is cut when its
    chosen sets cover more than budget_red reds, or when chosen + marked +
    ceil(open / widest) exceeds budget_lines, widest being the most blues in
    any multi-blue set.  A leaf, where no blue is open, deletes everything
    the chosen sets cover along with every set sharing a blue with them and
    runs the one-blue search on the marked blues with the remaining budgets.
    """
    k_l, k_r = reduced.budget_lines, reduced.budget_red
    ix = reduced.index
    # by_blue[i]: (sid, blue mask, red mask, own bit) of every multi-blue set
    # holding blue bit i; own bits make up the excluded-set masks below.
    # single[i]: (sid, red mask) of every one-blue set holding it.
    by_blue: list[list[tuple[int, int, int, int]]] = [[] for _ in ix.blues]
    single: list[list[tuple[int, int]]] = [[] for _ in ix.blues]
    position = {eid: i for i, eid in enumerate(ix.blues)}
    widest = 1
    for bit, (sid, split) in enumerate(sorted(ix.sets.items())):
        if len(split.blue) >= 2:
            widest = max(widest, len(split.blue))
            for eid in split.blue:
                by_blue[position[eid]].append((sid, split.blue_mask, split.red_mask, 1 << bit))
        else:
            (blue,) = split.blue
            single[position[blue]].append((sid, split.red_mask))
    full = (1 << len(ix.blues)) - 1
    stats = stats if stats is not None else SolveStats()
    picked: list[int] = []

    def node(covered: int, red_mask: int, marked: int, banned: int) -> list[int] | None:
        stats.branches += 1
        open_mask = full & ~(covered | marked)
        lower = len(picked) + marked.bit_count() - (-open_mask.bit_count() // widest)
        if red_mask.bit_count() > k_r or lower > k_l:
            stats.pruned += 1
            return None
        if not open_mask:
            groups = [
                [(sid, reds & ~red_mask) for sid, reds in single[i]]
                for i in range(len(ix.blues))
                if marked >> i & 1
            ]
            return _solve_one_blue_core(groups, k_l - len(picked), k_r - red_mask.bit_count(), stats)
        low = open_mask & -open_mask
        for sid, bm, rm, own in by_blue[low.bit_length() - 1]:
            if own & banned:
                continue
            picked.append(sid)
            fam = node(covered | bm, red_mask | rm, marked, banned)
            if fam is not None:
                return fam
            picked.pop()
            banned |= own
        if not single[low.bit_length() - 1]:
            return None  # only a blue some one-blue set holds can be marked
        return node(covered, red_mask, marked | low, banned)

    fam = node(0, 0, 0, 0)
    return None if fam is None else picked + fam


def solve_one_blue_special(instance: Instance, *, stats: SolveStats | None = None) -> Solution | None:
    """Decide an instance in which every set covers exactly one blue element.

    The search of solve_kl_kr runs on the instance as given, without the
    kernel, so the family need not be a linear set system.  With no
    multi-blue set, the tree marks every blue (a blue in no set is a NO
    there) and is cut at once when there are more blues than the line
    budget; its one leaf finds, for every blue mask, the fewest reds of a
    red-connected family with one set per blue, and a min-sum partition of
    all blues into such masks decides the instance.
    """
    _require_unweighted(instance)
    _require_finite_budget(instance)
    for sid, split in instance.index.sets.items():
        if len(split.blue) != 1:
            raise PreconditionViolated(
                f"set {sid} has {len(split.blue)} blue elements; exactly one is required"
            )
    fam = _search(instance, stats)
    if fam is None:
        return None
    return _finish(instance, fam, frozenset())


def solve_kl_kr(instance: Instance, *, stats: SolveStats | None = None) -> Solution | None:
    """Decide a finite-budget linear-system instance.

    Kernelize, then search a tree over the sets with two or more blues whose
    leaves run the one-blue search on the blues left to one-blue sets (see
    _search).
    """
    _require_unweighted(instance)
    _require_finite_budget(instance)
    result = kernel.kernelize_kl_kr(instance)
    if result.is_no:
        return None
    fam = _search(result.instance, stats)
    if fam is None:
        return None
    return _finish(instance, result.forced | set(fam), result.forced)


def solve_bounded_red(
    instance: Instance, d: int, *, stats: SolveStats | None = None
) -> Solution | None:
    """Decide when every set carries at most d red elements.

    A solution touches at most d * budget_lines reds, so the red budget can
    be capped there before delegating.
    """
    _require_unweighted(instance)
    _require_finite_budget(instance)
    if d < 0:
        raise ValueError("d must be nonnegative")
    for sid, split in instance.index.sets.items():
        if len(split.red) > d:
            raise DegreeExceeded(f"set {sid} has {len(split.red)} red elements, more than d={d}")
    capped = min(instance.budget_red, d * instance.budget_lines)
    sol = solve_kl_kr(replace(instance, budget_red=capped), stats=stats)
    if sol is None:
        return None
    return _finish(instance, sol.chosen, sol.forced)


def solve_two_blue_special(
    instance: Instance, *, stats: SolveStats | None = None
) -> Solution | None:
    """Decide when every set has either no blue elements or at least two.

    With no one-blue sets, the search of solve_kl_kr never marks a blue, so
    its leaves are subfamilies of multi-blue sets that cover every blue.
    """
    _require_unweighted(instance)
    _require_finite_budget(instance)
    for sid, split in instance.index.sets.items():
        if len(split.blue) == 1:
            raise PreconditionViolated(
                f"set {sid} has exactly one blue element; zero or >= 2 required"
            )
    return solve_kl_kr(instance, stats=stats)


def solve_rbsc_kr_two_red(
    instance: Instance, *, stats: SolveStats | None = None
) -> Solution | None:
    """Decide unbounded-budget instances whose sets have zero or >= 2 reds.

    Red-free sets are always taken and useless sets dropped; each surviving
    set then holds at least two of the at most budget_red coverable reds, so
    some solution uses at most C(budget_red, 2) sets and the finite-budget
    solver applies.  That solver needs a linear set system, so a family the
    rules leave non-linear raises NotLinearSystem; `rbsc solve --algo auto`
    picks this solver for linear input only.
    """
    _require_unweighted(instance)
    if instance.budget_lines is not None:
        raise PreconditionViolated("an unbounded line budget is required")
    for sid, split in instance.index.sets.items():
        if len(split.red) == 1:
            raise PreconditionViolated(
                f"set {sid} has exactly one red element; zero or >= 2 required"
            )
    forced: set[int] = set()
    inst, _ = kernel._run_cycle(
        instance,
        (kernel.rule_delete_red_only, kernel.rule_delete_heavy_red, kernel.rule_take_blue_only),
        [],
        forced,
    )
    bounded = replace(inst, budget_lines=comb(inst.budget_red, 2))
    sub = solve_kl_kr(bounded, stats=stats)
    if sub is None:
        return None
    return _finish(instance, frozenset(forced) | sub.chosen, frozenset(forced) | sub.forced)

