"""Fixed-parameter search for instances with finite line and red budgets.

The solver pivots on instances where every set covers exactly one blue
element.  An inclusion-minimal solution there takes one set per blue and
splits into red-connected components whose red sets are disjoint, so its red
count is the sum of its components' red counts.  The one-blue search
therefore works per blue mask:

  * it grows red-connected families one blue at a time (a new set must share
    a red with the reds already covered), memoized on the state (blue mask,
    covered-red mask), and drops every state above budget_red;
  * a blue mask some state reaches is a block, and its cost is the fewest
    reds any of its states covers;
  * a min-sum set partition over the blocks that exist, g[m] = min over
    blocks B within m holding m's lowest blue of cost[B] + g[m - B],
    combines them, and the answer is YES iff g[all blues] <= budget_red.
    It pushes each block to the masks it can start: B relaxes B + x for
    every x among the blues above B's lowest and outside B.

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
what they cover along with every set sharing a blue with them, and runs the
one-blue search on the marked blues.  An instance whose sets all hold one
blue goes through the same tree: it has no multi-blue set to choose, so the
tree marks its blues in order and its one leaf runs the one-blue search on
all of them.

Searches are deterministic: the tree tries sets in ascending id order before
marking, the one-blue search grows states blue by blue in id order and keeps
the first state with the fewest reds per blue mask, and the partition keeps
the largest block of least total.  Every solver here hands its YES family,
kernel-forced sets included, to model.certify on the original instance.
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
    groups: list[list[tuple[int, int]]], budget_red: int, stats: SolveStats
) -> list[int] | None:
    """One set per blue covering at most budget_red reds in all, or None.

    groups[i] lists (set id, red mask) of the sets holding the i-th blue, in
    id order.  The family takes one set per blue, and _search's line bound
    has cut every leaf whose marked blues exceed the lines left, so no line
    budget is checked here.
    """
    # via[(blue mask, red mask)]: the state and the set that first reached it
    via: dict[tuple[int, int], tuple[tuple[int, int] | None, int]] = {}
    queue: list[tuple[int, int]] = []
    for i, group in enumerate(groups):
        for sid, reds in group:
            state = (1 << i, reds)
            if reds.bit_count() <= budget_red and state not in via:
                via[state] = (None, sid)
                queue.append(state)
    # cheapest[blue mask]: the first state with the fewest reds; the queue grows as it is read
    cheapest: dict[int, tuple[int, int]] = {}
    for state in queue:
        blues, reds = state
        if blues not in cheapest or reds.bit_count() < cheapest[blues][1].bit_count():
            cheapest[blues] = state
        for i, group in enumerate(groups):
            if blues >> i & 1:
                continue
            for sid, more in group:
                if more & reds:
                    nxt = (blues | 1 << i, reds | more)
                    if nxt not in via and nxt[1].bit_count() <= budget_red:
                        via[nxt] = (state, sid)
                        queue.append(nxt)
    stats.tuples += len(via)
    # cost[block]: see the module docstring; blocks[low]: those with lowest blue low, largest first
    cost = {mask: state[1].bit_count() for mask, state in cheapest.items()}
    blocks: dict[int, list[int]] = {}
    for mask in sorted(cost, reverse=True):
        blocks.setdefault(mask & -mask, []).append(mask)
    # g[m]: fewest reds over partitions of m into blocks, budget_red + 1 if none fits
    full = (1 << len(groups)) - 1
    g = [0] + [budget_red + 1] * full
    # lowest blues highest first, so every rest x, above low and outside the block, is final
    for low, listed in sorted(blocks.items(), reverse=True):
        above = full & -(low << 1)
        for block in listed:
            c = cost[block]
            free = x = above & ~block
            while True:
                if c + g[x] < g[block | x]:
                    g[block | x] = c + g[x]
                if not x:
                    break
                x = (x - 1) & free
    if g[full] > budget_red:
        return None
    family: list[int] = []
    m = full
    while m:
        # the largest block holding m's lowest blue whose total is g[m]
        block = next(b for b in blocks[m & -m] if b & m == b and cost[b] + g[m ^ b] == g[m])
        step = cheapest[block]
        m ^= block
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


def _search(reduced: Instance, stats: SolveStats | None) -> list[int] | None:
    """The sets of a solution, or None: the multi-blue tree of the module
    docstring, whose leaves run the one-blue search with the budgets left."""
    k_l, k_r = reduced.budget_lines, reduced.budget_red
    ix = reduced.index
    # by_blue[i]: (sid, blue mask, red mask, own bit) of every multi-blue set
    # holding blue bit i; own bits make up the excluded-set masks below.
    # single[i]: (sid, red mask) of every one-blue set holding it.  A set
    # with no blue is in neither list: no solution needs it.
    by_blue: list[list[tuple[int, int, int, int]]] = [[] for _ in ix.blues]
    single: list[list[tuple[int, int]]] = [[] for _ in ix.blues]
    widest = 1
    for bit, (sid, (bm, rm)) in enumerate(ix.sets.items()):
        if bm.bit_count() == 1:
            single[bm.bit_length() - 1].append((sid, rm))
            continue
        widest = max(widest, bm.bit_count())
        for i in model.bits(bm):
            by_blue[i].append((sid, bm, rm, 1 << bit))
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
            return _solve_one_blue_core(groups, k_r - red_mask.bit_count(), stats)
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
    return None if fam is None else model.certify(instance, result.forced | set(fam))


def solve_bounded_red(
    instance: Instance, d: int, *, stats: SolveStats | None = None
) -> Solution | None:
    """Decide when every set carries at most d red elements.

    A family within the line budget covers at most d * budget_lines reds, so
    solve_kl_kr's search stays FPT in budget_lines whatever the red budget.
    """
    _require_unweighted(instance)
    _require_finite_budget(instance)
    if d < 0:
        raise ValueError("d must be nonnegative")
    for sid, (_, rm) in instance.index.sets.items():
        if rm.bit_count() > d:
            raise DegreeExceeded(f"set {sid} has {rm.bit_count()} red elements, more than d={d}")
    return solve_kl_kr(instance, stats=stats)


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
        if split.blue_mask.bit_count() == 1:
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
        if split.red_mask.bit_count() == 1:
            raise PreconditionViolated(
                f"set {sid} has exactly one red element; zero or >= 2 required"
            )
    reduced = kernel._run_cycle(
        instance,
        (kernel.rule_delete_red_only, kernel.rule_delete_heavy_red, kernel.rule_take_blue_only),
    )
    bounded = replace(reduced.instance, budget_lines=comb(reduced.instance.budget_red, 2))
    sub = solve_kl_kr(bounded, stats=stats)
    return None if sub is None else model.certify(instance, reduced.forced | sub.chosen)

