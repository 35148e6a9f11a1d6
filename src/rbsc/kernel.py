"""Answer-preserving reduction rules and the kernelization pipelines.

Each rule returns a RuleOutcome with the (possibly) transformed instance plus
trace entries; pipelines cycle the rules in a fixed order until nothing
changes, so traces are reproducible.  Rules that commit a set to the solution
record it in `forced`, and the corresponding red weight / line budget is
deducted from the reduced instance's budgets.  Whenever a rule deletes
elements, empty and duplicate sets are cleaned up immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import model
from .errors import BoundedBudget, NotLinearSystem
from .model import Instance, TraceEntry


@dataclass
class RuleOutcome:
    changed: bool
    instance: Instance
    entries: list[TraceEntry] = field(default_factory=list)
    forced: frozenset[int] = frozenset()
    no_reason: str | None = None


@dataclass
class KernelResult:
    """A reduced instance plus its trace, or a NO certificate."""

    instance: Instance | None
    trace: list[TraceEntry]
    forced: frozenset[int]
    no_reason: str | None = None

    @property
    def is_no(self) -> bool:
        return self.instance is None


def _unchanged(instance: Instance) -> RuleOutcome:
    return RuleOutcome(False, instance)


def rule_delete_red_only(instance: Instance) -> RuleOutcome:
    """Remove every set that contains no blue element."""
    drop = [sid for sid, split in instance.index.sets.items() if not split.blue]
    if not drop:
        return _unchanged(instance)
    entry = TraceEntry("delete_red_only", removed_sets=tuple(drop))
    return RuleOutcome(True, model.remove_sets(instance, drop), [entry])


def rule_delete_heavy_red(instance: Instance) -> RuleOutcome:
    """Remove every set whose red weight alone exceeds the red budget."""
    k_r = instance.budget_red
    drop = [sid for sid, split in instance.index.sets.items() if split.red_weight > k_r]
    if not drop:
        return _unchanged(instance)
    entry = TraceEntry("delete_heavy_red", removed_sets=tuple(drop))
    return RuleOutcome(True, model.remove_sets(instance, drop), [entry])


def rule_force_big_blue(instance: Instance) -> RuleOutcome:
    """Commit a set with more blue elements than could otherwise be covered.

    A set with >= budget_lines + 1 blue elements must be in any solution:
    in a linear set system every other set covers at most one of its blues.
    The smallest qualifying set id is taken; its elements are deleted from
    the universe and from every other set, and both budgets are reduced.
    Exhausting a budget yields an immediate NO certificate.
    """
    if instance.budget_lines is None:
        raise BoundedBudget("rule needs a finite line budget")
    if not model.is_linear_system(instance):
        raise NotLinearSystem("two sets share two or more elements")
    k_l = instance.budget_lines
    splits = instance.index.sets
    target = next((sid for sid, split in splits.items() if len(split.blue) >= k_l + 1), None)
    if target is None:
        return _unchanged(instance)
    red_w = splits[target].red_weight
    new_kl = k_l - 1
    new_kr = instance.budget_red - red_w
    if new_kl < 0 or new_kr < 0:
        reason = f"budget exhausted while forcing set {target}"
        return RuleOutcome(
            True, instance, [TraceEntry("no_certificate", note=reason)], no_reason=reason
        )
    entry = TraceEntry(
        "force_big_blue",
        forced_sets=(target,),
        removed_elements=tuple(sorted(instance.members(target))),
        delta_lines=-1,
        delta_red=-red_w,
    )
    reduced = model.remove_sets(instance, (target,))
    reduced = model.delete_elements(reduced, instance.members(target))
    reduced = model.with_budgets(reduced, budget_lines=new_kl, budget_red=new_kr)
    reduced, clean_entries = model.cleanup(reduced)
    return RuleOutcome(True, reduced, [entry] + clean_entries, frozenset((target,)))


def rule_take_blue_only(instance: Instance) -> RuleOutcome:
    """With no bound on chosen sets, red-free sets are always taken."""
    if instance.budget_lines is not None:
        raise BoundedBudget("rule is only safe with an unbounded line budget")
    take = [sid for sid, split in instance.index.sets.items() if not split.red]
    if not take:
        return _unchanged(instance)
    covered = set()
    for sid in take:
        covered |= instance.members(sid)
    entry = TraceEntry(
        "take_blue_only", forced_sets=tuple(take), removed_elements=tuple(sorted(covered))
    )
    reduced = model.remove_sets(instance, take)
    reduced = model.delete_elements(reduced, covered)
    reduced, clean_entries = model.cleanup(reduced)
    return RuleOutcome(True, reduced, [entry] + clean_entries, frozenset(take))


def rule_cap_budget_lines(instance: Instance) -> RuleOutcome:
    """Cap the line budget at the family size: a solution never uses more sets than exist."""
    if instance.budget_lines is None:
        raise BoundedBudget("rule needs a finite line budget")
    ell = instance.num_sets
    if instance.budget_lines <= ell:
        return _unchanged(instance)
    entry = TraceEntry(
        "cap_budget_lines",
        delta_lines=ell - instance.budget_lines,
        note="budget cannot exceed family size",
    )
    return RuleOutcome(True, model.with_budgets(instance, budget_lines=ell), [entry])


def _run_cycle(instance: Instance, rules, trace, forced) -> tuple[Instance, str | None]:
    """Apply the rules in order, pass after pass, until a pass changes nothing.

    Every rule's trace entries go to trace and its committed sets to forced.
    Returns the reduced instance and None, or the instance at hand and the
    reason of the first NO certificate.
    """
    changed = True
    while changed:
        changed = False
        for rule in rules:
            out = rule(instance)
            trace.extend(out.entries)
            forced |= out.forced
            if out.no_reason is not None:
                return out.instance, out.no_reason
            if out.changed:
                changed = True
                instance = out.instance
    return instance, None


def _pipeline(instance: Instance, rules) -> KernelResult:
    """Run rules to a fixed point on a finite-budget linear system, then the final checks.

    Yields NO when a rule certifies it, a blue element lies in no set, or
    more than budget_lines^2 blue elements survive.
    """
    if instance.budget_lines is None:
        raise BoundedBudget("pipeline needs a finite line budget")
    if not model.is_linear_system(instance):
        raise NotLinearSystem("two sets share two or more elements")
    trace: list[TraceEntry] = []
    forced: set[int] = set()
    inst, no = _run_cycle(instance, rules, trace, forced)
    if no is None:
        no = _post_checks(inst)
        if no is not None:
            trace.append(TraceEntry("no_certificate", note=no))
    if no is not None:
        return KernelResult(None, trace, frozenset(forced), no)
    return KernelResult(inst, trace, frozenset(forced))


def _post_checks(instance: Instance) -> str | None:
    covered = set()
    for _, mem in instance.family:
        covered |= mem
    for eid in instance.index.blues:
        if eid not in covered:
            return f"blue element {eid} lies in no set"
    k_l = instance.budget_lines
    if instance.num_blue > k_l * k_l:
        return f"{instance.num_blue} blue elements remain, more than budget_lines^2 = {k_l * k_l}"
    return None


def kernelize_kl_kr(instance: Instance) -> KernelResult:
    """Exhaust the three deletion rules under finite budgets.

    Yields NO when a blue element becomes uncoverable, a budget goes
    negative, or more than budget_lines^2 blue elements survive.
    """
    return _pipeline(instance, (rule_delete_red_only, rule_delete_heavy_red, rule_force_big_blue))


def kernelize_ell(instance: Instance) -> KernelResult:
    """Shrink to family-size-polynomial bounds, moving red multiplicity into weights.

    The line budget is capped at the family size (a solution can never use
    more sets than exist) on every pass of the deletion rules, which run to
    a fixed point.  Red elements on two or more sets keep their weight; the
    red elements exclusive to a single set are merged into one carrying
    their total weight.  Red elements on no set are dropped.  The result has
    at most ell^2 blue and ell^2 + ell red elements for the surviving family
    size ell.

    The kernel is a size certificate: its merged reds carry weights, and the
    fast solvers (solve_kl_kr, dp_solve and the special cases) take unit
    weights only, so `rbsc solve --algo auto` sends a weighted kernel to
    brute force, the one solver that sums weights.
    """
    base = _pipeline(
        instance,
        (rule_cap_budget_lines, rule_delete_red_only, rule_delete_heavy_red, rule_force_big_blue),
    )
    if base.is_no:
        return base
    inst, trace = base.instance, base.trace
    occurrences: dict[int, int] = {}
    for _, mem in inst.family:
        for eid in mem:
            occurrences[eid] = occurrences.get(eid, 0) + 1
    # Dropping isolated reds, and merging one set's exclusive reds, leave the
    # members of every other set as they were: one split serves the pass.
    splits = inst.index.sets
    isolated = [eid for eid in inst.index.reds if eid not in occurrences]
    if isolated:
        trace.append(
            TraceEntry(
                "drop_isolated_reds",
                removed_elements=tuple(isolated),
                note="red elements on no set are never covered",
            )
        )
        inst = model.delete_elements(inst, isolated)
    for sid, split in splits.items():
        exclusive = sorted(e for e in split.red if occurrences[e] == 1)
        if not exclusive:
            continue
        keep = exclusive[0]
        total = sum(inst.red_weight(e) for e in exclusive)
        drop = exclusive[1:]
        reweights = ((keep, total),) if total != inst.red_weight(keep) else ()
        if not drop and not reweights:
            continue
        trace.append(
            TraceEntry(
                "merge_exclusive_red",
                removed_elements=tuple(drop),
                reweights=reweights,
                note=f"set {sid}",
            )
        )
        if drop:
            inst = model.delete_elements(inst, drop)
        if reweights:
            inst = model.set_weight(inst, keep, total)
    return KernelResult(inst, trace, base.forced)


def kernelize_kl_r(instance: Instance) -> KernelResult:
    """The finite-budget kernel that additionally prunes duplicate singletons.

    After the deletion rules, sets consisting of exactly one (blue) element
    are redundant beyond one per blue point; all but the smallest-id one are
    dropped.
    """
    base = kernelize_kl_kr(instance)
    if base.is_no:
        return base
    inst = base.instance
    trace = list(base.trace)
    keeper: dict[int, int] = {}
    drop = []
    for sid, split in inst.index.sets.items():
        if len(inst.members(sid)) == 1 and split.blue:
            (eid,) = split.blue
            if eid in keeper:
                drop.append(sid)
            else:
                keeper[eid] = sid
    if drop:
        trace.append(
            TraceEntry(
                "dedupe_singletons",
                removed_sets=tuple(drop),
                note="one singleton set per blue element suffices",
            )
        )
        inst = model.remove_sets(inst, drop)
    return KernelResult(inst, trace, base.forced)
