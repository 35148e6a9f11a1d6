"""Answer-preserving reduction rules and the kernelization pipelines.

Each rule looks at an instance and returns the TraceEntry of its edit, or
None when it has nothing to do; model.apply_trace_entry is the one place
that carries an edit out.  Pipelines cycle the rules in a fixed order until
every rule in a row returns None, so traces are reproducible and replay_trace
rebuilds the kernel.  Rules that commit a set to the solution list it in
forced_sets and deduct its red weight / one line from the budgets.
Whenever an edit deletes elements, empty and duplicate sets are cleaned up
at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import cycle

from . import model
from .errors import BoundedBudget, NotLinearSystem
from .model import Instance, TraceEntry


@dataclass
class KernelResult:
    """A reduced instance plus its trace, or a NO certificate; the rest is read off the trace."""

    instance: Instance | None
    trace: list[TraceEntry]

    @property
    def is_no(self) -> bool:
        return self.instance is None

    @property
    def forced(self) -> frozenset[int]:
        return frozenset(sid for entry in self.trace for sid in entry.forced_sets)

    @property
    def no_reason(self) -> str | None:
        return self.trace[-1].note if self.is_no else None


def rule_delete_red_only(instance: Instance) -> TraceEntry | None:
    """Remove every set that contains no blue element."""
    drop = [sid for sid, split in instance.index.sets.items() if not split.blue_mask]
    return TraceEntry("delete_red_only", removed_sets=tuple(drop)) if drop else None


def rule_delete_heavy_red(instance: Instance) -> TraceEntry | None:
    """Remove every set whose red weight alone exceeds the red budget."""
    ix = instance.index
    k_r = instance.budget_red
    drop = [sid for sid, split in ix.sets.items() if ix.red_weight(split.red_mask) > k_r]
    return TraceEntry("delete_heavy_red", removed_sets=tuple(drop)) if drop else None


def rule_force_big_blue(instance: Instance) -> TraceEntry | None:
    """Commit a set with more blue elements than could otherwise be covered.

    A set with >= budget_lines + 1 blue elements must be in any solution
    when every other set covers at most one of its blues, as each does in a
    linear set system: budget_lines other sets then miss one of them.  The
    smallest qualifying set id is taken; its elements are deleted from the
    universe and from every other set, and both budgets are reduced.
    Exhausting a budget yields a no_certificate entry instead.  Only that
    condition is checked, and only once a set qualifies: another set holding
    two of the target's blues raises NotLinearSystem.
    """
    if instance.budget_lines is None:
        raise BoundedBudget("rule needs a finite line budget")
    k_l = instance.budget_lines
    ix = instance.index
    target = next((sid for sid, (bm, _) in ix.sets.items() if bm.bit_count() > k_l), None)
    if target is None:
        return None
    blues = ix.sets[target].blue_mask
    others = (split.blue_mask for sid, split in ix.sets.items() if sid != target)
    if any((mask & blues).bit_count() >= 2 for mask in others):
        raise NotLinearSystem("two sets share two or more elements")
    red_w = ix.red_weight(ix.sets[target].red_mask)
    if k_l < 1 or instance.budget_red < red_w:
        return TraceEntry("no_certificate", note=f"budget exhausted while forcing set {target}")
    return TraceEntry(
        "force_big_blue",
        forced_sets=(target,),
        removed_elements=tuple(sorted(instance.members(target))),
        delta_lines=-1,
        delta_red=-red_w,
    )


def rule_take_blue_only(instance: Instance) -> TraceEntry | None:
    """With no bound on chosen sets, red-free sets are always taken."""
    if instance.budget_lines is not None:
        raise BoundedBudget("rule is only safe with an unbounded line budget")
    take = [sid for sid, split in instance.index.sets.items() if not split.red_mask]
    if not take:
        return None
    covered = set()
    for sid in take:
        covered |= instance.members(sid)
    return TraceEntry(
        "take_blue_only", forced_sets=tuple(take), removed_elements=tuple(sorted(covered))
    )


def rule_cap_budget_lines(instance: Instance) -> TraceEntry | None:
    """Cap the line budget at the family size: a solution never uses more sets than exist."""
    if instance.budget_lines is None:
        raise BoundedBudget("rule needs a finite line budget")
    ell = instance.num_sets
    if instance.budget_lines <= ell:
        return None
    return TraceEntry(
        "cap_budget_lines",
        delta_lines=ell - instance.budget_lines,
        note="budget cannot exceed family size",
    )


def _apply(instance: Instance, entry: TraceEntry, trace) -> Instance:
    """Log entry in trace and return the instance it edits."""
    trace.append(entry)
    return model.apply_trace_entry(instance, entry)[0]


def _run_cycle(instance: Instance, rules) -> KernelResult:
    """Apply the rules in order, round and round, until each in turn returns None.

    A rule must return an entry only when applying it changes the instance;
    otherwise this loop never ends.  Every entry goes to the trace; an entry
    that deletes elements is followed by the cleanup entry, if any.  The
    first no_certificate entry ends the trace and makes the result a NO.
    """
    trace: list[TraceEntry] = []
    idle = 0  # rules in a row that found nothing on this instance; all of them: a fixed point
    for rule in cycle(rules):
        if idle == len(rules):
            break
        entry = rule(instance)
        if entry is None:
            idle += 1
            continue
        if entry.rule == "no_certificate":
            trace.append(entry)
            return KernelResult(None, trace)
        instance = _apply(instance, entry, trace)
        if entry.removed_elements:
            clean = model.cleanup(instance)
            if clean is not None:
                instance = _apply(instance, clean, trace)
        idle = 0
    return KernelResult(instance, trace)


def _pipeline(instance: Instance, rules) -> KernelResult:
    """Run rules to a fixed point on a finite-budget linear system, then the final checks.

    Yields NO when a rule certifies it, a blue element lies in no set, or
    more than budget_lines^2 blue elements survive.
    """
    if instance.budget_lines is None:
        raise BoundedBudget("pipeline needs a finite line budget")
    if not model.is_linear_system(instance):
        raise NotLinearSystem("two sets share two or more elements")
    result = _run_cycle(instance, rules)
    no = None if result.is_no else _post_checks(result.instance)
    if no is None:
        return result
    result.trace.append(TraceEntry("no_certificate", note=no))
    return KernelResult(None, result.trace)


def _post_checks(instance: Instance) -> str | None:
    ix = instance.index
    uncovered = (1 << len(ix.blues)) - 1
    for split in ix.sets.values():
        uncovered &= ~split.blue_mask
    if uncovered:
        return f"blue element {ix.blues[(uncovered & -uncovered).bit_length() - 1]} lies in no set"
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
    brute force, the finite-budget solver that takes weights.
    """
    base = _pipeline(
        instance,
        (rule_cap_budget_lines, rule_delete_red_only, rule_delete_heavy_red, rule_force_big_blue),
    )
    if base.is_no:
        return base
    inst, trace = base.instance, base.trace
    # Dropping isolated reds, and merging one set's exclusive reds, leave the
    # members of every other set as they were: one index serves the pass.
    ix = inst.index
    seen = shared = 0
    for split in ix.sets.values():
        shared |= seen & split.red_mask
        seen |= split.red_mask
    isolated = [eid for i, eid in enumerate(ix.reds) if not seen >> i & 1]
    if isolated:
        entry = TraceEntry(
            "drop_isolated_reds",
            removed_elements=tuple(isolated),
            note="red elements on no set are never covered",
        )
        inst = _apply(inst, entry, trace)
    for sid, split in ix.sets.items():
        own = split.red_mask & ~shared
        if not own:
            continue
        exclusive = [eid for i, eid in enumerate(ix.reds) if own >> i & 1]
        keep = exclusive[0]
        total = ix.red_weight(own)
        drop = exclusive[1:]
        reweights = ((keep, total),) if total != ix.red_weight(own & -own) else ()
        if not drop and not reweights:
            continue
        entry = TraceEntry(
            "merge_exclusive_red",
            removed_elements=tuple(drop),
            reweights=reweights,
            note=f"set {sid}",
        )
        inst = _apply(inst, entry, trace)
    return KernelResult(inst, trace)


def kernelize_kl_r(instance: Instance) -> KernelResult:
    """The finite-budget kernel that additionally prunes duplicate singletons.

    After the deletion rules, sets consisting of exactly one (blue) element
    are redundant beyond one per blue point; all but the smallest-id one are
    dropped.  model.cleanup finds exactly these: the rules keep the input a
    linear system, so two equal sets hold at most one element, and the sets
    with no blue element, the empty ones among them, are already gone.
    """
    base = kernelize_kl_kr(instance)
    if base.is_no:
        return base
    inst, trace = base.instance, base.trace
    clean = model.cleanup(inst)
    if clean is not None:
        note = "one singleton set per blue element suffices"
        inst = _apply(inst, replace(clean, rule="dedupe_singletons", note=note), trace)
    return KernelResult(inst, trace)
