"""Answer-preserving reduction rules and the kernelization pipelines.

Each rule looks at an instance and returns the TraceEntry of its edit, or
None when it has nothing to do; model.apply_trace_entry is the one place
that carries an edit out.  Pipelines cycle the rules in a fixed order until
a whole pass returns None, so traces are reproducible and replay_trace
rebuilds the kernel.  Rules that commit a set to the solution list it in
forced_sets and deduct its red weight / one line from the budgets.
Whenever an edit deletes elements, empty and duplicate sets are cleaned up
at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import model
from .errors import BoundedBudget, NotLinearSystem
from .model import Instance, TraceEntry


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


def rule_delete_red_only(instance: Instance) -> TraceEntry | None:
    """Remove every set that contains no blue element."""
    drop = [sid for sid, split in instance.index.sets.items() if not split.blue]
    return TraceEntry("delete_red_only", removed_sets=tuple(drop)) if drop else None


def rule_delete_heavy_red(instance: Instance) -> TraceEntry | None:
    """Remove every set whose red weight alone exceeds the red budget."""
    k_r = instance.budget_red
    drop = [sid for sid, split in instance.index.sets.items() if split.red_weight > k_r]
    return TraceEntry("delete_heavy_red", removed_sets=tuple(drop)) if drop else None


def rule_force_big_blue(instance: Instance) -> TraceEntry | None:
    """Commit a set with more blue elements than could otherwise be covered.

    A set with >= budget_lines + 1 blue elements must be in any solution:
    in a linear set system every other set covers at most one of its blues.
    The smallest qualifying set id is taken; its elements are deleted from
    the universe and from every other set, and both budgets are reduced.
    Exhausting a budget yields a no_certificate entry instead.
    """
    if instance.budget_lines is None:
        raise BoundedBudget("rule needs a finite line budget")
    if not model.is_linear_system(instance):
        raise NotLinearSystem("two sets share two or more elements")
    k_l = instance.budget_lines
    splits = instance.index.sets
    target = next((sid for sid, split in splits.items() if len(split.blue) >= k_l + 1), None)
    if target is None:
        return None
    red_w = splits[target].red_weight
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
    take = [sid for sid, split in instance.index.sets.items() if not split.red]
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


def _run_cycle(instance: Instance, rules, trace, forced) -> tuple[Instance, str | None]:
    """Apply the rules in order, pass after pass, until a whole pass returns None.

    A rule must return an entry only when applying it changes the instance;
    otherwise this loop never ends.  Every entry goes to trace and its forced
    sets to forced; an entry that deletes elements is followed by the
    cleanup entry, if any.  Returns the reduced instance and None, or the
    instance at hand and the note of the first no_certificate entry.
    """
    changed = True
    while changed:
        changed = False
        for rule in rules:
            entry = rule(instance)
            if entry is None:
                continue
            if entry.rule == "no_certificate":
                trace.append(entry)
                return instance, entry.note
            instance = _apply(instance, entry, trace)
            forced.update(entry.forced_sets)
            if entry.removed_elements:
                clean = model.cleanup(instance)
                if clean is not None:
                    instance = _apply(instance, clean, trace)
            changed = True
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
        entry = TraceEntry(
            "drop_isolated_reds",
            removed_elements=tuple(isolated),
            note="red elements on no set are never covered",
        )
        inst = _apply(inst, entry, trace)
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
        entry = TraceEntry(
            "merge_exclusive_red",
            removed_elements=tuple(drop),
            reweights=reweights,
            note=f"set {sid}",
        )
        inst = _apply(inst, entry, trace)
    return KernelResult(inst, trace, base.forced)


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
    return KernelResult(inst, trace, base.forced)
