"""Spans and work counts around the package's public functions.

A wrapper replaces a function on the module attribute that its callers look
up at call time (`kernel._run_cycle` resolves the `rule_*` names on every
cycle, `cli` calls `model.parse_instance`, `fpt.solve_kl_kr` and so on through
their modules), so nothing under src/ changes and an untraced run installs
nothing.  A span is (name, start, end, parent, instance); a name's self time
is its spans' duration minus the time of their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from rbsc import cli, dp, fpt, generators, kernel, model, oracle

KERNEL_RULES = ("rule_delete_red_only", "rule_delete_heavy_red", "rule_force_big_blue", "rule_take_blue_only")


def _count_kernel(counts: Counter, args, kwargs, result):
    counts["kernel.kernelize_calls"] += 1
    counts["kernel.rules_fired"] += len(result.trace)
    if result.is_no:
        counts["kernel.decided_no"] += 1
    else:
        counts["kernel.sets_in"] += args[0].num_sets
        counts["kernel.sets_out"] += result.instance.num_sets


def _count_branches(counts: Counter, args, kwargs, result):
    stats = kwargs.get("stats")
    if stats is not None:
        counts["fpt.branches"] += stats.branches


def _count_call(key: str):
    def count(counts: Counter, args, kwargs, result):
        counts[key] += 1

    return count


# (module, attribute, span name or None for a count-only wrapper, counter)
TARGETS = [
    (cli, "main", "cli.main", None),
    (model, "parse_instance", "model.parse_instance", None),
    (model, "verify", "model.verify", None),
    (model, "is_linear_system", "model.is_linear_system", _count_call("model.is_linear_system.calls")),
    (model, "validate", "model.validate", None),
    (model, "serialize_instance", "model.serialize_instance", None),
    (generators, "gen_random", "generators.gen_random", None),
    (generators, "maximal_collinear_family", "geometry.maximal_collinear_family", None),
    (kernel, "kernelize_kl_kr", "kernel.kernelize_kl_kr", _count_kernel),
    (fpt, "solve_kl_kr", "fpt.solve_kl_kr", _count_branches),
    (dp, "dp_solve", "dp.dp_solve", None),
    (oracle, "brute_force_solve", "oracle.brute_force_solve", _count_call("oracle.calls")),
    (oracle, "solve_rbsc_by_red_subsets", "oracle.solve_rbsc_by_red_subsets", _count_call("oracle.calls")),
] + [(kernel, rule, None, _count_call("kernel.rule_calls")) for rule in KERNEL_RULES]


class Tracer:
    """Keeps spans and counts in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, instance]
        self.counts: Counter = Counter()
        self.instance = None
        self._open: list[int] = []

    def _wrapper(self, fn, name, counter):
        def traced(*args, **kwargs):
            index = -1
            if name is not None:
                index = len(self.spans)
                parent = self._open[-1] if self._open else -1
                self.spans.append([name, time.perf_counter_ns(), 0, parent, self.instance])
                self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                if index >= 0:
                    self.spans[index][2] = time.perf_counter_ns()
                    self._open.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, counter in TARGETS:
                fn = getattr(module, attr, None)
                if fn is None:
                    print(f"trace: {module.__name__}.{attr} not found, not traced", file=sys.stderr)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(fn, name, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_ms(self) -> dict[str, float]:
        """Self time per span name, in milliseconds."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start - child[i]) / 1e6
        return totals

    def root_ms(self, name: str) -> float:
        return sum(e - s for n, s, e, p, _ in self.spans if n == name and p < 0) / 1e6

    def write(self, path: Path):
        with path.open("w") as out:
            for name, start, end, parent, instance in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "instance": instance}
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, traced_ms: float, untraced_ms: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass over the corpus."""
    own = tracer.self_ms()
    c = tracer.counts
    kernelized = c["kernel.kernelize_calls"]
    return {
        "cli.self_ms": (own["cli.main"], "ms"),
        "model.parse_instance.ms": (own["model.parse_instance"], "ms"),
        "model.verify.ms": (own["model.verify"], "ms"),
        "model.is_linear_system.calls": (c["model.is_linear_system.calls"], "count"),
        "model.is_linear_system.ms": (own["model.is_linear_system"], "ms"),
        "model.validate.ms": (own["model.validate"], "ms"),
        "generators.gen_random.ms": (own["generators.gen_random"], "ms"),
        "geometry.maximal_collinear_family.ms": (own["geometry.maximal_collinear_family"], "ms"),
        "kernel.kernelize_kl_kr.self_ms": (own["kernel.kernelize_kl_kr"], "ms"),
        "kernel.rule_calls": (c["kernel.rule_calls"], "count"),
        "kernel.rules_fired": (c["kernel.rules_fired"], "count"),
        "kernel.no_share": (c["kernel.decided_no"] / kernelized if kernelized else 0.0, "ratio"),
        "kernel.sets_kept": (c["kernel.sets_out"] / c["kernel.sets_in"] if c["kernel.sets_in"] else 0.0, "ratio"),
        "fpt.solve_kl_kr.self_ms": (own["fpt.solve_kl_kr"], "ms"),
        "fpt.branches": (c["fpt.branches"], "count"),
        "dp.dp_solve.self_ms": (own["dp.dp_solve"], "ms"),
        "oracle.calls": (c["oracle.calls"], "count"),
        "trace.overhead": (traced_ms / untraced_ms, "ratio"),
        "trace.accounted": (tracer.root_ms("cli.main") / traced_ms, "ratio"),
    }
