"""The rbsc benchmark: `rbsc solve --algo auto` over a seeded corpus.

Run from the repository root:

    python3 bench/run.py --workload geo-lines --seed 1 --seconds 5 --trace 0

One process, one client, closed loop: each instance is decided by an
in-process `rbsc.cli.main(["solve", ...])` call with stdout captured, and
the next call starts when the previous one returns.  Every call is checked
against expected.json, and every YES solution file is re-verified with
`model.verify`.  The last line of output is one JSON object with the
metrics; the exit code is 1 when any answer was wrong, 2 when the benchmark
could not run.

--trace 0 reports the end-to-end metrics.  The corpus is built at least
SETUPS times and for at least SETUP_MIN_S.
Every instance is then solved once, and the instances that took at most
REPEAT_CAP_S are solved again, round after round, each round on a fresh
relabelling, for --seconds (at least MIN_REPEATS and at most MAX_REPEATS more
rounds).  An instance's latency is the median of its calls.  Times are scaled to a reference machine speed
(speed.py); the unscaled figures are printed too.

--trace 1 solves every instance once without and once with the tracing
wrappers of tracing.py, and reports the per-layer metrics of the traced
pass, unscaled.  Spans are written to .bench_run/spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from speed import Speed

DEADLINE_S = 60.0  # per call; four times the slowest known instance (15 s)
SETUPS = 3  # corpus builds per run, at least; setup_s is their median
SETUP_MIN_S = 1.0  # ...and builds go on until they took this long in all
REPEAT_CAP_S = 0.1  # instances slower than this are timed once
MIN_REPEATS = 2
MAX_REPEATS = 20


class Overrun(BaseException):
    """The per-call deadline passed.  Not an Exception, so no handler in the
    program under test can swallow it."""


def _raise_overrun(signum, frame):
    raise Overrun


def import_program(root: Path):
    """Import rbsc from the checkout's src/, and nothing else."""
    src = root / "src"
    if not (src / "rbsc" / "__init__.py").is_file():
        raise ImportError(f"no rbsc package under {src}")
    sys.path.insert(0, str(src))
    import rbsc

    if Path(rbsc.__file__).resolve().parent != (src / "rbsc").resolve():
        raise ImportError(f"imported rbsc from {rbsc.__file__}, not from {src}")


class Runner:
    """Solves cases through the CLI, times each call and checks its answer.

    A time is kept as (start, end, net): perf_counter readings around the
    call and the seconds `clock` counted in between.
    """

    def __init__(self, clock=time.perf_counter):
        from rbsc import cli, model

        self.cli = cli
        self.clock = clock
        # The checks use the functions as they were before any wrapper went in.
        self.parse_solution = model.parse_solution
        self.verify = model.verify
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[str, int] = {}

    def solve(self, case) -> tuple[tuple[float, float, float], bool]:
        """Time one call; returns its time and whether it succeeded."""
        argv = ["solve", str(case.path), "--algo", "auto", "--out", str(case.out)]
        sink = io.StringIO()
        code, failure = None, None
        start, begin = time.perf_counter(), self.clock()
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    code = self.cli.main(argv)
            finally:
                net = self.clock() - begin
                end = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Overrun:
            failure = "deadline"
        except SystemExit as exc:
            failure = f"exit {exc.code}"
        except Exception as exc:
            failure = f"error {type(exc).__name__}"
        if failure is None:
            failure = self.check(case, code)
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.reasons[failure] = self.reasons.get(failure, 0) + 1
        return (start, end, net), failure is None

    def check(self, case, code) -> str | None:
        if code not in (0, 1):
            return f"exit {code}"
        claim = self.parse_solution(case.out.read_text())
        if claim.decision != (code == 0) or claim.decision != case.expected_yes:
            self.wrong += 1
            return "wrong decision"
        if claim.decision and not self.verify(case.instance, claim.chosen).feasible:
            self.wrong += 1
            return "yes fails verify"
        return None


def build(workload: str, seed: int, workdir: Path, times: int, min_s=0.0, clock=time.perf_counter):
    """Build the corpus at least `times` times and for at least `min_s`
    seconds; returns the cases, each build's time as (start, end, net) and
    the corpus digest."""
    import corpus

    spans, digests = [], set()
    first = time.perf_counter()
    while len(spans) < times or time.perf_counter() - first < min_s:
        start = time.perf_counter()
        cases, net, digest = corpus.build_corpus(workload, seed, workdir, clock)
        spans.append((start, time.perf_counter(), net))
        digests.add(digest)
    if len(digests) != 1:
        raise corpus.CorpusError("the same seed built different corpus bytes")
    # The corpus held in memory is the benchmark's, not the program's: keep
    # the garbage collector from walking it during timed calls.
    gc.collect()
    gc.freeze()
    return cases, spans, digests.pop()


def timed_run(args, workdir: Path) -> dict:
    speed = Speed()
    with speed.sampling():
        cases, setups, digest = build(args.workload, args.seed, workdir, SETUPS, SETUP_MIN_S, speed.clock)
        runner = Runner(speed.clock)
        calls = {case.position: [] for case in cases}
        decided = 0
        for case in cases:
            timing, ok = runner.solve(case)
            calls[case.position].append(timing)
            decided += ok
        cheap = [c for c in cases if calls[c.position][0][2] <= REPEAT_CAP_S]
        rounds, start = 0, time.perf_counter()
        while cheap and rounds < MAX_REPEATS and (
            rounds < MIN_REPEATS or time.perf_counter() - start < args.seconds
        ):
            rounds += 1
            for case in cheap:
                case.write_variant(rounds)
                calls[case.position].append(runner.solve(case)[0])

    def seconds(timings, scaled=True):
        return statistics.median(net * speed.scale(s, e) if scaled else net for s, e, net in timings)

    latency = sorted(seconds(t) for t in calls.values())
    unscaled = sorted(seconds(t, False) for t in calls.values())
    slowest = max(cases, key=lambda c: seconds(calls[c.position]))
    print(f"corpus {len(cases)} instances, sha256 {digest}")
    print(f"calls {runner.attempted}: every instance once, then {rounds} rounds over {len(cheap)} instances")
    print(f"solve_ms.p90 is over {len(latency)} per-instance medians, {len(latency) // 10} beyond it")
    print(f"slowest instance: pool entry {slowest.entry}, {seconds(calls[slowest.position]) * 1000} ms")
    probe_ms = 1000 * sum(speed.durations) / len(speed.durations)
    print(f"{len(setups)} corpus builds; {len(speed.durations)} speed probes, {probe_ms} ms mean; unscaled:")
    for name, value in latency_metrics(unscaled, decided, seconds(setups, False)).items():
        print(f"  {name} {value[0]} {value[1]}")
    metrics = latency_metrics(latency, decided, seconds(setups))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return result(runner, metrics)


def quantile(ordered: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta(q(n+1), (1-q)(n+1))
    weighted mean of the order statistics.  Where the latencies have a gap
    at the quantile, interpolating between the two neighbouring values jumps
    by the gap when one instance crosses it; this estimate moves smoothly."""
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    mode = (a - 1) / (a + b - 2)
    peak = (a - 1) * math.log(mode) + (b - 1) * math.log(1 - mode)
    steps = 64
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log(1 - x) - peak) for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def latency_metrics(latency: list[float], decided: int, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "solve_ms.p50": (quantile(latency, 0.5) * 1000, "ms"),
        "solve_ms.p90": (quantile(latency, 0.9) * 1000, "ms"),
        "decided_per_s": (decided / sum(latency), "1/s"),
    }


def traced_run(args, workdir: Path) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tracer.instance = "setup"
    with tracer.installed():
        cases, _, digest = build(args.workload, args.seed, workdir, 1)
    runner = Runner()
    traced = untraced = 0.0
    for case in cases:
        # Alternate which call goes first, so warm caches favour neither.
        for with_trace in (case.position % 2 == 0, case.position % 2 == 1):
            tracer.instance = case.position
            with tracer.installed() if with_trace else nullcontext():
                net = runner.solve(case)[0][2]
            if with_trace:
                traced += net
            else:
                untraced += net
    spans = workdir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    print(f"corpus {len(cases)} instances, sha256 {digest}")
    print(f"spans {len(tracer.spans)} written to {spans}")
    return result(runner, tracing.layer_metrics(tracer, traced * 1000, untraced * 1000))


def result(runner: Runner, metrics: dict) -> dict:
    print(f"fail_rate {runner.failed / runner.attempted} ratio ({runner.failed} of {runner.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for reason, count in sorted(runner.reasons.items()):
        print(f"failed {count}: {reason}")
    return {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        import_program(root)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import corpus

    if args.workload not in corpus.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(corpus.WORKLOADS)}")
    signal.signal(signal.SIGALRM, _raise_overrun)
    workdir = root / ".bench_run" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        out = traced_run(args, workdir) if args.trace else timed_run(args, workdir)
    except corpus.CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
