"""Command-line front end: solve, kernelize, generate, verify, bench.

Exit codes are uniform: 0 for YES/feasible, 1 for NO/infeasible, 2 for any
error.  Output files are written atomically; all randomness is seeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import time
from pathlib import Path

from . import dp, fpt, generators, kernel, model, oracle
from .errors import RbscError

# name -> (call on (instance, force, stats), whether it runs fpt's search).
# Calls look their solver up at call time, so wrappers on module attributes see them.
SOLVERS = {
    "fpt": (lambda inst, force, stats: fpt.solve_kl_kr(inst, stats=stats), True),
    "brute": (lambda inst, force, stats: oracle.brute_force_solve(inst, force=force), False),
    "dp": (lambda inst, force, stats: dp.dp_solve(inst), False),
    "red-subsets": (
        lambda inst, force, stats: oracle.solve_rbsc_by_red_subsets(inst, force=force),
        False,
    ),
    "two-blue": (lambda inst, force, stats: fpt.solve_two_blue_special(inst, stats=stats), True),
    "rbsc-two-red": (lambda inst, force, stats: fpt.solve_rbsc_kr_two_red(inst, stats=stats), True),
}
ALGOS = ("auto", *SOLVERS)

PROFILES = {
    "default": generators.RandomProfile(),
    "one-blue": generators.RandomProfile(structure="one-blue"),
    "two-blue": generators.RandomProfile(structure="two-blue"),
    "max-one-red": generators.RandomProfile(
        structure="max-one-red", mode=model.ABSTRACT, linear=False
    ),
    "two-red": generators.RandomProfile(structure="two-red", unbounded_lines=True),
    "rbsc": generators.RandomProfile(unbounded_lines=True),
    "abstract": generators.RandomProfile(mode=model.ABSTRACT),
}


def _write_atomic(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    try:
        os.replace(tmp, path)
    except OSError:
        tmp.unlink()
        raise


def _load_instance(path: str) -> model.Instance:
    return model.parse_instance(Path(path).read_text())


def _pick_auto(inst: model.Instance, force: bool) -> str:
    if inst.is_weighted():
        return "brute"
    red_counts = [split.red_mask.bit_count() for split in inst.index.sets.values()]
    if inst.budget_lines is None:
        if 1 not in red_counts and model.is_linear_system(inst):
            return "rbsc-two-red"
        if inst.num_red <= oracle.SUBSET_GUARD or force:
            return "red-subsets"
        return "brute"
    if max(red_counts, default=0) <= 1 and dp.fits(inst):
        return "dp"
    if not model.is_linear_system(inst):
        return "brute"
    return "fpt"


def _run_algo(name: str, inst: model.Instance, force: bool):
    """(solution, algorithm used, SolveStats or None if it ran no search, milliseconds)."""
    start = time.perf_counter()
    if name == "auto":
        name = _pick_auto(inst, force)
    solve, searches = SOLVERS[name]
    stats = fpt.SolveStats()
    sol = solve(inst, force, stats)
    millis = (time.perf_counter() - start) * 1000.0
    return sol, name, stats if searches else None, millis


def _fmt_budget(b) -> str:
    return "inf" if b is None else str(b)


def cmd_solve(args) -> int:
    inst = _load_instance(args.file)
    sol, used, stats, millis = _run_algo(args.algo, inst, args.force)
    out = Path(args.out or args.file + ".solution")
    _write_atomic(out, model.serialize_solution(sol))
    print(f"decision {'yes' if sol else 'no'}")
    print(f"algo {used}")
    print(f"budget_lines {_fmt_budget(inst.budget_lines)}")
    print(f"budget_red {inst.budget_red}")
    if stats is not None:
        print(f"branches {stats.branches}")
        print(f"pruned {stats.pruned}")
        print(f"tuples {stats.tuples}")
    print(f"time_ms {millis:.1f}")
    print(f"solution_file {out}")
    return 0 if sol else 1


PIPELINES = {
    "kl-kr": kernel.kernelize_kl_kr,
    "ell": kernel.kernelize_ell,
    "kl-r": kernel.kernelize_kl_r,
}


def cmd_kernelize(args) -> int:
    inst = _load_instance(args.file)
    result = PIPELINES[args.param](inst)
    trace_path = Path(args.trace or args.file + ".trace")
    _write_atomic(trace_path, model.format_trace(result.trace))
    print(
        f"before blue {inst.num_blue} red {inst.num_red} sets {inst.num_sets} "
        f"budgets {_fmt_budget(inst.budget_lines)}/{inst.budget_red}"
    )
    if result.is_no:
        print(f"decision no ({result.no_reason})")
        print(f"trace_file {trace_path}")
        return 1
    red = result.instance
    print(
        f"after blue {red.num_blue} red {red.num_red} sets {red.num_sets} "
        f"budgets {_fmt_budget(red.budget_lines)}/{red.budget_red} "
        f"forced {len(result.forced)}"
    )
    out = Path(args.out or args.file + ".kernel")
    _write_atomic(out, model.serialize_instance(red))
    print(f"kernel_file {out}")
    print(f"trace_file {trace_path}")
    return 0


def cmd_generate(args) -> int:
    if args.kind in ("setcover", "setcover-uniqred"):
        if not args.input:
            print("error: --input <setcover file> required", file=sys.stderr)
            return 2
        sc = generators.parse_setcover(Path(args.input).read_text())
        make = (
            generators.gen_setcover_lines
            if args.kind == "setcover"
            else generators.gen_setcover_uniqred_lines
        )
        inst = make(sc)
        default = Path(args.input).with_suffix(".rbsc")
    elif args.kind in ("mcc-lines", "mcc-sets"):
        if not args.graph:
            print("error: --graph <mcgraph file> required", file=sys.stderr)
            return 2
        g = generators.parse_mcgraph(Path(args.graph).read_text())
        if args.kind == "mcc-lines":
            d = g.regular_degree()
            if d is None:
                raise generators.NotRegular("graph is not regular")
            inst = generators.gen_mcc_lines(g, d)
        else:
            inst = generators.gen_mcc_setsystem(g)
        default = Path(args.graph).with_suffix(".rbsc")
    else:  # random
        profile = PROFILES[args.profile]
        inst = generators.gen_random(args.seed, profile)
        default = Path(f"random-{args.profile}-{args.seed}.rbsc")
    if args.kind != "mcc-lines":  # gen_mcc_lines ends in validate and raises on a violation
        report = model.validate(inst)
        if not report.ok:
            print("error GeneratorOutputInvalid: " + "; ".join(report.violations), file=sys.stderr)
            return 2
    out = Path(args.out or default)
    _write_atomic(out, model.serialize_instance(inst))
    print(
        f"generated blue {inst.num_blue} red {inst.num_red} sets {inst.num_sets} "
        f"budgets {_fmt_budget(inst.budget_lines)}/{inst.budget_red}"
    )
    print(f"instance_file {out}")
    return 0


def cmd_verify(args) -> int:
    inst = _load_instance(args.file)
    claim = model.parse_solution(Path(args.solution).read_text())
    if not claim.decision:
        print("solution file claims no; nothing to verify")
        return 1
    sol = model.verify(inst, claim.chosen)
    print(f"sets {len(sol.chosen)}")
    print(f"blue {sol.blue_covered} of {inst.num_blue}")
    print(f"red {sol.red_covered} budget {inst.budget_red}")
    if sol.feasible:
        print("feasible yes")
        return 0
    print("feasible no (" + "; ".join(sol.shortfalls) + ")")
    return 1


def _bench_one(path: Path, algo: str, force: bool) -> dict:
    row = {"instance": path.name, "algo": algo, "decision": "", "millis": "", "branches": "", "tuples": ""}
    try:
        inst = model.parse_instance(path.read_text())
        sol, _, stats, millis = _run_algo(algo, inst, force)
        row["millis"] = f"{millis:.2f}"
        row["decision"] = "yes" if sol else "no"
        if stats is not None:
            row["branches"] = str(stats.branches)
            row["tuples"] = str(stats.tuples)
    except (RbscError, UnicodeDecodeError, OSError) as exc:
        row["decision"] = f"error:{type(exc).__name__}"
    return row


def cmd_bench(args) -> int:
    corpus = sorted(Path(args.corpus).glob("*.rbsc"))
    if not corpus:
        print(f"error: no *.rbsc files in {args.corpus}", file=sys.stderr)
        return 2
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        print("error: no algorithms given", file=sys.stderr)
        return 2
    for a in algos:
        if a not in ALGOS:
            print(f"error: unknown algorithm {a!r}", file=sys.stderr)
            return 2
    rows = [_bench_one(path, algo, args.force) for path in corpus for algo in algos]
    rows.sort(key=lambda r: (r["instance"], r["algo"]))
    fields = ["instance", "algo", "decision", "millis", "branches", "tuples"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    _write_atomic(Path(args.csv), buf.getvalue())
    widths = {f: max(len(f), *(len(r[f]) for r in rows)) for f in fields}
    print("  ".join(f.ljust(widths[f]) for f in fields))
    for r in rows:
        print("  ".join(r[f].ljust(widths[f]) for f in fields))
    disagreements = []
    by_instance: dict[str, set[str]] = {}
    for r in rows:
        if not r["decision"].startswith("error"):
            by_instance.setdefault(r["instance"], set()).add(r["decision"])
    for name, decisions in sorted(by_instance.items()):
        if len(decisions) > 1:
            disagreements.append(name)
    errors = sum(1 for r in rows if r["decision"].startswith("error"))
    print(f"csv_file {args.csv}")
    print(f"instances {len(corpus)} runs {len(rows)} errors {errors}")
    if disagreements:
        print("DISAGREEMENT on: " + ", ".join(disagreements))
        return 1
    print("disagreements 0")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rbsc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide an instance and write a solution file")
    p.add_argument("file")
    p.add_argument("--algo", choices=ALGOS, default="auto")
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true", help="override exponential-size guards")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kernelize", help="reduce an instance, writing kernel and trace")
    p.add_argument("file")
    p.add_argument("--param", choices=sorted(PIPELINES), required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("generate", help="write an instance produced by a generator")
    p.add_argument("kind", choices=["setcover", "setcover-uniqred", "mcc-lines", "mcc-sets", "random"])
    p.add_argument("--input", default=None, help="set cover source file")
    p.add_argument("--graph", default=None, help="multicolored graph source file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=sorted(PROFILES), default="default")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("file")
    p.add_argument("solution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run algorithms across a corpus directory")
    p.add_argument("corpus")
    p.add_argument("--algos", default="auto,brute")
    p.add_argument("--csv", default="bench.csv")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # the 0/1/2 exit contract holds for every input
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
