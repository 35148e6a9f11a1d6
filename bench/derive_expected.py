"""Write expected.json: each workload's pool and the expected answer per instance.

Run from the repository root:  python3 bench/derive_expected.py

An answer comes from oracle.brute_force_solve(force=True) when its
enumeration is small enough to finish, and otherwise from the solver that
`rbsc solve --algo auto` picks for the workload.  Where both run they must
agree; the script stops on a disagreement rather than record either answer.
Each entry records its source and a fingerprint of the generated instance,
so the benchmark notices when a generator no longer reproduces its pool.
"""

from __future__ import annotations

import json
import sys
import time
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import corpus  # noqa: E402
from rbsc import dp, fpt, generators, oracle  # noqa: E402

ORACLE_LIMIT = 2_000_000  # subfamilies brute force may enumerate per instance


def pool_entries(workload: str) -> list[dict]:
    if workload == "geo-lines":
        return [{"gen_seed": s} for s in corpus.GEO_POOL]
    if workload == "one-blue-core":
        blues = [b for b, count in corpus.ONE_BLUE_BINS.items() for _ in range(count)]
        return [{"gen_seed": s, "blues": b} for s, b in enumerate(blues)]
    wanted = dict(corpus.DP_BLUE_BINS)
    entries = []
    seed = 0
    while any(wanted.values()):
        b = generators.gen_random(seed, corpus.DP_PROFILE).num_blue
        if wanted.get(b, 0) > 0:
            wanted[b] -= 1
            entries.append({"gen_seed": seed})
        seed += 1
    return entries


def answer(workload: str, inst) -> tuple[str, str]:
    solver = dp.dp_solve if workload == "dp-one-red" else fpt.solve_kl_kr
    fast = "yes" if solver(inst) is not None else "no"
    limit = min(inst.budget_lines, inst.num_sets)
    if sum(comb(inst.num_sets, i) for i in range(limit + 1)) > ORACLE_LIMIT:
        return fast, solver.__module__.rsplit(".", 1)[-1]
    truth = "yes" if oracle.brute_force_solve(inst, force=True) is not None else "no"
    if truth != fast:
        raise SystemExit(f"{workload}: {solver.__name__} says {fast}, brute force says {truth}")
    return truth, "oracle"


def main() -> int:
    out = {}
    for workload in corpus.WORKLOADS:
        entries = pool_entries(workload)
        start = time.perf_counter()
        for entry in entries:
            inst = corpus.generate(workload, entry)
            entry["fingerprint"] = corpus.fingerprint(inst)
            entry["answer"], entry["source"] = answer(workload, inst)
        yes = sum(e["answer"] == "yes" for e in entries)
        by_oracle = sum(e["source"] == "oracle" for e in entries)
        print(
            f"{workload}: {len(entries)} instances, {yes} yes, {by_oracle} from brute force, "
            f"{time.perf_counter() - start:.1f} s"
        )
        out[workload] = entries
    body = ",\n".join(
        f' "{w}": [\n' + ",\n".join("  " + json.dumps(e) for e in entries) + "\n ]"
        for w, entries in out.items()
    )
    corpus.EXPECTED_FILE.write_text("{\n" + body + "\n}\n")
    print(f"wrote {corpus.EXPECTED_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
