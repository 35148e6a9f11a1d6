"""Check that a seed reproduces its corpus and its work counts exactly.

Run from the repository root:

    python3 bench/check_determinism.py [--seed N] [workload ...]

Runs `bench/run.py --trace 1` twice per workload and compares the corpus
digest and the counts that later changes may rest claims on.  Exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import corpus  # noqa: E402

COUNTS = (
    "fpt.branches",
    "kernel.rule_calls",
    "kernel.rules_fired",
    "model.is_linear_system.calls",
    "oracle.calls",
)


def traced(workload: str, seed: int) -> tuple[str, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    digest = next(line.split("sha256 ")[1] for line in out if line.startswith("corpus "))
    metrics = json.loads(out[-1])["metrics"]
    return digest, {name: metrics[name]["value"] for name in COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=corpus.WORKLOADS)
    args = parser.parse_args()
    same = True
    for workload in args.workloads:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        ok = first == second
        same &= ok
        print(f"{workload}: corpus {first[0][:16]} counts {first[1]} {'repeat' if ok else 'DIFFER: ' + str(second)}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
