"""Checks that the traced counts repeat exactly across runs.

Runs ``run.py --trace 1`` twice per workload with the same seed, one run
after the other, and compares every count and count ratio. Each traced run
already checks on its own that every expected span fired and that the
self times add up to the traced wall time; a run that fails those checks
reports ``"correct": false``, which fails this check too.

    python3 perfbench/selfcheck.py --seed 1 --seconds 20 [--workload nbin ...]

Exits 0 when every workload passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

REPEATABLE = (
    "coeff.eval_calls",
    "coeff.eval_hit_ratio",
    "coeff.evaluators",
    "coeff.dag_nodes",
    "coeff.dag_depth",
    "opalg.table_calls",
    "opalg.table_hit_ratio",
)


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=("goldens", "nbin", "sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload or ("goldens", "nbin", "sweep"):
        first, second = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        problems = [f"run {i} not correct" for i, run in enumerate((first, second), 1)
                    if not run["correct"]]
        for name in REPEATABLE:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{name}: {a} then {b}")
        ok = ok and not problems
        print(f"{workload}: {'ok' if not problems else 'FAIL'}")
        for line in problems:
            print(f"  {line}")
        for name in REPEATABLE:
            print(f"  {name:24s} {first['metrics'][name]['value']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
