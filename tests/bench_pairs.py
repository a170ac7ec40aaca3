"""Alternating perfbench runs of two trees, summarised for a ``BENCH_*.json`` file.

Usage: python tests/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed0 K
       [--out FILE --name NAME]

For pair i = 1..N, runs ``python3 perfbench/run.py --workload W --seed K+i-1
--seconds S --trace 0`` from the PARENT tree and from the CHANGE tree, one
process at a time: the parent first on odd pairs, the change first on even
ones. Each run's metrics are the JSON object on the last line of its
output; a run that fails or reports ``correct: false`` stops the tool.

The result holds every run's metrics and, for each end-to-end metric of
the CHANGE tree's ``BENCHMARK.json``, each side's median and quartiles
(``statistics.quantiles``, inclusive), the pairs the change wins and loses
(ties count for neither), the median change in percent, the parent's
quartile spread (q3 - q1) and whether a gain claim holds: the change wins
at least nine tenths of the pairs and its median is better than the
parent's by more than that spread. It is printed, or with ``--out`` kept in
FILE under ``comparisons[NAME]``, beside the file's other entries.
pytest does not collect this file; ``tests/test_bench_pairs.py`` checks
:func:`summary` on synthetic runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> dict:
    """Median, q1, q3 and count of values, as ``perfbench/run.py`` takes them."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summary(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric of better (name -> "lower" or "higher"), the comparison of
    the (parent, change) metric dicts of pairs, each {name: value}."""
    out = {}
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1 if direction == "lower" else -1  # positive: the change is better
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
        sides = {"parent": quartiles(parent), "change": quartiles(change)}
        gap = sign * (sides["parent"]["median"] - sides["change"]["median"])
        spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        base = sides["parent"]["median"]
        out[name] = {
            **sides,
            "better": direction,
            "change_wins": wins,
            "change_losses": losses,
            "median_change_pct": round(100 * (sides["change"]["median"] - base) / base, 2) if base else None,
            "parent_spread": spread,
            "gain_claim_holds": 10 * wins >= 9 * len(pairs) and gap > spread,
            "runs_parent": parent,
            "runs_change": change,
        }
    return out


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics {name: value} of one perfbench run from tree."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: {tree}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {tree}: {workload} seed {seed} reported correct: false")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--name")
    args = parser.parse_args(argv)
    if (args.out is None) != (args.name is None):
        parser.error("--out and --name go together")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}

    runs, pairs = [], []
    for i in range(1, args.pairs + 1):
        seed, got = args.seed0 + i - 1, {}
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            got[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs.append({"pair": i, "seed": seed, "side": side, "metrics": got[side]})
            print(f"pair {i} seed {seed} {side}: " + " ".join(
                f"{name}={got[side][name]:.6g}" for name in better if name in got[side]), file=sys.stderr)
        pairs.append((got["parent"], got["change"]))

    comparison = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed N --seconds {args.seconds:g} --trace 0",
        "parent": str(args.parent),
        "change": str(args.change),
        "workload": args.workload,
        "pairs": args.pairs,
        "seeds": [args.seed0 + i for i in range(args.pairs)],
        "order": "parent first on odd pairs, change first on even pairs",
        "summary": summary(pairs, {name: way for name, way in better.items() if all(name in p for p in pairs[0])}),
        "runs": runs,
    }
    if args.out is None:
        print(json.dumps(comparison, indent=1))
        return 0
    kept = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    kept.setdefault("comparisons", {})[args.name] = comparison
    args.out.write_text(json.dumps(kept, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
