"""In-process A/B passes of two trees, to size a change before ``bench_pairs.py`` measures it.

Usage: python tests/ab_inprocess.py PARENT CHANGE --workload W --reps N [--seed K]

Loads each tree's ``telesim``, with an ``mpmath`` of its own, into its own
modules in this one process, and makes each tree's ops with that tree's
``perfbench/workloads.py``, which it only reads. After one untimed pass of
each tree, rep i = 1..N times one whole pass of each, the parent first on
odd reps and the change first on even ones; both trees' pass i comes from
seed K and pass index i, so both do the same work. A pass time is the
wall time of its op calls (``time.perf_counter``); the checks run after
it. Every op must pass its workload check on both trees, and an op that
writes a report must write the same bytes on both; otherwise the tool
stops. Passes of the two trees sit a fraction of a second apart, so a
drift of the host's speed reaches both alike.

Prints, for the change/parent ratios of the reps' pass times, the median,
the reps the change wins (ratio below 1), and the quartiles
(``statistics.quantiles``, inclusive), then the same as one JSON line.

The ratio ranks the pieces of a change; it does not size a claim. It
times only op calls in a warm process, so it leaves out what a fresh
``perfbench/run.py`` process pays around them and can read a piece
larger: a prototype of the one-walk Bogoliubov audit read -6.0 % here
and -2.75 % in ``bench_pairs.py`` pairs on ``sweep`` (as it landed,
-3.6 % and -3.0 %). Size a claim with those pairs.
pytest does not collect this file; ``tests/test_ab_inprocess.py`` checks
:func:`summary` on synthetic times.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def summary(parent: list[float], change: list[float]) -> dict:
    """The change/parent ratios of paired pass times: median, quartiles, wins and losses."""
    ratios = [c / p for p, c in zip(parent, change)]
    if len(ratios) > 1:
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    else:
        q1 = median = q3 = ratios[0]
    return {
        "reps": len(ratios),
        "median_ratio": median,
        "q1_ratio": q1,
        "q3_ratio": q3,
        "change_wins": sum(r < 1 for r in ratios),
        "change_losses": sum(r > 1 for r in ratios),
        "parent_median_s": statistics.median(parent),
        "change_median_s": statistics.median(change),
    }


def _own_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name.partition(".")[0] in ("telesim", "mpmath")}


class Tree:
    """One tree's workload, set up with its own telesim and mpmath modules."""

    def __init__(self, side: str, root: Path, workload: str, work: Path):
        path = root / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(f"_ab_workloads_{side}", path)
        self.workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = self.workloads  # dataclasses looks its module up there
        spec.loader.exec_module(self.workloads)
        self.workload = self.workloads.WORKLOADS[workload]
        sys.path.insert(0, str(root / "src"))
        try:
            self.state = self.workload.setup(work)  # a fresh import of telesim and mpmath
        finally:
            sys.path.remove(str(root / "src"))
        if not Path(self.state.telesim.__file__).is_relative_to(root / "src"):
            raise SystemExit(f"error: {side}: imported telesim from {self.state.telesim.__file__}")
        self.modules = _own_modules()

    def run_pass(self, seed: int, index: int) -> tuple[float, list]:
        """The pass time and (op, result) of each op of pass index, with this tree's modules in place."""
        sys.modules.update(self.modules)  # for imports a call makes as it runs
        ops = self.workload.ops(self.state, seed, index)
        results = []
        start = time.perf_counter()
        for op in ops:
            results.append(op.call())
        elapsed = time.perf_counter() - start
        return elapsed, list(zip(ops, results))


def _checked(side: str, done: list, known: frozenset) -> list:
    """The (key, report bytes) of each op that writes one; stops at a failed
    check, unless the workload lists the op as a known defect."""
    reports = []
    for op, result in done:
        reason = op.check(result)
        if reason is not None and op.key not in known:
            raise SystemExit(f"error: {side}: {op.key}: {reason}")
        report = op.report(result)
        if report is not None:
            reports.append((op.key, report))
    return reports


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    times: dict[str, list[float]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as work:
        trees = {side: Tree(side, getattr(args, side).resolve(), args.workload, Path(work) / side)
                 for side in SIDES}
        for i in range(args.reps + 1):  # pass 0 of each tree is untimed
            reports = {}
            for side in SIDES if i % 2 else SIDES[::-1]:
                elapsed, done = trees[side].run_pass(args.seed, i)
                reports[side] = _checked(side, done, trees[side].workloads.KNOWN_DEFECTS)
                if i:
                    times[side].append(elapsed)
            if reports["parent"] != reports["change"]:
                differ = sorted({key for key, _ in set(reports["parent"]) ^ set(reports["change"])})
                raise SystemExit(f"error: pass {i}: report bytes differ between the trees: {differ}")
            if i:
                print(f"rep {i}: parent {times['parent'][-1]:.4f} s, change {times['change'][-1]:.4f} s, "
                      f"ratio {times['change'][-1] / times['parent'][-1]:.4f}", file=sys.stderr)
    result = summary(times["parent"], times["change"])
    print(f"{args.workload}: median change/parent {result['median_ratio']:.4f} "
          f"(q1 {result['q1_ratio']:.4f}, q3 {result['q3_ratio']:.4f}), "
          f"change wins {result['change_wins']} of {result['reps']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result, "runs_parent": times["parent"],
                      "runs_change": times["change"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
