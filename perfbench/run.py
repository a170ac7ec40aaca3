"""Benchmark for telesim: time to verdict, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload goldens --seed 1 --seconds 20 --trace 0

One process runs one workload, single-threaded, against the package under
``src/``. Set-up (the import plus input preparation) is repeated
``SETUP_REPS`` times from a fresh import and reported as a median. Then
passes over the workload's ops repeat until ``--seconds`` have elapsed;
every op's output is checked against the expected verdicts. Times are
scaled to a fixed machine speed (see ``speed.py``); the result file keeps
the unscaled pass times too.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` half the time runs untraced and
half traced, and the object carries the per-layer metrics instead. A
result file with quartiles, sample counts, provenance and the sha256 of
every machine report is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 5

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, circuits  # noqa: E402

# spans each workload must fire at least once in a traced pass
EXPECTED_SPANS = {
    "goldens": set(tracing.SPANS),
    "nbin": set(tracing.SPANS) - {"verify.selectivity"},
    "sweep": {
        "coeff.eval", "opalg.table", "opalg.variance",
        "verify.bogoliubov", "verify.oracle",
    },
}


def _quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Passes:
    """Timings and gate outcomes of repeated passes over the ops."""

    def __init__(self, sampler: SpeedSampler):
        self.sampler = sampler
        # (start, end) sampler readings, scaled when the run is over
        self.walls: list[tuple] = []
        self.raw_walls: list[float] = []
        self.op_times: dict[str, list[tuple]] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.digests: dict[str, set[str]] = {}

    def run_pass(self, ops) -> None:
        clock = self.sampler.clock
        first = clock()
        for op in ops:
            self.attempted += 1
            began = clock()
            try:
                result = op.call()
            except Exception as exc:  # a raising op is a failed op, not a crash
                result, reason = None, f"raised {type(exc).__name__}: {exc}"
            else:
                reason = None
            ended = clock()
            self.op_times.setdefault(op.key, []).append((began, ended))
            if reason is None:
                reason = op.check(result)
                report = op.report(result)
                if report is not None:
                    digest = hashlib.sha256(report).hexdigest()
                    self.digests.setdefault(op.key, set()).add(digest)
            if reason is not None:
                self.failures.append((op.key, reason))
        last = clock()
        self.walls.append((first, last))
        self.raw_walls.append(last[0] - first[0])

    def scaled_walls(self) -> list[float]:
        return [self.sampler.scaled(a, b) for a, b in self.walls]

    def scaled_ops(self) -> dict[str, list[float]]:
        return {
            key: [self.sampler.scaled(a, b) for a, b in spans]
            for key, spans in self.op_times.items()
        }


def run_for(seconds: float, workload, state, seed: int, passes: Passes, on_pass=None):
    """Repeat passes until ``seconds`` have elapsed; at least one."""
    start = time.perf_counter()
    index = 0
    while True:
        ops = workload.ops(state, seed, index)
        if on_pass:
            on_pass(index)
        passes.run_pass(ops)
        index += 1
        if time.perf_counter() - start >= seconds:
            return


def end_to_end(passes: Passes, setup_times: list[float]) -> tuple[dict, dict]:
    per_op = {key: _quartiles(times) for key, times in passes.scaled_ops().items()}
    geomean = math.exp(
        statistics.fmean(math.log(entry["median"]) for entry in per_op.values())
    )
    detail = {
        "wall_s": _quartiles(passes.scaled_walls()),
        "raw_wall_s": _quartiles(passes.raw_walls),
        "setup_s": _quartiles(setup_times),
        "op_geomean_s": {"value": geomean, "ops": len(per_op)},
        "per_op_s": per_op,
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (detail["wall_s"]["median"], "s"),
        "op_geomean_s": (geomean, "s"),
        "setup_s": (detail["setup_s"]["median"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "passed_ops": (1 - len(passes.failures) / passes.attempted, "share"),
    }
    return metrics, detail


def _phase_scale(passes: Passes) -> tuple[float, float]:
    """Scale factor and scaled mean pass time over all of a phase's passes."""
    begin, end = passes.walls[0][0], passes.walls[-1][1]
    scale = passes.sampler.scaled(begin, end) / (end[0] - begin[0])
    return scale, scale * statistics.fmean(passes.raw_walls)


def per_layer(tracer, traced: Passes, untraced: Passes, counts: dict, dag: tuple) -> dict:
    n = len(traced.walls)
    scale, wall = _phase_scale(traced)
    metrics = {
        f"{name}_s": (tracer.self_s[name] / n * scale, "s") for name in tracing.SPANS
    }
    calls = counts["coeff.eval_calls"]
    tables = counts["opalg.table_calls"]
    metrics.update({
        "coeff.eval_calls": (calls, "count"),
        "coeff.eval_hit_ratio": (
            (calls - counts["coeff.eval_misses"]) / calls if calls else 0.0, "ratio"),
        "coeff.evaluators": (counts["coeff.evaluators"], "count"),
        "coeff.dag_nodes": (dag[0], "count"),
        "coeff.dag_depth": (dag[1], "count"),
        "opalg.table_calls": (tables, "count"),
        "opalg.table_hit_ratio": (
            counts["opalg.table_repeats"] / tables if tables else 0.0, "ratio"),
        "bench.uncovered_s": (wall - tracer.covered_s / n * scale, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (wall / _phase_scale(untraced)[1], "ratio"),
    })
    return metrics


def trace_problems(workload: str, tracer, metrics: dict) -> list[str]:
    problems = [
        f"span {name} never fired"
        for name in sorted(EXPECTED_SPANS[workload])
        if tracer.fires[name] == 0
    ]
    parts = sum(value for key, (value, _) in metrics.items()
                if key.endswith("_s") and key != "trace.wall_s")
    wall = metrics["trace.wall_s"][0]
    if abs(parts - wall) > 1e-6 * max(1.0, wall):
        problems.append(f"self times sum to {parts:.9f} s, traced wall is {wall:.9f} s")
    return problems


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "mpmath": metadata.version("mpmath"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure(args, workload, sampler: SpeedSampler):
    """Set-up repetitions, then the timed passes; returns metrics and details."""
    setup_times = []
    for _ in range(SETUP_REPS):
        start = sampler.clock()
        state = workload.setup(OUT / "inputs")
        setup_times.append(sampler.scaled(start, sampler.clock()))
    if not Path(state.telesim.__file__).is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: imported telesim from {state.telesim.__file__}")

    untraced = Passes(sampler)
    if not args.trace:
        run_for(args.seconds, workload, state, args.seed, untraced)
        metrics, detail = end_to_end(untraced, setup_times)
        return metrics, detail, [untraced], []

    run_for(args.seconds / 2, workload, state, args.seed, untraced)
    dag = tracing.dag_stats(circuits(state))
    tracer = tracing.Tracer()
    traced = Passes(sampler)
    first_pass_counts: dict = {}

    def on_pass(index):
        if index == 1:
            first_pass_counts.update(tracer.counts)

    tracer.install()
    try:
        run_for(args.seconds / 2, workload, state, args.seed, traced, on_pass)
    finally:
        tracer.uninstall()
    counts = first_pass_counts or dict(tracer.counts)
    metrics = per_layer(tracer, traced, untraced, counts, dag)
    detail = {
        "untraced_passes": len(untraced.walls),
        "traced_passes": len(traced.walls),
        "span_fires": dict(tracer.fires),
        "first_pass_counts": counts,
        "raw_wall_s": {"untraced": untraced.raw_walls, "traced": traced.raw_walls},
    }
    return metrics, detail, [untraced, traced], trace_problems(args.workload, tracer, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "telesim" / "__init__.py").is_file():
        print(f"error: no telesim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    with SpeedSampler() as sampler:
        metrics, detail, runs, problems = measure(args, WORKLOADS[args.workload], sampler)
    detail["speed_chunk_s"] = _quartiles(sampler.chunks)

    attempted = sum(p.attempted for p in runs)
    failures = [f for p in runs for f in p.failures]
    digests: dict[str, set[str]] = {}
    for p in runs:
        for key, found in p.digests.items():
            digests.setdefault(key, set()).update(found)
    problems += [f"{key}: report bytes differ between passes"
                 for key, found in sorted(digests.items()) if len(found) > 1]
    problems += [f"{key}: {reason}" for key, reason in sorted(dict(failures).items())
                 if key not in KNOWN_DEFECTS]
    correct = not problems

    result = {
        "provenance": provenance(args),
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failed_ops": len(failures) / attempted,
        "failures": sorted({f"{key}: {reason}" for key, reason in failures}),
        "problems": problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "detail": detail,
        "report_sha256": {key: sorted(found) for key, found in sorted(digests.items())},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"{args.workload}: seed {args.seed}, {attempted} ops attempted, "
          f"{len(failures)} failed (failed_ops {len(failures) / attempted:.4f})")
    for line in result["failures"] + problems:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:.6g} {unit}")
    print(f"  result file {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
