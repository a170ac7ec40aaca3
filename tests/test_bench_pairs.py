"""``tests/bench_pairs.py`` on synthetic runs: no perfbench process starts."""

import json
from pathlib import Path

import pytest

import bench_pairs

ROOT = Path(__file__).resolve().parents[1]


def test_the_summary_counts_wins_quartiles_and_the_claim_rule():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.90, 0.91, 0.89, 0.92, 0.90, 0.91, 0.88, 1.00, 0.90, 1.05]  # a tie and a loss
    shares = [1.0] * 10
    pairs = [({"wall_s": p, "passed_ops": s}, {"wall_s": c, "passed_ops": s})
             for p, c, s in zip(parent, change, shares)]
    got = bench_pairs.summary(pairs, {"wall_s": "lower", "passed_ops": "higher"})
    wall = got["wall_s"]
    assert (wall["change_wins"], wall["change_losses"]) == (8, 1)
    assert wall["parent"] == {"median": 1.0, "q1": pytest.approx(0.9825), "q3": pytest.approx(1.0175), "n": 10}
    assert wall["parent_spread"] == wall["parent"]["q3"] - wall["parent"]["q1"]
    assert wall["median_change_pct"] == -9.5
    assert not wall["gain_claim_holds"]  # 8 of 10 wins: below nine tenths
    assert wall["runs_parent"] == parent and wall["runs_change"] == change
    assert (got["passed_ops"]["change_wins"], got["passed_ops"]["change_losses"]) == (0, 0)
    assert not got["passed_ops"]["gain_claim_holds"]

    change[7] = 0.91  # nine wins now, and the medians 0.095 apart against a spread of 0.035
    pairs = [({"wall_s": p}, {"wall_s": c}) for p, c in zip(parent, change)]
    assert bench_pairs.summary(pairs, {"wall_s": "lower"})["wall_s"]["gain_claim_holds"]
    # the same pairs the other way round, higher being better
    flipped = bench_pairs.summary([(c, p) for p, c in pairs], {"wall_s": "higher"})["wall_s"]
    assert flipped["change_wins"] == 9 and flipped["parent_spread"] == pytest.approx(0.01)
    assert flipped["gain_claim_holds"]


def test_pairs_alternate_and_land_in_the_named_comparison(tmp_path, monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, seed))
        return {"wall_s": 1.0 if tree.name == "parent" else 0.9, "setup_s": 0.1,
                "op_geomean_s": 0.01, "peak_rss_mb": 40.0, "passed_ops": 1.0}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    (tmp_path / "parent").mkdir()
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"what": "kept"}))
    argv = [str(tmp_path / "parent"), str(change), "--workload", "sweep", "--pairs", "3",
            "--seconds", "1", "--seed0", "7", "--out", str(out), "--name", "claim"]
    assert bench_pairs.main(argv) == 0
    assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8), ("parent", 9), ("change", 9)]
    written = json.loads(out.read_text())
    assert written["what"] == "kept"
    claim = written["comparisons"]["claim"]
    assert claim["seeds"] == [7, 8, 9] and len(claim["runs"]) == 6
    assert set(claim["summary"]) == {"wall_s", "op_geomean_s", "setup_s", "peak_rss_mb", "passed_ops"}
    assert claim["summary"]["wall_s"]["change_wins"] == 3
    assert claim["summary"]["setup_s"]["change_wins"] == 0
