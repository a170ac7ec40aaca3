"""``tests/ab_inprocess.py`` on synthetic pass times: no tree is loaded."""

import pytest

import ab_inprocess


def test_the_summary_reads_ratios_wins_and_quartiles():
    parent = [1.0, 2.0, 1.0, 1.0, 4.0]
    change = [0.9, 1.9, 1.0, 1.1, 3.0]  # ratios 0.9, 0.95, 1 (a tie), 1.1, 0.75
    got = ab_inprocess.summary(parent, change)
    assert got["reps"] == 5
    assert (got["change_wins"], got["change_losses"]) == (3, 1)
    assert got["median_ratio"] == pytest.approx(0.95)
    assert (got["q1_ratio"], got["q3_ratio"]) == (pytest.approx(0.9), pytest.approx(1.0))
    assert (got["parent_median_s"], got["change_median_s"]) == (1.0, 1.1)
    one = ab_inprocess.summary([2.0], [1.0])
    assert one["median_ratio"] == one["q1_ratio"] == one["q3_ratio"] == 0.5 and one["change_wins"] == 1
