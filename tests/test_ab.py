"""The summary of tools/ab.py, the A/B comparison of two commits' benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def record(run_s, peak_rss_mb, correct=True):
    """A canned last line of `perfbench/run.py --workload all`."""
    return {"correct": correct, "attempted": 3000, "failed": 0 if correct else 1, "metrics": {
        "base_m50.run_s": {"value": run_s, "unit": "s"},
        "base_m50.peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "base_m50.residual_calls": {"value": 2010, "unit": "count"},
    }}


PARENT = [record(v, 60.0 + i) for i, v in enumerate([0.10, 0.12, 0.11, 0.13, 0.09])]
CHANGE = [record(v, 61.0 + i) for i, v in enumerate([0.09, 0.10, 0.12, 0.11, 0.08])]
BETTER = {"run_s": "lower", "peak_rss_mb": "lower", "score": "higher"}


def test_summary_gives_medians_quartiles_change_and_wins():
    rows = {row[0]: row[1:] for row in ab.summarize(PARENT, CHANGE, BETTER)}
    # metrics outside BETTER (here a count) are left out
    assert set(rows) == {"base_m50.run_s", "base_m50.peak_rss_mb"}
    med_a, qa, med_b, qb, pct, wins = rows["base_m50.run_s"]
    assert (med_a, med_b) == (0.11, 0.10)
    assert qa == pytest.approx((0.095, 0.125))
    assert qb == pytest.approx((0.085, 0.115))
    assert pct == pytest.approx(-100.0 / 11.0)
    # pair 3 (0.11 -> 0.12) is the parent's; the other four are the change's
    assert wins == 4
    assert rows["base_m50.peak_rss_mb"][4:] == (pytest.approx(100.0 / 62.0), 0)


def test_higher_is_better_counts_increases_as_wins():
    parent = [{"correct": True, "metrics": {"w.score": {"value": v}}} for v in (1.0, 2.0, 3.0)]
    change = [{"correct": True, "metrics": {"w.score": {"value": v}}} for v in (2.0, 2.0, 4.0)]
    (row,) = ab.summarize(parent, change, BETTER)
    # a tie is no win
    assert row[0] == "w.score" and row[-1] == 2


def test_a_run_that_is_not_correct_fails():
    assert ab.check_correct(PARENT[0], "parent seed 1") is PARENT[0]
    with pytest.raises(ab.RunFailed, match="parent seed 1 is not correct: 1 of 3000"):
        ab.check_correct(record(0.1, 60.0, correct=False), "parent seed 1")


def test_format_names_every_metric():
    text = ab.format_rows(ab.summarize(PARENT, CHANGE, BETTER), 5)
    assert text.splitlines()[0] == (
        "base_m50.run_s: 0.11 [0.095, 0.125] -> 0.1 [0.085, 0.115]  -9.1%  change better in 4/5")
