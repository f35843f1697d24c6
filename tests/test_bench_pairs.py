"""The paired-run summary of scripts/bench_pairs.py, on synthetic samples.

Only the summarising function is tested here; running the benchmark itself
takes minutes and is left to the script.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

TOKENS = {"name": "tokens_per_s", "unit": "tok/s", "better": "higher", "bound": 0.2}
SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


def test_clear_gain_on_a_higher_is_better_metric():
    base = [100.0, 110, 90, 105, 95, 100, 102, 98, 101, 99]
    change = [b * 1.5 for b in base]
    s = bench_pairs.summarize(TOKENS, base, change)
    assert s["base"]["median"] == pytest.approx(100.0)
    assert s["change"]["median"] == pytest.approx(150.0)
    assert (s["base"]["q1"], s["base"]["q3"]) == pytest.approx((98.25, 101.75))
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["relative_change"] == pytest.approx(0.5)
    assert s["gain_shown"] and not s["worse_than_bound"]
    assert s["base"]["samples"] == base


def test_lower_is_better_metric_counts_falls_as_wins():
    base = [1.0, 1.1, 0.9, 1.0]
    change = [0.5, 1.2, 0.4, 0.6]
    s = bench_pairs.summarize(SETUP, base, change)
    assert s["wins"] == 3
    assert s["relative_change"] == pytest.approx(-0.45)
    assert not s["worse_than_bound"]
    assert not s["gain_shown"]  # 3 of 4 is under nine in ten


def test_loss_past_the_bound_is_flagged():
    base = [100.0] * 5
    s = bench_pairs.summarize(TOKENS, base, [75.0] * 5)
    assert s["relative_change"] == pytest.approx(-0.25)
    assert s["worse_than_bound"] and s["wins"] == 0
    within = bench_pairs.summarize(TOKENS, base, [85.0] * 5)
    assert not within["worse_than_bound"]


def test_gain_inside_the_base_spread_is_not_shown():
    base = [80.0, 120, 90, 110, 100, 85, 115, 95, 105, 100]
    change = [b + 5 for b in base]  # wins every pair, by less than the IQR
    s = bench_pairs.summarize(TOKENS, base, change)
    assert s["wins"] == 10
    assert not s["gain_shown"]


def test_single_pair_and_unequal_samples():
    s = bench_pairs.summarize(SETUP, [2.0], [1.0])
    assert s["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "samples": [2.0]}
    assert s["gain_shown"]
    with pytest.raises(ValueError):
        bench_pairs.summarize(SETUP, [1.0, 2.0], [1.0])
