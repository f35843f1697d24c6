"""The paired-run summary and run order of scripts/bench_pairs.py, on
synthetic samples.

The summary, the order of runs and the output document are tested here,
with a stand-in for one benchmark run; running the benchmark itself takes
minutes and is left to the script (CI runs one short pair).
"""

import importlib.util
import json
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


def fake_run_once(calls, incorrect=()):
    """A run_once that records (tree, workload) and reads 100 on the base, 150 on the change;
    a run whose (side, workload) is in incorrect is not correct."""
    def run_once(tree, workload, seed, seconds):
        side = "change" if tree == bench_pairs.ROOT else "base"
        calls.append((side, workload))
        value = 150.0 if side == "change" else 100.0
        return {"correct": (side, workload) not in incorrect,
                "values": {"tokens_per_s": value, "setup_s": 1.0,
                           "peak_rss_mb": 90.0, "ok_ratio": 1.0}}
    return run_once


def test_workloads_interleave_within_each_pair(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once(calls))
    runs = bench_pairs.measure(tmp_path, ["w1", "w2"], seed=0, pairs=2, seconds=1)
    assert calls == [
        ("base", "w1"), ("change", "w1"), ("base", "w2"), ("change", "w2"),
        ("change", "w1"), ("base", "w1"), ("change", "w2"), ("base", "w2"),
    ]
    assert [len(runs[w][side]) for w in ("w1", "w2") for side in ("base", "change")] == [2] * 4


def test_each_workload_is_recorded_under_its_name(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once(calls))
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, into: "0" * 40)
    out = tmp_path / "bench.json"
    out.write_text('{"kept": {"seed 9": {}}}')
    assert bench_pairs.main(["--base", "HEAD", "--workload", "w1", "--workload", "w2",
                             "--workload", "w1", "--seed", "3", "--pairs", "1",
                             "--seconds", "1", "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert sorted(document) == ["kept", "w1", "w2"]
    assert len(calls) == 4  # a repeated --workload is measured once
    for workload in ("w1", "w2"):
        entry = document[workload]["seed 3"]
        assert entry["correct"] == {"base": 1, "change": 1}
        tokens = entry["metrics"]["tokens_per_s"]
        assert (tokens["base"]["median"], tokens["change"]["median"]) == (100.0, 150.0)


@pytest.mark.parametrize("side", ["base", "change"])
def test_no_gain_is_shown_for_a_workload_with_an_incorrect_run(monkeypatch, tmp_path, side):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once(calls, {(side, "w1")}))
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, into: "0" * 40)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--base", "HEAD", "--workload", "w1", "--workload", "w2",
                             "--seed", "3", "--pairs", "2", "--seconds", "1",
                             "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    wrong, right = document["w1"]["seed 3"], document["w2"]["seed 3"]
    assert wrong["correct"] == {"base": 2, "change": 2, side: 0}
    assert not any(m["gain_shown"] for m in wrong["metrics"].values())
    assert wrong["metrics"]["tokens_per_s"]["wins"] == 2
    assert right["correct"] == {"base": 2, "change": 2}
    assert right["metrics"]["tokens_per_s"]["gain_shown"]
