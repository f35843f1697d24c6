#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against this checkout.

Usage, from the root of a dravlid checkout:

    python3 scripts/bench_pairs.py --base HEAD~1 --workload warm-sweep-tm \\
        --seed 1 --pairs 10 --seconds 30 --out BENCH.json

The base revision is extracted with `git archive` into a temporary
directory; the change is this checkout as it stands, uncommitted edits
included. Each pair runs `perfbench/run.py` once in each tree, one run at a
time, and which tree goes first alternates from pair to pair, so that drift
in the machine's load falls on both sides alike. For each end-to-end metric
that BENCHMARK.json declares, the output records both sides' medians and
quartiles, how many pairs the change won, and the relative change of the
medians against the metric's bound, with the seed, CPU count and Python
version, under the workload's name and the seed. What --out already holds
for other workloads and seeds is kept, so each can be measured by its own
call. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A gain is shown when the change wins nine pairs in ten and its median
# moves by more than the spread of the base's middle half.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metric: dict, base: list[float], change: list[float]) -> dict:
    """Compare one metric's paired samples (base[i] ran beside change[i]).

    metric is its BENCHMARK.json entry: name, unit, better, bound. The
    relative change is of the medians, signed so that a positive value is
    a rise. `worse_than_bound` says whether the change lost more than the
    bound; `gain_shown` whether it won WIN_SHARE of the pairs and its median
    moved the right way by more than the base's quartile spread.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same number of base and change samples, at least one")
    higher = metric["better"] == "higher"
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if (c > b if higher else c < b))
    relative = (c_med - b_med) / b_med if b_med else (0.0 if c_med == b_med else math.inf)
    gain = (c_med - b_med) if higher else (b_med - c_med)
    worse = -relative if higher else relative
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "base": {"median": b_med, "q1": b1, "q3": b3, "samples": base},
        "change": {"median": c_med, "q1": c1, "q3": c3, "samples": change},
        "wins": wins,
        "pairs": len(base),
        "relative_change": relative,
        "worse_than_bound": worse > metric["bound"],
        "gain_shown": wins >= math.ceil(WIN_SHARE * len(base)) and gain > b3 - b1,
    }


def extract(rev: str, into: Path) -> str:
    """Write the tree of rev under into; return its commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    data = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:  # Python before 3.10.12 / 3.11.4
            tar.extractall(into)
    return commit


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: its end-to-end values and whether it was correct."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"],
            "values": {name: m["value"] for name, m in result["metrics"].items()}}


def measure(base_tree: Path, workload: str, seed: int, pairs: int, seconds: float) -> dict:
    """Alternate runs of the two trees; the samples of each side, in pair order."""
    trees = {"base": base_tree, "change": ROOT}
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed, seconds))
        print(f"pair {i + 1}/{pairs}: " + ", ".join(
            f"{side} {runs[side][-1]['values']}" for side in ("base", "change")),
            file=sys.stderr)
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, metavar="PATH")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base_commit = extract(args.base, Path(tmp))
        runs = measure(Path(tmp), args.workload, args.seed, args.pairs, args.seconds)

    out = Path(args.out)
    document = json.loads(out.read_text()) if out.is_file() else {}
    document.setdefault(args.workload, {})[f"seed {args.seed}"] = {
        "base": {"rev": args.base, "commit": base_commit},
        "change": {
            "commit": _git("rev-parse", "HEAD").strip(),
            # Edits under src/ or perfbench/ that the commit does not hold.
            "uncommitted_edits": bool(_git("status", "--porcelain", "--", "src", "perfbench")),
        },
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "correct": {side: sum(r["correct"] for r in runs[side]) for side in runs},
        "metrics": {
            m["name"]: summarize(m, [r["values"][m["name"]] for r in runs["base"]],
                                 [r["values"][m["name"]] for r in runs["change"]])
            for m in declared
        },
    }
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
