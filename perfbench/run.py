"""dravlid benchmark: real CLI runs over seeded workloads, with a correctness gate.

Usage, from the root of a dravlid checkout:

    python3 perfbench/run.py --workload baseline-zipf-kn --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from the seed (see workloads.py, which
also records why each workload exists). The run then repeats one operation
until --seconds have passed: a fresh worker interpreter imports dravlid,
builds the backend, and runs the workload's CLI commands. Every operation's
output is checked against what the inputs intend. The last line of stdout is
one JSON object: the end-to-end metrics with --trace 0; with --trace 1,
untraced and traced operations alternate and the per-layer metrics are
reported, with the tracing overhead as traced minus untraced wall time.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_PATH = HERE.parent / "BENCHMARK.json"
DIGESTS_PATH = HERE / "baseline_digests.json"
# A run must end within 180 s; an operation that would overrun is killed.
RUN_LIMIT_S = 170
WORKLOAD_NAMES = ("baseline-zipf-kn", "warm-sweep-tm", "cold-live-kn")


@dataclass
class Plan:
    """A workload's generated inputs, commands, and the outputs it intends."""

    workload: "workloads.Workload"
    corpus: "workloads.Corpus"
    commands: list[list[str]]
    backend: dict
    tokens_labelled: int
    expected: dict[Path, list[str]]  # predictions file -> intended codes
    accuracy: dict[Path, float] = field(default_factory=dict)  # report -> accuracy
    digests: dict[Path, str] = field(default_factory=dict)  # file -> recorded sha256
    cache_records: int | None = None  # records the cold cache must end with
    stub: "Stub | None" = None


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def accuracy_of(codes: list[str], gold: tuple[str, ...]) -> float:
    return sum(1 for c, g in zip(codes, gold) if c == g) / len(gold)


def plan_workload(name: str, seed: int, work: Path, start_stub) -> Plan:
    """Generate the inputs under work; start_stub(gold_path) starts the stub."""
    import workloads as wl

    w = wl.WORKLOADS[name]
    lex = wl.Lexicons.load(Path("src/dravlid/data"), w.task)
    corpus = wl.generate_corpus(w, lex, seed)
    corpus_path = work / "corpus.tsv"
    corpus_path.write_text(corpus.to_tsv(), encoding="utf-8")
    task = wl.TASKS[w.task]
    unique = corpus.unique_words()
    gold_path = work / "gold.json"
    gold_path.write_text(json.dumps(unique), encoding="utf-8")
    stub = start_stub(gold_path) if w.backend != "baseline" else None
    base_url = stub.url if stub else ""
    live_flags = [
        "--backend", "live", "--base-url", base_url, "--api-key", "bench",
        "--max-workers", str(wl.MAX_WORKERS),
        "--rate-limit", str(wl.NON_BINDING_RATE_PER_MINUTE),
        "--retry-base-delay", str(wl.RETRY_BASE_DELAY_S),
    ]
    backend = {
        "kind": "live", "base_url": base_url, "api_key": "bench",
        "max_workers": wl.MAX_WORKERS, "rate_limit": wl.NON_BINDING_RATE_PER_MINUTE,
        "retry_base_delay": wl.RETRY_BASE_DELAY_S,
    }

    def intended(temperature: float) -> list[str]:
        by_word = {word: wl.model_reply(word, temperature, gold, w.task)[1]
                   for word, gold in unique.items()}
        return [by_word[word] for word in corpus.words]

    if w.backend == "baseline":
        pred, report = work / "pred.jsonl", work / "report.json"
        by_word = {word: lex.reference_baseline(word, w.task) for word in unique}
        codes = [by_word[word] for word in corpus.words]
        plan = Plan(w, corpus, [
            ["classify", str(corpus_path), "--task", w.task, "--backend", "baseline",
             "--out", str(pred)],
            ["evaluate", "--gold", str(corpus_path), "--pred", str(pred),
             "--task", w.task, "--out", str(report)],
        ], {"kind": "baseline"}, len(corpus.words), {pred: codes},
            accuracy={report: accuracy_of(codes, corpus.gold)})
        recorded = json.loads(DIGESTS_PATH.read_text()).get(str(seed)) \
            if DIGESTS_PATH.is_file() else None
        if recorded:
            plan.digests = {pred: recorded["predictions"], report: recorded["report"]}
        return plan

    if w.backend == "live-warm":
        cache = work / "warm-cache.jsonl"
        wl.write_warm_cache(corpus, cache)
        out_dir = work / "sweep"
        plan = Plan(w, corpus, [
            ["sweep", str(corpus_path), "--task", w.task, "--cache", str(cache),
             *live_flags, "--temperatures", ",".join(map(str, wl.TEMPERATURES)),
             "--out-dir", str(out_dir)],
        ], backend | {"cache": str(cache)}, len(corpus.words) * len(wl.TEMPERATURES), {},
            stub=stub)
        for t in wl.TEMPERATURES:
            label = f"{task.value}-t{t}"
            codes = intended(t)
            plan.expected[out_dir / f"{label}.predictions.jsonl"] = codes
            plan.accuracy[out_dir / f"{label}.report.json"] = accuracy_of(codes, corpus.gold)
        return plan

    cache, pred = work / "cold-cache.jsonl", work / "pred.jsonl"
    t = wl.TEMPERATURES[0]
    return Plan(w, corpus, [
        ["classify", str(corpus_path), "--task", w.task, "--cache", str(cache),
         *live_flags, "--temperature", str(t), "--out", str(pred)],
    ], backend | {"cache": str(cache)}, len(corpus.words), {pred: intended(t)},
        cache_records=len(unique), stub=stub)


class Gate:
    """Checks one operation's outputs; remembers digests already verified."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.verified: set[tuple[Path, str]] = set()

    def _check_file(self, path: Path, check) -> bool:
        if not path.is_file():
            return False
        digest = sha256_of(path)
        if path in self.plan.digests and digest != self.plan.digests[path]:
            return False
        if (path, digest) not in self.verified:
            if not check(path.read_text(encoding="utf-8")):
                return False
            self.verified.add((path, digest))
        return True

    def _predictions_ok(self, path: Path) -> bool:
        words, codes = self.plan.corpus.words, self.plan.expected[path]

        def check(text: str) -> bool:
            lines = text.split("\n")
            if lines[-1] != "" or len(lines) - 1 != len(words):
                return False
            for line, word, code in zip(lines, words, codes):
                entry = json.loads(line)
                if entry["word"] != word or entry["category_code"] != code:
                    return False
            return True

        return self._check_file(path, check)

    def _report_ok(self, path: Path) -> bool:
        expected = self.plan.accuracy[path]
        return self._check_file(
            path, lambda text: abs(json.loads(text)["accuracy"] - expected) <= 1e-12)

    def failures(self, exit_codes: list[int], stub_counts: dict | None) -> list[str]:
        """Names of the failed checks; an empty list means the operation passed."""
        failed = [f"exit code {code} from {argv[0]}"
                  for code, argv in zip(exit_codes, self.plan.commands) if code != 0]
        if len(exit_codes) != len(self.plan.commands):
            failed.append("worker ended before running every command")
        failed += [f"predictions {p.name}" for p in self.plan.expected
                   if not self._predictions_ok(p)]
        failed += [f"report {p.name}" for p in self.plan.accuracy if not self._report_ok(p)]
        if self.plan.workload.backend == "live-warm" and sum(stub_counts.values()):
            failed.append(f"{sum(stub_counts.values())} stub requests on a warm cache")
        if self.plan.cache_records is not None:
            cache = Path(self.plan.backend["cache"])
            records = cache.read_text(encoding="utf-8").count("\n") if cache.is_file() else 0
            if records != self.plan.cache_records:
                failed.append(f"cache holds {records} records, not {self.plan.cache_records}")
        return failed


class Stub:
    """The stub server process; see stub.py."""

    def __init__(self, gold_path: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--gold", str(gold_path)],
            stdout=subprocess.PIPE, text=True, env=env)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("stub server did not start")
        self.url = f"http://127.0.0.1:{line.strip()}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with self._opener.open(self.url + path, data=data, timeout=10) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("/__reset", data=b"{}")

    def counts(self) -> dict:
        return self._call("/__stats")

    def __enter__(self) -> "Stub":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_operation(plan: Plan, gate: Gate, env: dict, trace: bool, timeout: float) -> dict:
    stub = plan.stub
    stale = [*plan.expected, *plan.accuracy]
    if plan.cache_records is not None:
        stale.append(Path(plan.backend["cache"]))
    for path in stale:
        path.unlink(missing_ok=True)
    if stub:
        stub.reset()
    spec = {"backend": plan.backend, "commands": plan.commands, "trace": trace}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, timeout=timeout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    except subprocess.TimeoutExpired:
        result = {}
    stub_counts = stub.counts() if stub else {"2xx": 0, "503": 0}
    if not result:
        failed = ["worker failed"]
    else:
        failed = gate.failures(result["exit_codes"], stub_counts)
        if not Path(result["dravlid_file"]).resolve().is_relative_to(Path("src").resolve()):
            failed.append(f"imported dravlid from {result['dravlid_file']}, not ./src")
    for reason in failed:
        print(f"perfbench: FAILED {plan.workload.name}: {reason}", file=sys.stderr)
    # A failed check fails every command of the operation.
    result["failed"] = len(plan.commands) if failed else 0
    result["stub"] = stub_counts
    return result


def end_to_end(plan: Plan, samples: list[dict], attempted: int, failed: int) -> dict:
    ok = [s for s in samples if "wall_s" in s]
    return {
        "tokens_per_s": statistics.median(plan.tokens_labelled / s["wall_s"] for s in ok),
        "setup_s": statistics.median(s["import_s"] + s["build_s"] for s in ok),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(plan: Plan, untraced: list[dict], traced: list[dict]) -> dict:
    import workloads as wl

    ok = [s for s in traced if "layers" in s]
    names = ok[0]["layers"] if ok else {}
    metrics = {name: statistics.median(s["layers"][name] for s in ok) for name in names}
    requests = statistics.median(sum(s["stub"].values()) for s in traced)
    useful = statistics.median(s["stub"]["2xx"] for s in traced)
    rate = wl.DEFAULT_RATE_PER_MINUTE
    metrics.update({
        "transport.requests": requests,
        "transport.retries": requests - metrics.get("transport.complete_samples", 0),
        "transport.useful_ratio": useful / requests if requests else 0.0,
        "transport.rate_floor_s": max(0.0, requests - rate) / rate * 60,
        "transport.requests_per_token": requests / plan.tokens_labelled,
        "trace.overhead_s": statistics.median(s["wall_s"] for s in traced if "wall_s" in s)
        - statistics.median(s["wall_s"] for s in untraced if "wall_s" in s),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    src = Path("src")
    if not (src / "dravlid" / "cli.py").is_file():
        print("perfbench: no src/dravlid here; run from the root of a dravlid checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    # The build step: byte-compile once, so no operation pays for it.
    compileall.compile_dir(str(src), quiet=1)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONHASHSEED="0",
               NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost")

    work = Path(".perfbench_work") / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    with contextlib.ExitStack() as cleanup:
        cleanup.callback(shutil.rmtree, work, ignore_errors=True)
        plan = plan_workload(args.workload, args.seed, work,
                             lambda gold: cleanup.enter_context(Stub(gold, env)))
        gate = Gate(plan)

        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while not untraced or time.perf_counter() < deadline or (args.trace and not traced):
            tracing = bool(args.trace) and len(untraced) > len(traced)
            remaining = RUN_LIMIT_S - (time.perf_counter() - started)
            if remaining <= 0:
                break
            sample = run_operation(plan, gate, env, tracing, remaining)
            (traced if tracing else untraced).append(sample)

    samples = untraced + traced
    attempted = len(samples) * len(plan.commands)
    failed = sum(s["failed"] for s in samples)
    if not any("wall_s" in s for s in untraced) or (args.trace and not any("layers" in s for s in traced)):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    unique = len(plan.corpus.unique_words())
    tokens = len(plan.corpus.words)
    print(f"# {args.workload} seed={args.seed} tokens={tokens} unique={unique} "
          f"repeat_share={1 - unique / tokens:.4f} operations={len(samples)} "
          f"stub_requests={[sum(s['stub'].values()) for s in samples]} "
          f"wall_s={[round(s['wall_s'], 3) for s in samples if 'wall_s' in s]}")
    if args.trace:
        values = per_layer(plan, untraced, traced)
    else:
        values = end_to_end(plan, untraced, attempted, failed)
    # Names and units come from BENCHMARK.json; a metric it declares that
    # the run did not measure is an error.
    declared = json.loads(BENCHMARK_PATH.read_text())["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
