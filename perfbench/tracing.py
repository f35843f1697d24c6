"""Spans around dravlid's public calls, recorded from outside the package.

Each function is patched under the name its caller looks up: the cli
module binds the runner functions and parse_corpus, the runner binds
resolve_predictions and evaluate, the backends module binds render_prompt,
cache_key and classify_baseline. Methods are patched on their classes.

Per-word functions are not spanned call by call, which would cost more
than the work: their calls are counted and the arguments of the first
calls kept, and they are timed afterwards in one batch pass over those
arguments, scaled to the number of calls. Spans and recorded calls arrive
from pool threads too, so spans go into a list under a lock; each thread
keeps its own stack of open spans to name a span's parent.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import dataclass

import dravlid.backends
import dravlid.cache
import dravlid.classifiers
import dravlid.cli
import dravlid.runner
import dravlid.transport

# Per-word calls whose arguments are kept for the batch pass; the rest are
# only counted, so that tracing does not hold every argument alive.
SAMPLE_CALLS = 20_000


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    size: tuple[int, ...]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.samples: dict[str, list[tuple]] = {}
        self._counters: dict[str, tuple[itertools.count, itertools.count]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def _patch(self, owner: object, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner: object, attr: str, name: str, size=None) -> None:
        """Wrap owner.attr so each call records a span; size(args, result)
        gives the span's work counts."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = size(args, result) if size else ()
            with self._lock:
                self.spans.append(Span(span_id, parent, name, start, end, counts))
            return result

        self._patch(owner, attr, wrapper)

    def record(self, owner: object, attr: str, name: str, flag=None) -> None:
        """Wrap owner.attr to count its calls, keep the arguments of the first
        SAMPLE_CALLS, and count the results for which flag(result) holds."""
        fn = getattr(owner, attr)
        calls, flagged = itertools.count(), itertools.count()
        sample = self.samples.setdefault(name, [])
        self._counters[name] = (calls, flagged)

        def wrapper(*args):
            if next(calls) < SAMPLE_CALLS:
                sample.append(args)  # list.append is atomic under the GIL
            result = fn(*args)
            if flag is not None and flag(result):
                next(flagged)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        cli, runner, backends = dravlid.cli, dravlid.runner, dravlid.backends
        self.span(cli, "main", "cli.main")
        self.span(cli, "parse_corpus", "corpus.parse", lambda a, r: (len(r),))
        self.span(cli, "ResponseCache", "cache.load", lambda a, r: (len(r),))
        self.span(cli, "run_experiment", "runner.run_experiment")
        self.span(cli, "evaluate_run", "runner.evaluate_run")
        self.span(cli, "write_predictions_jsonl", "runner.write_predictions")
        self.span(cli, "read_predictions_jsonl", "runner.read_predictions")
        self.span(runner, "resolve_predictions", "classifiers.resolve")
        self.span(runner, "evaluate", "metrics.evaluate")
        for cls in (backends.LiveBackend, backends.BaselineBackend):
            self.span(cls, "classify_words", "backends.classify_words",
                      lambda a, r: (len(a[1]), len(set(a[1]))))
        self.span(dravlid.cache.ResponseCache, "put_if_absent", "cache.append",
                  lambda a, r: (int(r[1]),))
        self.span(dravlid.transport.ChatTransport, "complete", "transport.complete")
        self.span(dravlid.transport.TokenBucket, "acquire", "transport.acquire")
        self.record(dravlid.cache.ResponseCache, "get", "cache.get",
                    lambda record: record is not None)
        self.record(backends, "render_prompt", "render_prompt")
        self.record(backends, "cache_key", "cache_key")
        self.record(backends, "classify_baseline", "classify_baseline")
        self.record(dravlid.classifiers, "normalize_response", "normalize_response",
                    lambda outcome: not outcome.ok)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def _total(self, name: str) -> float:
        return sum(s.seconds for s in self._named(name))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers from the spans and a batch pass; call after
        uninstall, so the batch pass runs the unpatched functions."""
        parsed = self._named("corpus.parse")
        loads = self._named("cache.load")
        classify = self._named("backends.classify_words")
        completes = sorted(s.seconds * 1000 for s in self._named("transport.complete"))
        # next() on an itertools.count returns how many times it was advanced.
        counts = {name: (next(c), next(f)) for name, (c, f) in self._counters.items()}
        lookups, hits = counts["cache.get"]

        def batch(name: str, fn) -> float:
            """Time fn over the sampled arguments in one pass, scaled to the
            number of calls the run made."""
            calls, sample = counts[name][0], self.samples[name]
            if not calls:
                return 0.0
            start = time.perf_counter()
            for args in sample:
                fn(*args)
            return (time.perf_counter() - start) * calls / len(sample)

        parse_s = sum(s.seconds for s in parsed)
        load_s = sum(s.seconds for s in loads)
        words_in = sum(s.size[0] for s in classify)
        unique = sum(s.size[1] for s in classify)
        main_ids = {s.id for s in self._named("cli.main")}
        children_s = sum(s.seconds for s in self.spans if s.parent in main_ids)
        return {
            "corpus.parse_s": parse_s,
            "corpus.parse_ktok_s": _rate(sum(s.size[0] for s in parsed), parse_s),
            "prompting.render_s": batch("render_prompt", dravlid.backends.render_prompt),
            "cache.key_s": batch("cache_key", dravlid.backends.cache_key),
            "cache.load_s": load_s,
            "cache.load_krec_s": _rate(sum(s.size[0] for s in loads), load_s),
            "cache.lookups": lookups,
            "cache.hit_ratio": _ratio(hits, lookups),
            "cache.appends": sum(s.size[0] for s in self._named("cache.append")),
            "cache.append_s": self._total("cache.append"),
            "transport.complete_samples": len(completes),
            "transport.complete_p50_ms": _percentile(completes, 0.50),
            "transport.complete_p99_ms": _percentile(completes, 0.99),
            "transport.limiter_wait_s": self._total("transport.acquire"),
            "backends.classify_s": sum(s.seconds for s in classify),
            "backends.words_in": words_in,
            "backends.unique_words": unique,
            "backends.unique_ratio": _ratio(unique, words_in),
            "baseline.classify_s": batch("classify_baseline", dravlid.backends.classify_baseline),
            "classifiers.resolve_s": self._total("classifiers.resolve"),
            "taxonomy.normalize_s": batch(
                "normalize_response", dravlid.classifiers.normalize_response),
            "taxonomy.unparseable": counts["normalize_response"][1],
            "runner.write_predictions_s": self._total("runner.write_predictions"),
            "runner.read_predictions_s": self._total("runner.read_predictions"),
            "metrics.evaluate_s": self._total("metrics.evaluate"),
            "cli.self_s": self._total("cli.main") - children_s,
        }


def _rate(count: int, seconds: float) -> float:
    """Thousands of items per second."""
    return count / seconds / 1000 if seconds > 0 else 0.0


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]
