"""Experiment orchestration: run a backend over a corpus, evaluate, record.

A run produces one prediction per token in dataset order plus a manifest
(timings, cache hits, unparseable count) that makes reruns auditable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from dravlid.backends import Backend
from dravlid.cache import utc_now_rfc3339
from dravlid.classifiers import WordPrediction, check_policy, resolve_predictions
from dravlid.corpus import Dataset
from dravlid.errors import CorpusParseError, UnknownLabelCodeError
from dravlid.metrics import MetricReport, evaluate
from dravlid.prompting import ExperimentConfig
from dravlid.taxonomy import Category, TaskLanguage, parse_gold_label


@dataclass(frozen=True)
class RunManifest:
    """What happened during one run, for reproducibility audits."""

    config: ExperimentConfig
    corpus_path: str
    backend_kind: str
    failure_policy: str
    started_at: str
    finished_at: str
    unparseable_count: int
    cache_hits: int
    token_count: int
    message_format: str = "single-user"

    def to_dict(self) -> dict:
        return {
            "run_label": self.config.run_label,
            "task": self.config.task.value,
            "model_id": self.config.model_id,
            "temperature": self.config.temperature,
            "max_output_tokens": self.config.max_output_tokens,
            "corpus_path": self.corpus_path,
            "backend_kind": self.backend_kind,
            "failure_policy": self.failure_policy,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "unparseable_count": self.unparseable_count,
            "cache_hits": self.cache_hits,
            "token_count": self.token_count,
            "message_format": self.message_format,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class RunResult:
    predictions: tuple[Category, ...]
    manifest: RunManifest
    word_predictions: tuple[WordPrediction, ...]


def run_experiment(
    ds: Dataset,
    config: ExperimentConfig,
    backend: Backend,
    failure_policy: str = "map_to_other",
) -> RunResult:
    """Classify every token and return predictions in dataset order."""
    if len(ds) == 0:
        raise ValueError("cannot run an experiment over an empty dataset")
    check_policy(failure_policy)

    started_at = utc_now_rfc3339()
    raws = backend.classify_words(ds.surfaces(), config)
    word_predictions = resolve_predictions(raws, config.task, failure_policy)
    finished_at = utc_now_rfc3339()

    manifest = RunManifest(
        config=config,
        corpus_path=ds.source_path,
        backend_kind=backend.kind,
        failure_policy=failure_policy,
        started_at=started_at,
        finished_at=finished_at,
        unparseable_count=sum(1 for p in word_predictions if p.unparseable),
        cache_hits=sum(1 for p in word_predictions if p.from_cache),
        token_count=len(ds),
    )
    return RunResult(
        predictions=tuple(p.category for p in word_predictions),
        manifest=manifest,
        word_predictions=tuple(word_predictions),
    )


def evaluate_run(
    ds: Dataset,
    predictions: Sequence[Category],
    run_label: str = "",
    macro_convention: str = "support",
) -> MetricReport:
    """Score predictions against the dataset's gold labels."""
    gold = ds.gold_categories()
    if len(predictions) != len(gold):
        raise ValueError(
            f"{len(predictions)} predictions for {len(gold)} gold tokens"
        )
    return evaluate(gold, predictions, run_label=run_label, macro_convention=macro_convention)


def run_sweep(
    ds: Dataset,
    configs: Sequence[ExperimentConfig],
    backend: Backend,
    failure_policy: str = "map_to_other",
) -> Iterator[RunResult]:
    """One experiment per config, in the given order, yielded as each ends.

    Lazy so a caller that writes each run out holds one run at a time.
    """
    for config in configs:
        yield run_experiment(ds, config, backend, failure_policy)


def write_predictions_jsonl(
    word_predictions: Sequence[WordPrediction], path: str | Path
) -> None:
    """Persist predictions as JSONL of {word, raw_response, category_code}."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(predictions_to_jsonl(word_predictions))


def predictions_to_jsonl(word_predictions: Sequence[WordPrediction]) -> str:
    lines = [
        json.dumps(
            {
                "word": p.word,
                "raw_response": p.raw_response,
                "category_code": p.category_code,
            },
            ensure_ascii=False,
            sort_keys=True,
        )
        for p in word_predictions
    ]
    return "".join(line + "\n" for line in lines)


def read_predictions_jsonl(path: str | Path, task: TaskLanguage) -> list[dict]:
    """Load a predictions file; each entry gains a resolved "category"."""
    entries = []
    with Path(path).open(encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                word = data["word"]
                category = parse_gold_label(data["category_code"], task)
            except (json.JSONDecodeError, KeyError, TypeError, UnknownLabelCodeError) as exc:
                raise CorpusParseError(
                    f"bad predictions line: {exc}", line_number=line_number
                ) from None
            entries.append(
                {
                    "word": word,
                    "raw_response": data.get("raw_response", ""),
                    "category": category,
                }
            )
    return entries
