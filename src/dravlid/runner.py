"""Experiment orchestration: run a backend over a corpus, evaluate, record.

A run produces one prediction per token in dataset order plus a manifest
(timings, cache hits, unparseable count) that makes reruns auditable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from dravlid.backends import Backend
from dravlid.cache import utc_now_rfc3339
from dravlid.classifiers import WordPrediction, check_policy, resolve_predictions
from dravlid.corpus import Dataset
from dravlid.errors import CorpusParseError, UnknownLabelCodeError
from dravlid.metrics import MetricReport, evaluate
from dravlid.prompting import ExperimentConfig
from dravlid.taxonomy import Category, TaskLanguage, parse_gold_label

# Sorted keys, json.dumps's default separators; each %s takes an encoded string.
_LINE_TEMPLATE = '{"category_code": %s, "raw_response": %s, "word": %s}\n'
# The C string encoder behind json.dumps(ensure_ascii=False).
_encode_string = json.encoder.encode_basestring
# json.loads minus its whitespace skipping, for an already stripped line.
_raw_decode = json.JSONDecoder().raw_decode


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
            "message_format": "single-user",
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


def write_predictions_jsonl(
    word_predictions: Sequence[WordPrediction], path: str | Path
) -> None:
    """Persist predictions as JSONL of {word, raw_response, category_code}."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(predictions_to_jsonl(word_predictions))


def predictions_to_jsonl(word_predictions: Sequence[WordPrediction]) -> str:
    """One JSON line per prediction; each distinct line is encoded once.

    The bytes equal `json.dumps(..., ensure_ascii=False, sort_keys=True)` of
    the three-key object: the keys are filled into a fixed sorted template
    with the string encoder `json.dumps` itself uses.
    """
    encoded: dict[tuple[str, str, str], str] = {}
    lines = []
    for p in word_predictions:
        key = (p.word, p.raw_response, p.category_code)
        line = encoded.get(key)
        if line is None:
            line = encoded[key] = _LINE_TEMPLATE % (
                _encode_string(p.category_code),
                _encode_string(p.raw_response),
                _encode_string(p.word),
            )
        lines.append(line)
    return "".join(lines)


def read_predictions_jsonl(
    path: str | Path, task: TaskLanguage
) -> tuple[list[str], list[Category]]:
    """Load a predictions file as two columns: words and their categories.

    Blank lines are skipped. Each distinct line is decoded once, and a bad
    line is a CorpusParseError naming its first occurrence.
    """
    decoded: dict[str, tuple[str, Category] | None] = {}
    words: list[str] = []
    categories: list[Category] = []
    with Path(path).open(encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            fields = decoded.get(line)
            if fields is None:
                fields = decoded[line] = _decode_prediction_line(line, line_number, task)
                if fields is None:
                    continue
            words.append(fields[0])
            categories.append(fields[1])
    return words, categories


def _decode_prediction_line(
    line: str, line_number: int, task: TaskLanguage
) -> tuple[str, Category] | None:
    """(word, category) of one predictions line; None if blank."""
    line = line.strip()
    if not line:
        return None
    try:
        data, end = _raw_decode(line)
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        word, code = data["word"], data["category_code"]
        if not isinstance(word, str):
            raise TypeError(f"word must be a string, got {word!r}")
        if not isinstance(code, str):
            raise TypeError(f"category_code must be a string, got {code!r}")
        return word, parse_gold_label(code, task)
    except (json.JSONDecodeError, KeyError, TypeError, UnknownLabelCodeError) as exc:
        raise CorpusParseError(
            f"bad predictions line: {exc}", line_number=line_number
        ) from None
