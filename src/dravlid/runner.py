"""Experiment orchestration: run a backend over a corpus, evaluate, record.

A run, of the CLI or of an estimator, predicts once per distinct word and puts
the predictions in token order through the dataset's index. It is one record:
its config and provenance, columns over the distinct words, and the token
counts (cache hits, unparseable) that its manifest renders to make reruns
auditable. A run holds no object per word: it is written from one encoded
line per distinct word and scored from the dataset's (gold, word) pair counts.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import BinaryIO, Sequence

from dravlid.backends import Backend, LiveBackend
from dravlid.cache import replacing, utc_now_rfc3339
from dravlid.classifiers import check_policy, resolve_predictions
from dravlid.corpus import SKIP, Dataset, naming_bad_bytes, read_lines
from dravlid.errors import CorpusParseError, UnknownLabelCodeError
from dravlid.metrics import MetricReport, count_pairs, count_pairs_by_word, evaluate
from dravlid.prompting import ExperimentConfig
from dravlid.taxonomy import Category, NormalizationOutcome, TaskLanguage, parse_gold_label

# Sorted keys, json.dumps's default separators; each %s takes an encoded
# string. A line is the head of its reply, then its word and the tail.
_LINE_HEAD = '{"category_code": %s, "raw_response": %s, "word": '
_LINE_TAIL = "}\n"
# The C string encoder behind json.dumps(ensure_ascii=False).
_encode = json.encoder.encode_basestring
# Tokens per write of the predictions file: about 150 kB, as fast as more.
_CHUNK_TOKENS = 2048
# json.loads minus its whitespace skipping, for an already stripped line.
_raw_decode = json.JSONDecoder().raw_decode


@dataclass(frozen=True)
class RunResult:
    """One run over a dataset: how it was made, a reply and a cache flag per
    `ds.words` entry, the reply table, `ds.index` and the token counts."""

    config: ExperimentConfig
    corpus_path: str
    backend_kind: str
    failure_policy: str
    started_at: str
    finished_at: str
    words: Sequence[str]
    replies: list[str]
    hits: list[bool]
    repeats_hit: bool
    table: dict[str, NormalizationOutcome]
    index: array
    cache_hits: int
    unparseable_count: int

    @property
    def token_count(self) -> int:
        return len(self.index)

    @cached_property
    def categories(self) -> list[Category]:
        """The category of each distinct word."""
        return [self.table[reply].category for reply in self.replies]

    @property
    def predictions(self) -> tuple[Category, ...]:
        """Categories in token order."""
        return tuple(map(self.categories.__getitem__, self.index))

    def manifest_json(self) -> str:
        """The manifest file's text: the request, the provenance, both
        timestamps and the token counts, as sorted, indented JSON."""
        config = self.config
        return json.dumps({
            "run_label": config.run_label, "task": config.task.value,
            "model_id": config.model_id, "temperature": config.temperature,
            "max_output_tokens": config.max_output_tokens, "message_format": "single-user",
            "corpus_path": self.corpus_path, "backend_kind": self.backend_kind,
            "failure_policy": self.failure_policy,
            "started_at": self.started_at, "finished_at": self.finished_at,
            "token_count": self.token_count, "cache_hits": self.cache_hits,
            "unparseable_count": self.unparseable_count,
        }, sort_keys=True, indent=2) + "\n"


def run_experiment(
    ds: Dataset,
    config: ExperimentConfig,
    backend: Backend,
    failure_policy: str = "map_to_other",
) -> RunResult:
    """Classify each distinct word once, in first-occurrence order, so that
    strict still names the first unparseable token. A repeat is a cache hit
    where a LiveBackend's cache would have answered it (`repeats_hit`)."""
    if len(ds) == 0:
        raise ValueError("cannot run an experiment over an empty dataset")
    if config.task is not ds.task:
        raise ValueError(f"a {config.task.value} config cannot run over a {ds.task.value} corpus")
    check_policy(failure_policy)

    started_at = utc_now_rfc3339()
    replies, hits = backend.classify_words(ds.words, config)
    table = resolve_predictions(ds.words, replies, config.task, failure_policy)
    finished_at = utc_now_rfc3339()

    unparseable = [not table[reply].ok for reply in replies]
    repeats_hit = isinstance(backend, LiveBackend)
    return RunResult(
        config=config, corpus_path=ds.source_path, backend_kind=backend.kind,
        failure_policy=failure_policy, started_at=started_at, finished_at=finished_at,
        words=ds.words, replies=replies, hits=hits, repeats_hit=repeats_hit,
        table=table, index=ds.index,
        cache_hits=len(ds) - hits.count(False) if repeats_hit else _tokens_flagged(hits, ds),
        unparseable_count=_tokens_flagged(unparseable, ds),
    )


def _tokens_flagged(flags: list[bool], ds: Dataset) -> int:
    """How many tokens of ds have a word whose flag is set."""
    return sum(compress(ds.word_counts, flags)) if any(flags) else 0


def evaluate_run(
    ds: Dataset,
    predictions: RunResult | Sequence[Category],
    run_label: str = "",
    macro_convention: str = "support",
) -> MetricReport:
    """Score a run of this dataset, or categories in token order, against the
    dataset's gold labels.

    A run is scored from the dataset's (gold, word id) pair counts through
    its one category per distinct word; categories in token order from
    their own (gold, pred) pair counts.
    """
    if isinstance(predictions, RunResult):
        if predictions.index is not ds.index:
            raise ValueError("the run is not of this dataset")
        pairs = count_pairs_by_word(ds.gold_words, predictions.categories)
    else:
        gold = ds.gold_categories()
        if len(predictions) != len(gold):
            raise ValueError(
                f"{len(predictions)} predictions for {len(gold)} gold tokens"
            )
        pairs = count_pairs(gold, predictions)
    return evaluate(pairs, run_label=run_label, macro_convention=macro_convention)


def write_predictions_jsonl(result: RunResult, path: str | Path) -> None:
    """Persist a run's predictions as JSONL of {word, raw_response, category_code}."""
    with replacing(path) as out:
        write_predictions(result, out)


def write_predictions(result: RunResult, out: BinaryIO) -> None:
    """Write one UTF-8 JSON line per token of a run, its word's entry.

    Each distinct reply's head and each entry's line are encoded once, and
    the file goes out in chunks, never whole. The bytes equal
    `json.dumps(..., ensure_ascii=False, sort_keys=True)` of the three-key
    object: the keys are filled into a fixed sorted template with the
    string encoder `json.dumps` itself uses.
    """
    heads = {
        reply: _LINE_HEAD % (_encode(row.code), _encode(reply))
        for reply, row in result.table.items()
    }
    lines = [
        (head + _encode(word) + _LINE_TAIL).encode("utf-8")
        for head, word in zip(map(heads.__getitem__, result.replies), result.words)
    ]
    index = result.index
    for start in range(0, len(index), _CHUNK_TOKENS):
        out.write(b"".join(map(lines.__getitem__, index[start:start + _CHUNK_TOKENS])))


def read_predictions_jsonl(
    path: str | Path, task: TaskLanguage
) -> tuple[list[str], list[Category]]:
    """Load a predictions file as two columns: words and their categories.

    A leading BOM is dropped and blank lines are skipped; lines end at '\\n'
    only. A bad line, or a byte that is not UTF-8, is a CorpusParseError
    naming its first line.
    """
    with naming_bad_bytes(path), Path(path).open(
        encoding="utf-8-sig", newline="\n"
    ) as fh:
        words, categories, _ = read_lines(
            fh, lambda line, line_number: _decode_prediction_line(line, line_number, task)
        )
    return words, categories


def _decode_prediction_line(
    line: str, line_number: int, task: TaskLanguage
) -> tuple[str, Category] | str:
    """(word, category) of one predictions line; SKIP if blank."""
    line = line.strip()
    if not line:
        return SKIP
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
    # ValueError: not JSON, or an integer past the digit limit.
    except (ValueError, RecursionError, KeyError, TypeError, UnknownLabelCodeError) as exc:
        raise CorpusParseError(
            f"bad predictions line: {exc}", line_number=line_number
        ) from None
