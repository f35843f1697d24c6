"""Classifier backends: one cache-through path for the LLM, plus the rule baseline.

Every backend answers classify_words(words, config) -> list[RawPrediction].
LiveBackend looks each distinct word up in the response cache and sends
only the misses to its miss handler, which asks the chat endpoint and
persists the reply. ReplayBackend is that same path over a read-only
record set: a miss is a FixtureMissError, never a request.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

from dravlid.baseline import LexiconSet, classify_baseline, default_lexicons
from dravlid.cache import (
    CacheRecord,
    ResponseCache,
    cache_key,
    load_cache_records,
    temperature_text,
    utc_now_rfc3339,
)
from dravlid.errors import FixtureMissError
from dravlid.prompting import ExperimentConfig, render_prompt
from dravlid.taxonomy import code_for
from dravlid.transport import ChatRequest, ChatTransport

DEFAULT_MAX_WORKERS = 4


@dataclass(frozen=True)
class RawPrediction:
    """The verbatim first-choice reply for one word under one config."""

    word: str
    raw_response: str
    from_cache: bool


class Backend(Protocol):
    kind: str

    def classify_words(
        self, words: Sequence[str], config: ExperimentConfig
    ) -> list[RawPrediction]: ...


def check_max_workers(max_workers: int) -> int:
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    return max_workers


class LiveBackend:
    """Cache-through client for an OpenAI-compatible endpoint."""

    kind = "live"

    def __init__(
        self,
        cache: ResponseCache,
        transport: ChatTransport,
        max_workers: int = DEFAULT_MAX_WORKERS,
    ):
        self.cache = cache
        self.transport = transport
        self.max_workers = check_max_workers(max_workers)

    def classify_words(
        self, words: Sequence[str], config: ExperimentConfig
    ) -> list[RawPrediction]:
        """Classify a batch; results come back in input order.

        Each distinct word is rendered and looked up once, by its request
        identity (model, temperature text, prompt), so a hit needs no key.
        Cache hits are answered in the calling thread; only misses go to
        _miss, at most max_workers at a time. Later occurrences of a word
        count as cache hits.
        """
        answers: dict[str, RawPrediction] = {}
        misses: list[tuple[str, str]] = []
        model_id, temperature = config.model_id, temperature_text(config.temperature)
        for word in dict.fromkeys(words):
            prompt = render_prompt(word, config.task)
            reply = self.cache.get(model_id, temperature, prompt)
            if reply is None:
                misses.append((word, prompt))
            else:
                answers[word] = RawPrediction(word, reply, True)

        if len(misses) > 1 and self.max_workers > 1:
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                replies = list(pool.map(lambda m: self._miss(*m, config), misses))
        else:
            replies = [self._miss(word, prompt, config) for word, prompt in misses]
        for (word, _), reply in zip(misses, replies):
            answers[word] = RawPrediction(word, *reply)

        results = []
        for word in words:
            prediction = answers[word]
            if not prediction.from_cache:
                answers[word] = RawPrediction(word, prediction.raw_response, True)
            results.append(prediction)
        return results

    def _miss(self, word: str, prompt: str, config: ExperimentConfig) -> tuple[str, bool]:
        """Answer one uncached prompt: (raw_response, from_cache)."""
        # Keyed before the request, so that a request no record could hold
        # (a lone surrogate in the model id) is never sent: the CLI refuses
        # such a --model up front, but a library caller may pass one. Keyed
        # through this module's cache_key, where the benchmark's tracer
        # counts the keys.
        key = cache_key(config.model_id, config.temperature, prompt)
        raw = self.transport.complete(
            ChatRequest(
                model_id=config.model_id,
                temperature=config.temperature,
                max_output_tokens=config.max_output_tokens,
                user_message=prompt,
            )
        )
        reply, inserted = self.cache.put_if_absent(CacheRecord(
            key, config.model_id, config.temperature, prompt, raw, utc_now_rfc3339()
        ))
        return reply, not inserted


class ReplayBackend(LiveBackend):
    """LiveBackend over a fixed in-memory record set; misses are errors."""

    kind = "replay"

    def __init__(self, records: Iterable[CacheRecord]):
        super().__init__(ResponseCache(None), transport=None, max_workers=1)
        for record in records:
            if not self.cache.put_if_absent(record)[1]:
                raise ValueError(
                    f"duplicate cache key in replay fixture: {record.cache_key}"
                )

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ReplayBackend":
        return cls(load_cache_records(path))

    def _miss(self, word: str, prompt: str, config: ExperimentConfig) -> tuple[str, bool]:
        raise FixtureMissError(
            f"no recorded response for word {word!r} "
            f"(model {config.model_id}, temperature {config.temperature})"
        )


class BaselineBackend:
    """Rule classifier exposed through the backend interface.

    The raw response is the predicted wire code, so downstream
    normalization is exact and the whole path stays offline.
    """

    kind = "baseline"

    def __init__(self, lexicons: LexiconSet | None = None):
        self._lexicons = lexicons

    def classify_words(
        self, words: Sequence[str], config: ExperimentConfig
    ) -> list[RawPrediction]:
        """Classify each distinct word once; results come back in input order."""
        task = config.task
        lex = self._lexicons if self._lexicons is not None else default_lexicons(task)
        predictions = {
            word: RawPrediction(word, code_for(classify_baseline(word, task, lex), task), False)
            for word in dict.fromkeys(words)
        }
        return list(map(predictions.__getitem__, words))
