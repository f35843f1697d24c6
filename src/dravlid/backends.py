"""Classifier backends: one cache-through path for the LLM, plus the rule baseline.

Every backend answers classify_words(words, config) -> (replies, from_cache):
distinct words in, two columns out, each word's verbatim reply and whether
the cache held it. Words are deduplicated before they get here, by
corpus.Dataset. LiveBackend looks each word up in the response cache and
sends only the misses to its miss handler, which asks the chat endpoint
and persists the reply; it refuses a repeated word, which would cost a
second request. ReplayBackend is that same path over a read-only record
set: a miss is a FixtureMissError, never a request.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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


class Backend(Protocol):
    """Distinct words in; each one's verbatim reply and cache flag out."""

    kind: str

    def classify_words(
        self, words: Sequence[str], config: ExperimentConfig
    ) -> tuple[list[str], list[bool]]: ...


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
    ) -> tuple[list[str], list[bool]]:
        """Each word's reply and whether the cache held it, in input order.

        Each word is rendered and looked up by its request identity (model,
        temperature text, prompt), so a hit needs no key. Hits are answered
        in the calling thread; only misses go to _miss, at most max_workers
        at a time. A repeated word is a ValueError before any lookup.
        """
        if len(set(words)) < len(words):
            raise ValueError("repeated word: classify_words takes distinct words")
        model_id, temperature = config.model_id, temperature_text(config.temperature)
        replies: list[str | None] = []
        misses: list[tuple[int, str, str]] = []
        for word in words:
            prompt = render_prompt(word, config.task)
            reply = self.cache.get(model_id, temperature, prompt)
            if reply is None:
                misses.append((len(replies), word, prompt))
            replies.append(reply)
        hits = [reply is not None for reply in replies]

        if len(misses) > 1 and self.max_workers > 1:
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                answers = list(pool.map(lambda m: self._miss(*m[1:], config), misses))
        else:
            answers = [self._miss(word, prompt, config) for _, word, prompt in misses]
        for (i, _, _), (reply, hit) in zip(misses, answers):
            replies[i], hits[i] = reply, hit
        return replies, hits

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
    ) -> tuple[list[str], list[bool]]:
        """Each word's wire code, in input order; none is from a cache."""
        task = config.task
        lex = self._lexicons if self._lexicons is not None else default_lexicons(task)
        replies = [code_for(classify_baseline(word, task, lex), task) for word in words]
        return replies, [False] * len(replies)
