"""Classifier backends: one cache-through path for the LLM, plus the rule baseline.

Every backend answers classify_words(words, config) -> (replies, from_cache):
distinct words in, two columns out, each word's verbatim reply and whether
the cache held it. Words are deduplicated before they get here, by
corpus.Dataset. LiveBackend looks each word up in the response cache and
sends only the misses to its miss handler, which asks the chat endpoint
and persists the reply; it refuses a repeated word, which would cost a
second request.

The misses are answered by max_workers workers, and the calling thread is
one of them, so a single worker starts no thread. Each worker takes the
next miss, in input order, from one hand-out guarded by a lock, and writes
its answer into that miss's slot, so results stay in input order. The
first failure stops the hand-out: the misses already taken still finish
and are cached, and the error raised is that of the failed miss that comes
first in input order. An interrupt (Ctrl-C) in the calling thread stops
the hand-out and leaves at once, without waiting for the other workers:
they are daemon threads, each finishing at most the miss it holds, and a
process that exits takes them with it, unanswered and uncached.

ReplayBackend(cache) is the same lookup path with no transport:
it reads the cache file through the same index as a live rerun, so the
first record for a request wins and a checkpoint is used (and may be
written, as PATH.index), and a miss is a FixtureMissError, never a request
and never an append.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from pathlib import Path
from typing import Protocol, Sequence

from dravlid.baseline import LexiconSet, classify_baseline, default_lexicons
from dravlid.cache import (
    CacheRecord,
    ResponseCache,
    cache_key,
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
        if misses:
            self._answer_misses(misses, config, replies, hits)
        return replies, hits

    def _answer_misses(
        self,
        misses: list[tuple[int, str, str]],
        config: ExperimentConfig,
        replies: list,
        hits: list[bool],
    ) -> None:
        """Answer each (position, word, prompt) miss through _miss into
        replies and hits at its position, on max_workers workers, the
        calling thread among them (see the module docstring)."""
        lock = threading.Lock()
        handout = iter(misses)
        failed: list[tuple[int, Exception]] = []

        def work() -> None:
            nonlocal handout
            while True:
                with lock:
                    miss = next(handout, None)
                if miss is None:
                    return
                i, word, prompt = miss
                try:
                    replies[i], hits[i] = self._miss(word, prompt, config)
                except Exception as exc:
                    with lock:
                        handout = iter(())
                    failed.append((i, exc))
                    return

        workers = [threading.Thread(target=work, name="dravlid-miss", daemon=True)
                   for _ in range(min(self.max_workers, len(misses)) - 1)]
        try:
            for worker in workers:
                worker.start()
            work()
            for worker in workers:
                worker.join()
        except BaseException:  # an interrupt: stop the hand-out, wait for no worker
            with lock:
                handout = iter(())
            raise
        if failed:
            raise min(failed, key=itemgetter(0))[1]

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
    """LiveBackend over a response cache, with no transport; misses are errors."""

    kind = "replay"

    def __init__(self, cache: ResponseCache):
        super().__init__(cache, transport=None, max_workers=1)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ReplayBackend":
        """Replay the cache file at path, which must exist: a ResponseCache
        would take a missing file for an empty one."""
        Path(path).stat()  # FileNotFoundError naming path
        return cls(ResponseCache(path))

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
