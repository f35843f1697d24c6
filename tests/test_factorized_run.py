"""A run factorizes its corpus once and works per distinct word from there.

`Dataset.words` and `Dataset.index` are built on first use; a run sends
only the distinct words to its backend, resolves each reply once, counts
the manifest from the index and writes the predictions file through it.
Every output must equal what a naive loop over the tokens, one backend
call per token, would give.
"""

import json
import random
import tracemalloc
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dravlid.backends import BaselineBackend, LiveBackend, ReplayBackend
from dravlid.cache import ResponseCache, make_record
from dravlid.classifiers import resolve_predictions
from dravlid.corpus import Dataset, compute_stats, parse_corpus
from dravlid.errors import UnparseableResponseError
from dravlid.metrics import evaluate, report_to_json
from dravlid.prompting import ExperimentConfig, render_prompt
from dravlid.runner import (
    evaluate_run,
    read_predictions_jsonl,
    run_experiment,
    write_predictions_jsonl,
)
from dravlid.taxonomy import Category, TaskLanguage, valid_codes

KN = TaskLanguage.KANNADA

# Parseable and unparseable replies; which one a word gets depends on the word.
REPLIES = ["en", "kn", "Kannada.", "???", "mixed", "The word is a Name", "sym", "no idea"]


def reply_for(word: str) -> str:
    return REPLIES[zlib.crc32(word.encode("utf-8")) % len(REPLIES)]


class EchoTransport:
    """An in-memory endpoint: answers each prompt with reply_for its word."""

    def __init__(self):
        self.requests = 0

    def complete(self, request):
        self.requests += 1
        return reply_for(request.user_message.rsplit("The word is ", 1)[1][:-1])


def make_backend(kind, words, config):
    if kind == "baseline":
        return BaselineBackend()
    if kind == "replay":
        return ReplayBackend(
            make_record(config.model_id, config.temperature, render_prompt(w, config.task),
                        reply_for(w))
            for w in dict.fromkeys(words)
        )
    return LiveBackend(ResponseCache(None), EchoTransport(), max_workers=2)


def reference_run(ds, config, backend, policy):
    """Predictions file bytes, categories and manifest counts from one
    backend call per token, in token order."""
    lines, categories = [], []
    hits = unparseable = 0
    for word in ds.surfaces():
        (raw,) = backend.classify_words([word], config)
        (p,) = resolve_predictions([raw], config.task, policy)
        lines.append(json.dumps(
            {"word": p.word, "raw_response": p.raw_response, "category_code": p.category_code},
            ensure_ascii=False, sort_keys=True,
        ) + "\n")
        categories.append(p.category)
        hits += p.from_cache
        unparseable += p.unparseable
    return "".join(lines).encode("utf-8"), categories, hits, unparseable


_WORD = st.text(alphabet="ab ಮನೆ\"\\é", min_size=1, max_size=4).filter(
    lambda w: w.strip() and not w.startswith("#")
)


@st.composite
def corpora(draw):
    """(task, corpus text): repeated words, runs of blank lines, comments and
    unlabeled tokens, with at least one token."""
    task = draw(st.sampled_from(list(TaskLanguage)))
    words = draw(st.lists(_WORD, min_size=1, max_size=6, unique=True))
    labeled_only = draw(st.booleans())
    token = st.tuples(
        st.sampled_from(words),
        st.sampled_from(valid_codes(task) if labeled_only else [*valid_codes(task), None]),
    ).map(lambda t: t[0] if t[1] is None else f"{t[0]}\t{t[1]}")
    other = st.sampled_from(["", "", " \t", "# note"])
    lines = draw(st.lists(st.one_of(token, token, other), max_size=40))
    first = draw(token)
    return task, "\n".join([*lines, first]) + "\n"


@given(
    corpus=corpora(),
    kind=st.sampled_from(["baseline", "replay", "live"]),
    policy=st.sampled_from(["map_to_other", "strict"]),
)
def test_run_write_and_evaluate_match_a_per_token_reference(
    corpus, kind, policy, tmp_path_factory
):
    task, text = corpus
    ds = parse_corpus(text, task)
    config = ExperimentConfig(task=task, temperature=0.7)
    backend = make_backend(kind, ds.surfaces(), config)
    reference_backend = make_backend(kind, ds.surfaces(), config)

    try:
        expected = reference_run(ds, config, reference_backend, policy)
    except UnparseableResponseError as exc:
        # Strict names the first unparseable token in corpus order.
        with pytest.raises(UnparseableResponseError) as excinfo:
            run_experiment(ds, config, backend, failure_policy=policy)
        assert str(excinfo.value) == str(exc)
        return
    result = run_experiment(ds, config, backend, failure_policy=policy)
    predictions_bytes, categories, hits, unparseable = expected

    path = tmp_path_factory.mktemp("run") / "predictions.jsonl"
    write_predictions_jsonl(result, path)
    assert path.read_bytes() == predictions_bytes
    assert list(result.predictions) == categories
    manifest = result.manifest
    assert (manifest.token_count, manifest.cache_hits, manifest.unparseable_count) == (
        len(ds), hits, unparseable,
    )
    if kind == "live":
        assert backend.transport.requests == len(set(ds.surfaces()))

    words, read_categories = read_predictions_jsonl(path, task)
    assert words == ds.surfaces()
    if None in ds.golds:
        with pytest.raises(ValueError, match="gold label"):
            evaluate_run(ds, read_categories)
    else:
        assert report_to_json(evaluate_run(ds, read_categories, run_label="r")) == (
            report_to_json(evaluate(list(ds.golds), categories, run_label="r"))
        )


class TestFactorization:
    def test_distinct_words_in_first_occurrence_order(self):
        ds = parse_corpus("b\ten\na\n\nb\tkn\n# c\nc\ten\na\ten\n", KN)
        assert ds.words == ("b", "a", "c")
        assert list(ds.index) == [0, 1, 0, 2, 1]
        assert ds.index.typecode == "I"

    def test_built_once_and_only_for_a_run(self):
        ds = parse_corpus("a\ten\nb\tkn\na\ten\n", KN)
        compute_stats(ds)
        evaluate_run(ds, [Category.ENGLISH] * 3)
        assert "words" not in vars(ds) and "index" not in vars(ds)

        first, second = (
            run_experiment(ds, ExperimentConfig(task=KN, temperature=t), BaselineBackend())
            for t in (0.7, 0.9)
        )
        assert first.index is second.index is ds.index

    def test_backend_sees_each_distinct_word_once(self):
        class Recording(BaselineBackend):
            def classify_words(self, words, config):
                self.asked = list(words)
                return super().classify_words(words, config)

        ds = parse_corpus("a\ten\nb\tkn\na\ten\n\nb\tkn\nc\ten\n", KN)
        backend = Recording()
        result = run_experiment(ds, ExperimentConfig(task=KN), backend)
        assert backend.asked == ["a", "b", "c"]
        assert [p.word for p in result.distinct] == ["a", "b", "c"]


def test_writing_a_large_run_peaks_below_a_third_of_the_file(tmp_path):
    rng = random.Random(13)
    stems = ["mane", "hello", "ಮನೆ", "ಬೆಂಗಳೂರು", "illi", "bookalli", "nanu", "ಹೋಗು"]
    vocabulary = [f"{rng.choice(stems)}{i}" for i in range(32_000)]
    # Half the tokens from a Zipf-like head, half uniform: about 16% distinct.
    surfaces = [
        vocabulary[min(int(rng.paretovariate(0.6)) - 1, len(vocabulary) - 1)]
        if rng.random() < 0.5 else rng.choice(vocabulary)
        for _ in range(200_000)
    ]
    ds = Dataset(KN, surfaces, [None] * len(surfaces))
    assert 0.14 < len(ds.words) / len(ds) < 0.18
    result = run_experiment(ds, ExperimentConfig(task=KN), BaselineBackend())

    path = tmp_path / "predictions.jsonl"
    tracemalloc.start()
    try:
        write_predictions_jsonl(result, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 3
    assert read_predictions_jsonl(path, KN)[0] == surfaces
