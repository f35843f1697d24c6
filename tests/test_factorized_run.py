"""A run factorizes its corpus once and works per distinct word from there.

`Dataset.words`, `Dataset.index` and `Dataset.gold_words` are built on
first use; a run sends only the distinct words to its backend, resolves
each distinct reply once, counts the manifest from the index, writes the
predictions file through it and is scored from the (gold, word) pair
counts. Every output must equal what a naive loop over the tokens, one
backend call per token, would give.
"""

import contextlib
import hashlib
import io
import json
import random
import tracemalloc
import zlib

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import replay_of
from dravlid.backends import BaselineBackend, LiveBackend
from dravlid.cache import ResponseCache, make_record
from dravlid.classifiers import LLMClassifier, WordPrediction, resolve_predictions
from dravlid.cli import main
from dravlid.corpus import Dataset, compute_stats, parse_corpus
from dravlid.errors import UnparseableResponseError
from dravlid.metrics import count_pairs, evaluate, report_to_json, reports_to_markdown
from dravlid.prompting import DEFAULT_MODEL_ID, ExperimentConfig, render_prompt, sweep_configs
from dravlid.runner import (
    evaluate_run,
    read_predictions_jsonl,
    run_experiment,
    write_predictions,
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
        return replay_of(
            make_record(config.model_id, config.temperature, render_prompt(w, config.task),
                        reply_for(w))
            for w in dict.fromkeys(words)
        )
    return LiveBackend(ResponseCache(None), EchoTransport(), max_workers=2)


def reference_prediction(word, config, backend, policy):
    """The prediction for one word from a backend call of its own."""
    (reply,), (hit,) = backend.classify_words([word], config)
    category, code, ok = resolve_predictions([word], [reply], config.task, policy)[reply]
    return WordPrediction(word, reply, category, code, hit, not ok)


def reference_run(ds, config, backend, policy):
    """Predictions file bytes, categories and manifest counts from one
    backend call per token, in token order."""
    lines, categories = [], []
    hits = unparseable = 0
    for word in ds.surfaces():
        p = reference_prediction(word, config, backend, policy)
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
    assert (result.token_count, result.cache_hits, result.unparseable_count) == (
        len(ds), hits, unparseable,
    )
    if kind == "live":
        assert backend.transport.requests == len(set(ds.surfaces()))

    words, read_categories = read_predictions_jsonl(path, task)
    assert words == ds.surfaces()
    if None in ds.golds:
        for predictions in (read_categories, result):
            with pytest.raises(ValueError, match="gold label"):
                evaluate_run(ds, predictions)
        return
    for macro in ("support", "fixed"):
        reference = evaluate(
            count_pairs(list(ds.golds), categories), run_label="r", macro_convention=macro
        )
        # From the file's per-token categories, and from the run's (gold,
        # word) pair counts: equal float for float.
        assert evaluate_run(ds, read_categories, "r", macro) == reference
        assert evaluate_run(ds, result, "r", macro) == reference
        assert report_to_json(evaluate_run(ds, result, "r", macro)) == report_to_json(reference)


@given(
    words=st.lists(_WORD, min_size=1, max_size=6, unique=True).flatmap(
        lambda vocabulary: st.lists(st.sampled_from(vocabulary), max_size=20)
    ),
    task=st.sampled_from(list(TaskLanguage)),
    kind=st.sampled_from(["baseline", "replay", "live"]),
    policy=st.sampled_from(["map_to_other", "strict"]),
)
def test_predict_detailed_matches_a_per_token_reference(words, task, kind, policy):
    """Words with repeats: predict_detailed asks for each distinct word once
    and gives what one classify_words call per token gives, a repeat of a
    live miss reading as a cache hit."""
    config = ExperimentConfig(task=task, temperature=0.7)
    backend = make_backend(kind, words, config)
    reference_backend = make_backend(kind, words, config)
    clf = LLMClassifier(task=task, backend=backend, temperature=0.7, failure_policy=policy)

    try:
        expected = [reference_prediction(w, config, reference_backend, policy) for w in words]
    except UnparseableResponseError as exc:
        # Strict names the first unparseable word in input order.
        with pytest.raises(UnparseableResponseError) as excinfo:
            clf.predict_detailed(words)
        assert str(excinfo.value) == str(exc)
        return
    assert clf.predict_detailed(words) == expected
    if kind == "live":
        assert backend.transport.requests == len(set(words))


@given(
    words=st.lists(_WORD, min_size=1, max_size=6, unique=True).flatmap(
        lambda vocabulary: st.lists(st.sampled_from(vocabulary), min_size=1, max_size=20)
    ),
    task=st.sampled_from(list(TaskLanguage)),
    kind=st.sampled_from(["baseline", "replay", "live"]),
)
def test_predict_detailed_is_the_run_the_cli_writes(words, task, kind):
    """Words with repeats: predict_detailed flags as many tokens from_cache
    as run_experiment counts cache hits, and its codes are the category
    codes that write_predictions writes for that run."""
    config = ExperimentConfig(task=task, temperature=0.7)
    clf = LLMClassifier(task=task, backend=make_backend(kind, words, config), temperature=0.7)
    detailed = clf.predict_detailed(words)
    ds = Dataset(task, words, [None] * len(words))
    run = run_experiment(ds, config, make_backend(kind, words, config))
    out = io.BytesIO()
    write_predictions(run, out)

    assert sum(p.from_cache for p in detailed) == run.cache_hits
    assert [p.category_code for p in detailed] == [
        json.loads(line)["category_code"] for line in io.BytesIO(out.getvalue())
    ]


def reply_at(word: str, temperature: float) -> str:
    digest = hashlib.blake2b(f"{word}\0{temperature}".encode("utf-8"), digest_size=2).digest()
    return REPLIES[int.from_bytes(digest, "big") % len(REPLIES)]


SWEEP_TEMPERATURES = (0.7, 0.9)


@given(
    corpus=corpora(),
    policy=st.sampled_from(["map_to_other", "strict"]),
    macro=st.sampled_from(["support", "fixed"]),
)
@example(  # "ba" has two gold labels, and its replies at 0.7 and 0.9 ("sym",
    # "???") give categories no gold label has
    corpus=(KN, "ba\ten\na\tkn\nba\tkn\n"), policy="map_to_other", macro="support"
)
def test_sweep_matches_a_per_token_reference(corpus, policy, macro, tmp_path_factory):
    """`sweep` through main: predictions files, manifest counts, report files
    and stdout equal one resolve_predictions call per token and a report
    from per-token (gold, pred) pair counts."""
    task, text = corpus
    work = tmp_path_factory.mktemp("sweep")
    corpus_path, cache, runs = work / "corpus.tsv", work / "cache.jsonl", work / "runs"
    corpus_path.write_text(text, encoding="utf-8")
    ds = parse_corpus(text, task)
    configs = sweep_configs(task, DEFAULT_MODEL_ID, SWEEP_TEMPERATURES)
    cache.write_text("".join(
        make_record(c.model_id, c.temperature, render_prompt(w, task),
                    reply_at(w, c.temperature)).to_json_line() + "\n"
        for c in configs for w in ds.words
    ), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["sweep", str(corpus_path), "--task", task.value, "--backend", "replay",
                     "--cache", str(cache), "--policy", policy, "--macro", macro,
                     "--temperatures", ",".join(map(str, SWEEP_TEMPERATURES)),
                     "--out-dir", str(runs)])

    reports = []
    for config in configs:
        lines, categories = [], []
        try:
            for word in ds.surfaces():
                reply = reply_at(word, config.temperature)
                category, wire_code, ok = resolve_predictions(
                    [word], [reply], task, policy
                )[reply]
                lines.append(json.dumps(
                    {"word": word, "raw_response": reply, "category_code": wire_code},
                    ensure_ascii=False, sort_keys=True) + "\n")
                categories.append((category, not ok))
        except UnparseableResponseError as exc:
            # Strict stops the sweep at the first unparseable token in corpus order.
            assert (code, stderr.getvalue()) == (2, f"dravlid: data error: {exc}\n")
            assert not (runs / f"{config.run_label}.predictions.jsonl").exists()
            return
        label = config.run_label
        assert (runs / f"{label}.predictions.jsonl").read_bytes() == "".join(lines).encode()
        manifest = json.loads((runs / f"{label}.manifest.json").read_text(encoding="utf-8"))
        assert (manifest["token_count"], manifest["cache_hits"], manifest["unparseable_count"]) \
            == (len(ds), len(ds), sum(flag for _, flag in categories))
        if None not in ds.golds:
            report = evaluate(count_pairs(list(ds.golds), [c for c, _ in categories]),
                              run_label=label, macro_convention=macro)
            assert (runs / f"{label}.report.json").read_text(encoding="utf-8") \
                == report_to_json(report)
            reports.append(report)
    assert code == 0 and stderr.getvalue() == ""
    assert stdout.getvalue() == (
        reports_to_markdown(reports) if reports
        else f"ran {len(configs)} unlabeled sweep runs over {len(ds)} tokens\n"
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
        assert list(result.words) == ["a", "b", "c"]


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
