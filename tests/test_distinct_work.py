"""Per-word stages do their work once per distinct input.

Corpora repeat a small vocabulary, so the corpus parser, the rule
baseline, reply normalization and the predictions JSONL codec each work
once per distinct line, word or reply and fan the result back out in token
order. These tests count that work and check that every per-token output,
count and error is what one call per token would give.
"""

import io
import json
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dravlid.backends
import dravlid.classifiers
import dravlid.corpus
import dravlid.runner
from dravlid.backends import BaselineBackend, LiveBackend
from conftest import replay_of, token_rows
from dravlid.baseline import classify_baseline, default_lexicons
from dravlid.cache import ResponseCache, make_record
from dravlid.classifiers import RuleBasedClassifier, resolve_predictions
from dravlid.corpus import parse_corpus
from dravlid.errors import UnparseableResponseError
from dravlid.prompting import ExperimentConfig, render_prompt
from dravlid.runner import (
    RunResult,
    read_predictions_jsonl,
    run_experiment,
    write_predictions,
)
from dravlid.taxonomy import (
    Category, NormalizationOutcome, TaskLanguage, code_for, parse_gold_label, valid_codes,
)

KN = TaskLanguage.KANNADA
WORDS = ["mane", "hello", "mane", "Bengaluru", "hello", "mane", "123", "illi"]


def counting(monkeypatch, module, name):
    """Replace module.name with a wrapper; returns the list of call arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_baseline_classifies_each_distinct_word_once(monkeypatch):
    calls = counting(monkeypatch, dravlid.backends, "classify_baseline")
    results = RuleBasedClassifier(task=KN).predict_detailed(WORDS)

    assert sorted(args[0] for args in calls) == sorted(set(WORDS))
    lex = default_lexicons(KN)
    assert [(p.word, p.raw_response, p.from_cache) for p in results] == [
        (w, code_for(classify_baseline(w, KN, lex), KN), False) for w in WORDS
    ]


def test_predictions_read_decodes_each_distinct_line_once(monkeypatch, tmp_path):
    line = json.dumps({"category_code": "kn", "raw_response": "kn", "word": "mane"})
    path = tmp_path / "predictions.jsonl"
    path.write_text(f"{line}\n\n{line}\n\n\n", encoding="utf-8")
    calls = counting(monkeypatch, dravlid.runner, "_decode_prediction_line")
    words, categories = read_predictions_jsonl(path, KN)

    # Blank lines included: the repeated blank line is decoded once too.
    assert [args[0] for args in calls] == [f"{line}\n", "\n"]
    assert words == ["mane", "mane"]
    assert categories == [Category.DRAVIDIAN, Category.DRAVIDIAN]


def test_parse_maps_each_distinct_labelled_line_once(monkeypatch):
    lines = ["mane\tkn", "hello\ten", "", "mane\tkn", "# note", "mane", "mane\ten",
             "hello\ten", "", "mane\tkn"]
    calls = counting(monkeypatch, dravlid.corpus, "parse_gold_label")
    ds = parse_corpus("\n".join(lines) + "\n", KN)

    assert sorted(args[0] for args in calls) == ["en", "en", "kn"]
    assert len(ds) == 7
    assert ds.golds == (
        Category.DRAVIDIAN, Category.ENGLISH, Category.DRAVIDIAN, None,
        Category.ENGLISH, Category.ENGLISH, Category.DRAVIDIAN,
    )


def reference_parse(text, task):
    """(surface, gold, sentence_index, token_index) per token, one line at a time."""
    rows = []
    sentence_index = token_index = 0
    for line in text.split("\n"):
        line = line.rstrip("\r")
        if not line.strip():
            sentence_index += 1
            token_index = 0
        elif not line.startswith("#"):
            fields = line.split("\t")
            gold = parse_gold_label(fields[1], task) if len(fields) == 2 else None
            rows.append((fields[0], gold, sentence_index, token_index))
            token_index += 1
    return rows


_CORPUS_LINE = st.one_of(
    st.sampled_from(["", " ", "\t", " \t  "]),  # blank and whitespace-only
    st.text(alphabet=st.characters(exclude_characters="\n"), max_size=6).map(
        lambda rest: "#" + rest
    ),
    st.builds(
        lambda surface, code: surface if code is None else f"{surface}\t{code}",
        st.text(
            alphabet=st.characters(codec="utf-8", exclude_characters="\t\n\r"),
            min_size=1,
            max_size=8,
        ).filter(lambda w: w.strip() and not w.startswith("#")),
        st.sampled_from([*valid_codes(KN), "EN", " kn ", None]),
    ),
)


@given(
    pool=st.lists(_CORPUS_LINE, min_size=1, max_size=6),
    picks=st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=50),
)
def test_columnar_parse_matches_per_line_reference(pool, picks):
    text = "".join(
        pool[i % len(pool)] + ("\r\n" if crlf else "\n") for i, crlf in picks
    )
    ds = parse_corpus(text, KN)
    expected = reference_parse(text, KN)

    assert token_rows(ds) == expected
    assert len(ds) == len(expected)
    assert ds.surfaces() == [row[0] for row in expected]
    assert list(ds.golds) == [row[1] for row in expected]


def test_resolve_normalizes_each_distinct_reply_once(monkeypatch):
    words = ["a", "b", "a", "c", "d", "c", "e"]
    replies = ["en", "en", "en", "Kannada.", "???", "Kannada.", "???"]
    calls = counting(monkeypatch, dravlid.classifiers, "normalize_response")
    table = resolve_predictions(words, replies, KN)

    assert sorted(args[0] for args in calls) == ["???", "Kannada.", "en"]
    # One row per distinct reply, in first-occurrence order.
    assert table == {
        "en": NormalizationOutcome(Category.ENGLISH, "en", True),
        "Kannada.": NormalizationOutcome(Category.DRAVIDIAN, "kn", True),
        "???": NormalizationOutcome(Category.OTHER, "other", False),
    }
    assert list(table) == ["en", "Kannada.", "???"]


def test_strict_names_the_first_unparseable_token_after_repeats():
    words = ["mane", "mane", "hello", "mane", "zzq", "qqz"]
    replies = ["kn", "kn", "en", "kn", "no idea", "no idea"]
    with pytest.raises(UnparseableResponseError, match="'zzq'"):
        resolve_predictions(words, replies, KN, "strict")


class _EchoTransport:
    """Answers every prompt with "en"; counts the requests."""

    def __init__(self):
        self.requests = 0

    def complete(self, request):
        self.requests += 1
        return "en"


class TestManifestCountsTokens:
    ds = parse_corpus("".join(f"{w}\ten\n" for w in WORDS), KN)
    config = ExperimentConfig(task=KN, temperature=0.7)

    def test_baseline_has_no_cache_hits(self):
        result = run_experiment(self.ds, self.config, BaselineBackend())
        assert result.cache_hits == 0
        assert result.token_count == len(WORDS)

    def test_replay_counts_every_token_as_a_hit(self):
        records = [
            make_record(self.config.model_id, 0.7, render_prompt(w, KN), "en")
            for w in set(WORDS)
        ]
        result = run_experiment(self.ds, self.config, replay_of(records))
        assert result.cache_hits == len(WORDS)

    def test_live_counts_later_occurrences_of_a_miss_as_hits(self):
        transport = _EchoTransport()
        backend = LiveBackend(ResponseCache(None), transport, max_workers=1)
        result = run_experiment(self.ds, self.config, backend)
        assert transport.requests == len(set(WORDS))
        assert result.cache_hits == len(WORDS) - len(set(WORDS))


def reference_jsonl(rows):
    """Predictions file text of (word, reply, code) rows, one json.dumps per row."""
    return "".join(
        json.dumps(
            {"word": word, "raw_response": reply, "category_code": code},
            ensure_ascii=False,
            sort_keys=True,
        )
        + "\n"
        for word, reply, code in rows
    )


_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\n\r\t\x00\x1f\x7f\x85\u2028\u2029'),
        st.sampled_from("ಮನೆதமிழ்éß"),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=12,
)


@st.composite
def runs(draw) -> RunResult:
    """A run over drawn distinct-word columns, some replies codes, and a
    token index into them, with repeats."""
    pool = draw(
        st.lists(
            st.tuples(
                _TEXT.filter(str.strip),
                st.one_of(_TEXT, st.sampled_from([*valid_codes(KN), "Kannada."])),
            ),
            min_size=1,
            max_size=5,
        )
    )
    index = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=20))
    words, replies = map(list, zip(*pool))
    return RunResult(
        config=ExperimentConfig(task=KN), corpus_path="", backend_kind="replay",
        failure_policy="map_to_other", started_at="", finished_at="",
        words=words, replies=replies, hits=[False] * len(words), repeats_hit=False,
        table=resolve_predictions(words, replies, KN),
        index=array("I", index), cache_hits=0, unparseable_count=0,
    )


@given(run=runs())
def test_jsonl_round_trip_matches_per_token_reference(run, tmp_path_factory):
    rows = [(run.words[i], run.replies[i], run.table[run.replies[i]].code) for i in run.index]
    out = io.BytesIO()
    write_predictions(run, out)
    assert out.getvalue() == reference_jsonl(rows).encode("utf-8")

    path = tmp_path_factory.mktemp("jsonl") / "predictions.jsonl"
    path.write_bytes(out.getvalue())
    words, categories = read_predictions_jsonl(path, KN)
    assert words == [word for word, _, _ in rows]
    assert categories == list(run.predictions)
