"""Estimator-style classifier API and the prediction-resolution pipeline."""

import pytest

from dravlid.backends import BaselineBackend, ReplayBackend
from dravlid.classifiers import (
    LLMClassifier,
    RuleBasedClassifier,
    WordPrediction,
    check_policy,
    check_words,
    resolve_predictions,
)
from dravlid.corpus import parse_corpus
from dravlid.errors import UnparseableResponseError
from dravlid.fixtures import replay_fixture_path
from dravlid.taxonomy import Category, NormalizationOutcome, TaskLanguage

KN = TaskLanguage.KANNADA


def columns(*pairs) -> tuple[list[str], list[str]]:
    """(words, replies) of (word, reply) pairs."""
    return [w for w, _ in pairs], [r for _, r in pairs]


class AnsweringBackend:
    """A backend that answers with fixed columns, whatever it is asked."""

    kind = "answering"

    def __init__(self, replies: list[str], hits: list[bool]):
        self.replies, self.hits = replies, hits

    def classify_words(self, words, config):
        return self.replies, self.hits


class TestInputValidation:
    def test_list_of_words_passes_through(self):
        assert check_words(["a", "b"]) == ["a", "b"]

    def test_dataset_becomes_surfaces(self):
        ds = parse_corpus("hello\ten\nmane\tkn\n", KN)
        assert check_words(ds) == ["hello", "mane"]

    def test_single_string_rejected(self):
        with pytest.raises(TypeError, match="single string"):
            check_words("hello")

    def test_non_string_element_rejected(self):
        with pytest.raises(TypeError, match="position 1"):
            check_words(["ok", 42])

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="position 0"):
            check_words([" "])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="strict"):
            check_policy("lenient")


class TestResolvePredictions:
    def test_map_to_other_counts_unparseable(self):
        table = resolve_predictions(
            *columns(("a", "en"), ("b", "kn"), ("c", "???")), KN, "map_to_other"
        )
        assert table == {
            "en": NormalizationOutcome(Category.ENGLISH, "en", True),
            "kn": NormalizationOutcome(Category.DRAVIDIAN, "kn", True),
            "???": NormalizationOutcome(Category.OTHER, "other", False),
        }

    def test_strict_raises_naming_word_and_reply(self):
        with pytest.raises(UnparseableResponseError) as excinfo:
            resolve_predictions(*columns(("mane", "no idea at all")), KN, "strict")
        message = str(excinfo.value)
        assert "mane" in message
        assert "no idea at all" in message

    def test_from_cache_carried_through(self):
        # Not a LiveBackend, so the repeat of a miss is a miss too.
        clf = LLMClassifier(task="kn", backend=AnsweringBackend(["kn", "en"], [False, True]))
        detailed = clf.fit().predict_detailed(["b", "a", "b"])
        assert [p.from_cache for p in detailed] == [False, True, False]

    def test_empty_input_empty_output(self):
        assert resolve_predictions([], [], KN, "map_to_other") == {}


class TestEstimatorConventions:
    def test_get_params_returns_constructor_args(self):
        clf = RuleBasedClassifier(task="tamil")
        assert clf.get_params() == {"task": "tamil", "lexicons": None}

    def test_set_params_round_trip(self):
        clf = RuleBasedClassifier()
        clf.set_params(task="tm")
        assert clf.get_params()["task"] == "tm"
        assert clf.fit().task_ is TaskLanguage.TAMIL

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="temperature"):
            RuleBasedClassifier().set_params(temperature=0.9)

    def test_fit_returns_self_and_sets_state(self):
        clf = RuleBasedClassifier(task="kn")
        assert clf.fit() is clf
        assert clf.task_ is KN
        assert clf.classes_ == tuple(Category)

    def test_params_stored_verbatim_until_fit(self):
        # sklearn convention: __init__ must not transform its arguments.
        clf = LLMClassifier(task="kn", temperature=0.9)
        assert clf.task == "kn"
        assert clf.temperature == 0.9

    def test_repr_shows_params(self):
        text = repr(LLMClassifier(task="tamil", temperature=0.8))
        assert "LLMClassifier(" in text
        assert "temperature=0.8" in text


class TestRuleBasedClassifier:
    def test_predict_words(self):
        clf = RuleBasedClassifier(task="kannada").fit()
        assert clf.predict(["hello", "mane", "%"]) == [
            Category.ENGLISH,
            Category.DRAVIDIAN,
            Category.SYMBOL,
        ]

    def test_predict_accepts_dataset(self):
        ds = parse_corpus("hello\ten\nmane\tkn\n", KN)
        clf = RuleBasedClassifier(task="kannada").fit()
        assert clf.predict(ds) == [Category.ENGLISH, Category.DRAVIDIAN]

    def test_predict_codes(self):
        clf = RuleBasedClassifier(task="tamil").fit()
        assert clf.predict_codes(["vanakkam", "hello"]) == ["tm", "en"]


class TestLLMClassifier:
    def make(self, **kwargs) -> LLMClassifier:
        kwargs.setdefault(
            "backend", ReplayBackend.from_jsonl(replay_fixture_path(KN))
        )
        kwargs.setdefault("task", "kn")
        return LLMClassifier(**kwargs)

    def test_predict_via_replay(self):
        clf = self.make().fit()
        assert clf.predict(["hello", "mane"]) == [
            Category.ENGLISH,
            Category.DRAVIDIAN,
        ]

    def test_predict_detailed_exposes_raw(self):
        clf = self.make().fit()
        detail = clf.predict_detailed(["hello"])[0]
        assert isinstance(detail, WordPrediction)
        assert detail.raw_response == "en"
        assert detail.from_cache is True

    def test_missing_backend_is_an_error(self):
        clf = LLMClassifier(task="kn")
        with pytest.raises(ValueError, match="backend"):
            clf.fit().predict(["hello"])

    def test_baseline_backend_drop_in(self):
        clf = LLMClassifier(task="kn", backend=BaselineBackend()).fit()
        assert clf.predict(["bookalli"]) == [Category.MIXED]

    def test_strict_policy_propagates(self):
        backend = ReplayBackend.from_jsonl(replay_fixture_path(KN))
        clf = LLMClassifier(
            task="kn", backend=backend, temperature=0.7, failure_policy="strict"
        ).fit()
        # The 0.7 fixture answers "qwerty" unparseably by construction.
        with pytest.raises(UnparseableResponseError):
            clf.predict(["qwerty"])


class TestSklearnInterop:
    """Run only when scikit-learn happens to be installed."""

    # Duck-typed estimators draw a tags deprecation warning from newer
    # scikit-learn releases; the interop below is what we actually promise.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_clone_and_pipeline(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        cloned = sklearn_base.clone(RuleBasedClassifier(task="tamil"))
        assert cloned.get_params()["task"] == "tamil"

        pipeline_mod = pytest.importorskip("sklearn.pipeline")
        pipe = pipeline_mod.Pipeline(
            [("clf", RuleBasedClassifier(task="kannada"))]
        )
        assert pipe.fit(["hello"]).predict(["mane"]) == [Category.DRAVIDIAN]
