"""Both estimators predict through their backend: one rule path, and the
failure policy is checked before any backend call."""

from pathlib import Path

import pytest

import dravlid.baseline
from dravlid.backends import BaselineBackend
from dravlid.baseline import classify_baseline, load_wordlist
from dravlid.classifiers import LLMClassifier, RuleBasedClassifier
from dravlid.corpus import parse_corpus_file
from dravlid.fixtures import smoke_corpus_path
from dravlid.taxonomy import Category, TaskLanguage, code_for

BUNDLED_ENTRIES = sorted(
    {
        entry
        for path in Path(dravlid.baseline.__file__).with_name("data").glob("*.txt")
        for entry in load_wordlist(path)
    }
)


@pytest.mark.parametrize("task", list(TaskLanguage))
def test_rule_classifier_is_classify_baseline(task):
    words = parse_corpus_file(smoke_corpus_path(task), task).surfaces() + BUNDLED_ENTRIES
    expected = [classify_baseline(word, task) for word in words]
    clf = RuleBasedClassifier(task=task).fit()
    assert clf.predict(words) == expected
    detailed = clf.predict_detailed(words)
    assert [p.raw_response for p in detailed] == [code_for(c, task) for c in expected]
    assert not any(p.unparseable for p in detailed)


class RecordingBackend:
    kind = "recording"

    def __init__(self):
        self.calls = []

    def classify_words(self, words, config):
        self.calls.append(list(words))
        return ["en"] * len(words), [False] * len(words)


def test_unknown_policy_raises_before_the_backend_is_called():
    backend = RecordingBackend()
    clf = LLMClassifier(task="kn", backend=backend, failure_policy="lenient")
    with pytest.raises(ValueError, match="lenient"):
        clf.predict(["hello"])
    assert backend.calls == []
    clf.set_params(failure_policy="strict")
    assert clf.predict(["hello"]) == [Category.ENGLISH]
    assert backend.calls == [["hello"]]


@pytest.mark.parametrize("clf", [
    RuleBasedClassifier(task="kn"), LLMClassifier(task="kn", backend=BaselineBackend()),
])
def test_an_estimator_refuses_a_dataset_of_the_other_task(clf):
    tamil = parse_corpus_file(smoke_corpus_path(TaskLanguage.TAMIL), TaskLanguage.TAMIL)
    with pytest.raises(ValueError, match="a kannada config cannot run over a tamil corpus"):
        clf.predict_codes(tamil)
