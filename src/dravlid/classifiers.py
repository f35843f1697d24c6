"""Estimator-style classifier API, and the reply table every run reads.

`resolve_predictions` normalizes each distinct reply once, into the reply
table a run reads its categories from: each reply to its `NormalizationOutcome`
(category, wire code, ok). The estimators predict through a run, as the CLI does.

Both classifiers follow scikit-learn conventions (constructor params stored
verbatim, get_params/set_params, a no-op fit returning self) so they drop
into Pipeline and clone() without inheriting from sklearn. There is nothing
to train: fit only resolves and validates parameters.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable

from dravlid.backends import Backend, BaselineBackend
from dravlid.baseline import LexiconSet
from dravlid.corpus import Dataset
from dravlid.errors import UnparseableResponseError
from dravlid.prompting import (
    DEFAULT_MAX_OUTPUT_TOKENS,
    DEFAULT_MODEL_ID,
    ExperimentConfig,
)
from dravlid.taxonomy import (
    Category,
    NormalizationOutcome,
    TaskLanguage,
    normalize_response,
    parse_task,
)

FAILURE_POLICIES = ("map_to_other", "strict")


def check_words(X: Sequence[str] | Dataset | Iterable[str]) -> list[str]:
    """Validate classifier input: an iterable of non-empty words (or a
    Dataset, whose surfaces are used)."""
    if isinstance(X, Dataset):
        return X.surfaces()
    if isinstance(X, str):
        raise TypeError("expected an iterable of words, got a single string")
    words = list(X)
    for i, word in enumerate(words):
        if not isinstance(word, str):
            raise TypeError(f"word at position {i} is {type(word).__name__}, not str")
        if not word or not word.strip():
            raise ValueError(f"word at position {i} is empty")
    return words


def check_policy(policy: str) -> str:
    if policy not in FAILURE_POLICIES:
        raise ValueError(
            f"unknown failure policy {policy!r}; expected one of {FAILURE_POLICIES}"
        )
    return policy


@dataclass(frozen=True)
class WordPrediction:
    """Per-word pipeline output: raw reply plus its normalized category."""

    word: str
    raw_response: str
    category: Category
    category_code: str
    from_cache: bool
    unparseable: bool


def resolve_predictions(
    words: Sequence[str],
    replies: list[str],
    task: TaskLanguage,
    failure_policy: str = "map_to_other",
) -> dict[str, NormalizationOutcome]:
    """Normalize a backend's replies to words into a reply table: each
    distinct reply, normalized once, to its outcome.

    map_to_other keeps an unrecognizable reply as Other, not ok; strict
    raises on the first one in input order, naming the word and the raw
    reply.
    """
    check_policy(failure_policy)
    table = {reply: normalize_response(reply, task) for reply in dict.fromkeys(replies)}
    if failure_policy == "strict" and not all(map(attrgetter("ok"), table.values())):
        i = next(i for i, reply in enumerate(replies) if not table[reply].ok)
        raise UnparseableResponseError(
            f"could not map reply for word {words[i]!r} to a category "
            f"(raw reply: {replies[i]!r})"
        )
    return table


@dataclass(eq=False)
class BaseWordClassifier:
    """One prediction path for both estimators: a subclass supplies the
    backend and the config, and its fields are its parameters.

    eq=False keeps equality and hashing by identity, as sklearn expects.
    """

    task: str | TaskLanguage = "kannada"

    # A plain class attribute, not a parameter: the rule backend answers
    # with wire codes, which always parse. LLMClassifier makes it a field.
    failure_policy = "map_to_other"

    def _backend(self) -> Backend:
        raise NotImplementedError

    def _config(self) -> ExperimentConfig:
        raise NotImplementedError

    def get_params(self, deep: bool = True) -> dict:
        # deep is part of sklearn's interface; no parameter is an estimator.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params):
        valid = {f.name for f in fields(self)}
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self

    def fit(self, X=None, y=None):
        """Stateless estimator: validates parameters and returns self."""
        self.task_ = parse_task(self.task)
        self.classes_ = tuple(Category)
        return self

    def predict_detailed(self, X) -> list[WordPrediction]:
        """One prediction per word of X, from run_experiment over a Dataset
        of X; a repeat is a cache hit where the run counts it as one."""
        from dravlid.runner import run_experiment  # runner imports this module

        policy = check_policy(self.failure_policy)
        words = check_words(X)
        config, backend = self._config(), self._backend()
        if not words:
            return []
        ds = X if isinstance(X, Dataset) else Dataset(config.task, words, [None] * len(words))
        run = run_experiment(ds, config, backend, policy)
        predictions = []
        seen = 0  # word ids run in first-occurrence order
        for i in run.index:
            repeat = i < seen
            seen += not repeat
            category, code, ok = run.table[run.replies[i]]
            predictions.append(WordPrediction(run.words[i], run.replies[i], category, code,
                                              run.hits[i] or (run.repeats_hit and repeat), not ok))
        return predictions

    def predict(self, X) -> list[Category]:
        return [p.category for p in self.predict_detailed(X)]

    def predict_codes(self, X) -> list[str]:
        return [p.category_code for p in self.predict_detailed(X)]


@dataclass(eq=False)
class RuleBasedClassifier(BaseWordClassifier):
    """Deterministic lexicon/gazetteer/suffix classifier: BaselineBackend
    behind the estimator interface.

    Parameters
    ----------
    task : "kannada"/"kn" or "tamil"/"tm" (or a TaskLanguage)
    lexicons : optional LexiconSet; bundled lists are used when omitted
    """

    lexicons: LexiconSet | None = None

    def _backend(self) -> Backend:
        return BaselineBackend(self.lexicons)

    def _config(self) -> ExperimentConfig:
        return ExperimentConfig(task=parse_task(self.task))


@dataclass(eq=False)
class LLMClassifier(BaseWordClassifier):
    """Prompt-a-model classifier over any backend (live, replay, baseline).

    Parameters
    ----------
    task : "kannada"/"kn" or "tamil"/"tm" (or a TaskLanguage)
    backend : object with a kind, answering classify_words(distinct words,
        config) with each word's reply and whether the cache held it
    model_id, temperature, max_output_tokens : request identity
    failure_policy : "map_to_other" (default) or "strict"
    """

    backend: Backend | None = None
    model_id: str = DEFAULT_MODEL_ID
    temperature: float = 0.7
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS
    failure_policy: str = "map_to_other"

    def _backend(self) -> Backend:
        if self.backend is None:
            raise ValueError(
                "no backend configured; pass a LiveBackend, ReplayBackend, "
                "or BaselineBackend"
            )
        return self.backend

    def _config(self) -> ExperimentConfig:
        return ExperimentConfig(
            task=parse_task(self.task),
            model_id=self.model_id,
            temperature=self.temperature,
            max_output_tokens=self.max_output_tokens,
        )
