"""Estimator-style classifier API.

Both classifiers follow scikit-learn conventions (constructor params stored
verbatim, get_params/set_params, a no-op fit returning self) so they drop
into Pipeline and clone() without inheriting from sklearn. There is nothing
to train: fit only resolves and validates parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from dravlid.backends import Backend, BaselineBackend, RawPrediction
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
    TaskLanguage,
    code_for,
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
    raws: Sequence[RawPrediction],
    task: TaskLanguage,
    failure_policy: str = "map_to_other",
) -> list[WordPrediction]:
    """Normalize raw replies into categories under the failure policy.

    map_to_other turns unrecognizable replies into Other (flagged); strict
    raises on the first one in input order, naming the word and the raw
    reply. Each distinct reply is normalized once, and tokens with the same
    word, reply and cache flag share one (frozen) WordPrediction.
    """
    check_policy(failure_policy)
    replies: dict[str, tuple[Category, str, bool]] = {}  # category, code, unparseable
    shared: dict[tuple[str, str, bool], WordPrediction] = {}
    resolved = []
    for raw in raws:
        key = (raw.word, raw.raw_response, raw.from_cache)
        prediction = shared.get(key)
        if prediction is None:
            reply = replies.get(raw.raw_response)
            if reply is None:
                outcome = normalize_response(raw.raw_response, task)
                category = outcome.category if outcome.ok else Category.OTHER
                reply = replies[raw.raw_response] = (
                    category, code_for(category, task), not outcome.ok
                )
            category, code, unparseable = reply
            if unparseable and failure_policy == "strict":
                raise UnparseableResponseError(
                    f"could not map reply for word {raw.word!r} to a category "
                    f"(raw reply: {raw.raw_response!r})"
                )
            prediction = shared[key] = WordPrediction(
                raw.word, raw.raw_response, category, code, raw.from_cache, unparseable
            )
        resolved.append(prediction)
    return resolved


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
        policy = check_policy(self.failure_policy)
        words = check_words(X)
        config = self._config()
        raws = self._backend().classify_words(words, config)
        return resolve_predictions(raws, config.task, policy)

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
    backend : object answering classify_words(words, config)
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
