"""Word-level language identification for code-mixed Dravidian-English text.

The pipeline: parse a token/label corpus, render a zero-shot prompt per
word, send it through a cached chat-completion backend (or a rule-based
baseline, or a recorded-response replay), normalize the raw replies into
the seven-category taxonomy, and score against gold labels with the full
macro/weighted metric suite.

The package root exports the names the README documents; everything else
is imported from its submodule.
"""

from dravlid.backends import BaselineBackend, LiveBackend, ReplayBackend
from dravlid.classifiers import LLMClassifier, RuleBasedClassifier
from dravlid.corpus import parse_corpus_file
from dravlid.errors import DravlidError
from dravlid.metrics import report_to_json, report_to_markdown
from dravlid.prompting import ExperimentConfig
from dravlid.runner import evaluate_run, run_experiment
from dravlid.taxonomy import TaskLanguage

__version__ = "0.1.0"

__all__ = [
    "BaselineBackend",
    "DravlidError",
    "ExperimentConfig",
    "LLMClassifier",
    "LiveBackend",
    "ReplayBackend",
    "RuleBasedClassifier",
    "TaskLanguage",
    "evaluate_run",
    "parse_corpus_file",
    "report_to_json",
    "report_to_markdown",
    "run_experiment",
]
