"""Label taxonomy for word-level language identification.

Seven categories are shared by both tasks; the wire codes differ per task
(the Tamil task uses "tm" for the Dravidian class and "tmen" for Mixed).
"""

from __future__ import annotations

import string
from enum import Enum
from typing import NamedTuple

from dravlid.errors import UnknownLabelCodeError


class TaskLanguage(Enum):
    """The two supported code-mixed tasks."""

    KANNADA = "kannada"
    TAMIL = "tamil"


class Category(Enum):
    """Closed 7-way label space. DRAVIDIAN means the task's own language."""

    ENGLISH = "English"
    DRAVIDIAN = "Dravidian"
    MIXED = "Mixed"
    NAME = "Name"
    LOCATION = "Location"
    SYMBOL = "Symbol"
    OTHER = "Other"


_TASK_ALIASES = {
    "kn": TaskLanguage.KANNADA,
    "kannada": TaskLanguage.KANNADA,
    "tm": TaskLanguage.TAMIL,
    "tamil": TaskLanguage.TAMIL,
}

# Per-task wire codes, keyed by category. Lowercase by construction; the
# capitalized variants some prompts use ("Location", "Other") normalize to
# these on parse.
_CODE_TABLES: dict[TaskLanguage, dict[Category, str]] = {
    TaskLanguage.KANNADA: {
        Category.ENGLISH: "en",
        Category.DRAVIDIAN: "kn",
        Category.MIXED: "mixed",
        Category.NAME: "name",
        Category.LOCATION: "location",
        Category.SYMBOL: "sym",
        Category.OTHER: "other",
    },
    TaskLanguage.TAMIL: {
        Category.ENGLISH: "en",
        Category.DRAVIDIAN: "tm",
        Category.MIXED: "tmen",
        Category.NAME: "name",
        Category.LOCATION: "location",
        Category.SYMBOL: "sym",
        Category.OTHER: "other",
    },
}

_REVERSE_TABLES: dict[TaskLanguage, dict[str, Category]] = {
    task: {code: cat for cat, code in table.items()}
    for task, table in _CODE_TABLES.items()
}

# Full category names recognized as a last resort when a reply spells the
# category out instead of answering with a code. Both Dravidian language
# names map to DRAVIDIAN regardless of task.
_CATEGORY_NAMES: dict[str, Category] = {
    "english": Category.ENGLISH,
    "kannada": Category.DRAVIDIAN,
    "tamil": Category.DRAVIDIAN,
    "mixed": Category.MIXED,
    "name": Category.NAME,
    "location": Category.LOCATION,
    "symbol": Category.SYMBOL,
    "other": Category.OTHER,
}

_STRIP_CHARS = string.whitespace + ".,:;\"'()"


def parse_task(value: TaskLanguage | str) -> TaskLanguage:
    """Coerce a task name ("kn", "tm", "kannada", "tamil") to a TaskLanguage."""
    if isinstance(value, TaskLanguage):
        return value
    try:
        return _TASK_ALIASES[value.strip().lower()]
    except (KeyError, AttributeError):
        raise ValueError(
            f"unknown task {value!r}; expected one of kn, tm, kannada, tamil"
        ) from None


def code_for(cat: Category, task: TaskLanguage) -> str:
    """Return the wire code for a category under the given task."""
    return _CODE_TABLES[task][cat]


def valid_codes(task: TaskLanguage) -> tuple[str, ...]:
    """All wire codes for a task, in canonical category order."""
    return tuple(_CODE_TABLES[task].values())


def parse_gold_label(code: str, task: TaskLanguage) -> Category:
    """Map a gold label code to its Category (case-insensitive, trimmed).

    Raises UnknownLabelCodeError for codes outside the task's table, e.g.
    "kn" under the Tamil task.
    """
    normalized = code.strip().lower()
    try:
        return _REVERSE_TABLES[task][normalized]
    except KeyError:
        raise UnknownLabelCodeError(
            f"unknown label code {code!r} for task {task.value}"
        ) from None


class NormalizationOutcome(NamedTuple):
    """What a reply means under a task: its category, that category's wire
    code, and whether a rule matched. A row of a run's reply table."""

    category: Category
    code: str
    ok: bool


def normalize_response(raw: str, task: TaskLanguage) -> NormalizationOutcome:
    """Map a free-text model reply to a category. Never raises.

    Matching rules, in order:
      1. lowercase and strip surrounding whitespace and .,:;"'() punctuation;
      2. accept the whole remainder if it equals a valid code for the task;
      3. scan whitespace tokens left to right for the first one that equals
         a valid code (each token stripped of the same punctuation);
      4. scan tokens for the first full category name in English and map it;
      5. otherwise Other, not ok.
    """
    table = _REVERSE_TABLES[task]
    remainder = raw.lower().strip(_STRIP_CHARS)

    if remainder in table:
        return NormalizationOutcome(table[remainder], remainder, True)

    tokens = [tok.strip(_STRIP_CHARS) for tok in remainder.split()]
    for tok in tokens:
        if tok in table:
            return NormalizationOutcome(table[tok], tok, True)
    for tok in tokens:
        if tok in _CATEGORY_NAMES:
            cat = _CATEGORY_NAMES[tok]
            return NormalizationOutcome(cat, code_for(cat, task), True)

    return NormalizationOutcome(Category.OTHER, code_for(Category.OTHER, task), False)
