"""The macro/weighted precision-recall-F1 suite, scored from (gold, pred)
pair counts.

Conventions: zero denominators yield 0 (never NaN); macro averages run over
classes with nonzero gold support unless the fixed-label-set convention is
requested; all arithmetic is double precision and the markdown renderer
rounds to 4 decimals.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, Sequence

from dravlid.taxonomy import Category

# Headline metric rows in fixed report order.
REPORT_ROWS = (
    ("Macro F1", "macro_f1"),
    ("Macro Precision", "macro_precision"),
    ("Macro Recall", "macro_recall"),
    ("Weighted F1", "weighted_f1"),
    ("Weighted Precision", "weighted_precision"),
    ("Weighted Recall", "weighted_recall"),
    ("Accuracy", "accuracy"),
)

_member_name = attrgetter("_name_")
# What ends a markdown line: CR LF, CR or LF.
_LINE_BREAK = re.compile(r"\r\n?|\n")


@dataclass(frozen=True)
class PerClassMetrics:
    """Per-class precision/recall/F1 with gold support and raw TP count."""

    category: Category
    precision: float
    recall: float
    f1: float
    support: int
    tp: int


@dataclass(frozen=True)
class MetricReport:
    """The seven headline metrics plus the per-class breakdown for one run."""

    run_label: str
    macro_f1: float
    macro_precision: float
    macro_recall: float
    weighted_f1: float
    weighted_precision: float
    weighted_recall: float
    accuracy: float
    per_class: tuple[PerClassMetrics, ...]
    prediction_only_classes: int = 0


def count_pairs(
    gold: Sequence[Category], pred: Sequence[Category]
) -> dict[tuple[Category, Category], int]:
    """How many tokens have each (gold, pred) pair, from per-token labels."""
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} items but pred has {len(pred)}")
    # Counting member names hashes str in C; counting members would call
    # the Python-level Enum.__hash__ twice per token.
    name_pairs = Counter(zip(map(_member_name, gold), map(_member_name, pred)))
    return {(Category[g], Category[p]): count for (g, p), count in name_pairs.items()}


def count_pairs_by_word(
    gold_words: Mapping[Category, Mapping[int, int]], categories: Sequence[Category]
) -> dict[tuple[Category, Category], int]:
    """How many tokens have each (gold, pred) pair, from each gold label's
    token count per word id and one predicted category per word id."""
    names = list(map(_member_name, categories))
    pairs = {}
    for gold, words in gold_words.items():
        row: dict[str, int] = {}
        for word, count in words.items():
            name = names[word]
            row[name] = row.get(name, 0) + count
        for name, count in row.items():
            pairs[gold, Category[name]] = count
    return pairs


def evaluate(
    pairs: Mapping[tuple[Category, Category], int],
    run_label: str = "",
    macro_convention: str = "support",
) -> MetricReport:
    """Score (gold, pred) pair counts, such as `count_pairs` gives: sum each
    class's support, predicted count and true positives from the pairs,
    then build the per-class metrics in taxonomy order and aggregate them.

    macro_convention "support" reports the classes seen as gold or as
    prediction and averages over those with gold instances; "fixed" reports
    and averages over the full 7-label taxonomy. Weighted recall and
    accuracy are both computed as total TP over n, which is what the
    support-weighted recall sum reduces to; the two therefore agree bitwise
    by construction.
    """
    if macro_convention not in ("support", "fixed"):
        raise ValueError(f"unknown macro convention {macro_convention!r}")
    if not pairs:
        raise ValueError("cannot evaluate no tokens")

    support, predicted, hits = Counter(), Counter(), Counter()
    for (gold, pred), count in pairs.items():
        support[gold] += count
        predicted[pred] += count
        if gold is pred:
            hits[gold] += count

    fixed = macro_convention == "fixed"
    per_class = []
    for cat in Category:
        if fixed or cat in support or cat in predicted:
            tp = hits[cat]
            precision = tp / predicted[cat] if predicted[cat] > 0 else 0.0
            recall = tp / support[cat] if support[cat] > 0 else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
            per_class.append(PerClassMetrics(cat, precision, recall, f1, support[cat], tp))

    n = sum(pairs.values())
    macro_pool = per_class if fixed else [m for m in per_class if m.support > 0]
    k = len(macro_pool)
    total_correct_over_n = sum(m.tp for m in per_class) / n

    return MetricReport(
        run_label=run_label,
        macro_f1=sum(m.f1 for m in macro_pool) / k,
        macro_precision=sum(m.precision for m in macro_pool) / k,
        macro_recall=sum(m.recall for m in macro_pool) / k,
        weighted_f1=sum(m.support * m.f1 for m in per_class) / n,
        weighted_precision=sum(m.support * m.precision for m in per_class) / n,
        weighted_recall=total_correct_over_n,
        accuracy=total_correct_over_n,
        per_class=tuple(per_class),
        prediction_only_classes=sum(
            1 for m in per_class if m.support == 0 and predicted[m.category] > 0
        ),
    )


def report_to_dict(report: MetricReport) -> dict:
    return {
        "run_label": report.run_label,
        "macro_f1": report.macro_f1,
        "macro_precision": report.macro_precision,
        "macro_recall": report.macro_recall,
        "weighted_f1": report.weighted_f1,
        "weighted_precision": report.weighted_precision,
        "weighted_recall": report.weighted_recall,
        "accuracy": report.accuracy,
        "prediction_only_classes": report.prediction_only_classes,
        "per_class": [
            {
                "category": m.category.value,
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "support": m.support,
            }
            for m in report.per_class
        ],
    }


def report_to_json(report: MetricReport) -> str:
    """Full-precision JSON with stable key order, byte-identical across runs."""
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def report_dicts_to_markdown(reports: Sequence[dict]) -> str:
    """Markdown table of the seven headline rows, one value column per run.

    Takes reports in the report_to_dict shape, which is also what a saved
    report JSON file loads as, so fresh and saved runs render alike.
    """
    if not reports:
        raise ValueError("no reports to render")
    # A label stays one cell: its pipes escaped, each line break a space.
    labels = " | ".join(
        _LINE_BREAK.sub(" ", (r.get("run_label") or "run").replace("|", "\\|")) for r in reports
    )
    header = f"| Metric | {labels} |"
    divider = "|---" * (len(reports) + 1) + "|"
    lines = [header, divider]
    for title, key in REPORT_ROWS:
        values = " | ".join(f"{r[key]:.4f}" for r in reports)
        lines.append(f"| {title} | {values} |")
    return "\n".join(lines) + "\n"


def reports_to_markdown(reports: Sequence[MetricReport]) -> str:
    return report_dicts_to_markdown([report_to_dict(r) for r in reports])


def report_to_markdown(report: MetricReport) -> str:
    return reports_to_markdown([report])
