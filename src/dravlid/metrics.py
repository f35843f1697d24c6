"""Confusion matrices and the macro/weighted precision-recall-F1 suite.

Conventions: zero denominators yield 0 (never NaN); macro averages run over
classes with nonzero gold support unless the fixed-label-set convention is
requested; all arithmetic is double precision and the markdown renderer
rounds to 4 decimals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count matrix indexed counts[gold][pred] over `labels`."""

    labels: tuple[Category, ...]
    counts: tuple[tuple[int, ...], ...]
    n: int

    def count(self, gold: Category, pred: Category) -> int:
        return self.counts[self.labels.index(gold)][self.labels.index(pred)]

    def row_sum(self, i: int) -> int:
        return sum(self.counts[i])

    def col_sum(self, j: int) -> int:
        return sum(row[j] for row in self.counts)


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


def build_confusion(
    gold: Sequence[Category],
    pred: Sequence[Category],
    labels: Sequence[Category] | None = None,
) -> ConfusionMatrix:
    """Tally a confusion matrix; labels default to the observed categories
    in canonical taxonomy order."""
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} items but pred has {len(pred)}")
    if not gold:
        raise ValueError("cannot build a confusion matrix from empty sequences")

    observed = set(gold) | set(pred)
    if labels is None:
        label_tuple = tuple(cat for cat in Category if cat in observed)
    else:
        label_tuple = tuple(labels)
        missing = observed - set(label_tuple)
        if missing:
            names = ", ".join(sorted(c.value for c in missing))
            raise ValueError(f"labels must cover every observed category; missing {names}")

    index = {cat: i for i, cat in enumerate(label_tuple)}
    size = len(label_tuple)
    cells = [[0] * size for _ in range(size)]
    for g, p in zip(gold, pred):
        cells[index[g]][index[p]] += 1

    return ConfusionMatrix(
        labels=label_tuple,
        counts=tuple(tuple(row) for row in cells),
        n=len(gold),
    )


def per_class_metrics(cm: ConfusionMatrix) -> list[PerClassMetrics]:
    """Precision, recall, F1, and support for every label in the matrix."""
    result = []
    for i, cat in enumerate(cm.labels):
        tp = cm.counts[i][i]
        support = cm.row_sum(i)
        predicted = cm.col_sum(i)
        precision = tp / predicted if predicted > 0 else 0.0
        recall = tp / support if support > 0 else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        result.append(
            PerClassMetrics(
                category=cat,
                precision=precision,
                recall=recall,
                f1=f1,
                support=support,
                tp=tp,
            )
        )
    return result


def evaluate(
    gold: Sequence[Category],
    pred: Sequence[Category],
    run_label: str = "",
    macro_convention: str = "support",
) -> MetricReport:
    """Full pipeline: confusion matrix, per-class metrics, aggregation.

    macro_convention "support" averages over classes with gold instances;
    "fixed" averages over the full 7-label taxonomy. Weighted recall and
    accuracy are both computed as total TP over n, which is what the
    support-weighted recall sum reduces to; the two therefore agree bitwise
    by construction.
    """
    if macro_convention == "support":
        labels = None
    elif macro_convention == "fixed":
        labels = tuple(Category)
    else:
        raise ValueError(f"unknown macro convention {macro_convention!r}")

    cm = build_confusion(gold, pred, labels=labels)
    per_class = per_class_metrics(cm)
    n = cm.n
    if labels is None:
        macro_pool = [m for m in per_class if m.support > 0]
    else:
        macro_pool = per_class
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
            1
            for i in range(len(cm.labels))
            if cm.row_sum(i) == 0 and cm.col_sum(i) > 0
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
    labels = " | ".join(r.get("run_label") or "run" for r in reports)
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
