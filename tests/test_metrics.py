"""Metric suite correctness, checked against the brute-force oracle."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dravlid.fixtures import oracle_metrics
from dravlid.metrics import (
    REPORT_ROWS,
    MetricReport,
    build_confusion,
    evaluate,
    per_class_metrics,
    report_to_json,
    report_to_markdown,
    reports_to_markdown,
)
from dravlid.taxonomy import Category

A = Category.ENGLISH
B = Category.DRAVIDIAN
C = Category.MIXED

HEADLINE_FIELDS = [field for _, field in REPORT_ROWS]


@st.composite
def gold_pred_pairs(draw, max_n=200):
    classes = sorted(
        draw(st.sets(st.sampled_from(list(Category)), min_size=1, max_size=7)),
        key=lambda c: c.value,
    )
    n = draw(st.integers(min_value=1, max_value=max_n))
    gold = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    pred = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    return gold, pred


class TestWorkedExample:
    """gold [A,A,B], pred [A,B,B]: every value here is hand-counted."""

    def setup_method(self):
        self.report = evaluate([A, A, B], [A, B, B])

    def test_macro_f1_is_two_thirds(self):
        assert abs(self.report.macro_f1 - 2 / 3) < 1e-12

    def test_weighted_f1_is_two_thirds(self):
        assert abs(self.report.weighted_f1 - 2 / 3) < 1e-12

    def test_accuracy_is_two_thirds(self):
        assert abs(self.report.accuracy - 2 / 3) < 1e-12

    def test_macro_precision(self):
        # A: 1/1, B: 1/2 -> mean 0.75
        assert self.report.macro_precision == pytest.approx(0.75, abs=1e-12)

    def test_weighted_precision(self):
        # (2*1.0 + 1*0.5) / 3
        assert self.report.weighted_precision == pytest.approx(5 / 6, abs=1e-12)

    def test_recalls(self):
        assert self.report.macro_recall == pytest.approx(0.75, abs=1e-12)
        assert self.report.weighted_recall == pytest.approx(2 / 3, abs=1e-12)

    def test_per_class_values(self):
        by_cat = {m.category: m for m in self.report.per_class}
        assert by_cat[A].precision == 1.0
        assert by_cat[A].recall == 0.5
        assert by_cat[A].f1 == pytest.approx(2 / 3, abs=1e-12)
        assert by_cat[B].precision == 0.5
        assert by_cat[B].recall == 1.0
        assert by_cat[B].support == 1


class TestEdgeCases:
    def test_perfect_predictions_are_all_ones(self):
        report = evaluate([A, B, C], [A, B, C])
        for field in HEADLINE_FIELDS:
            assert getattr(report, field) == 1.0

    def test_all_wrong_zero_division_yields_zero(self):
        # B is never predicted and A never appears in gold: both directions
        # of zero denominators occur, and nothing raises.
        report = evaluate([B, B], [A, A])
        assert report.accuracy == 0.0
        assert report.macro_f1 == 0.0
        assert report.weighted_precision == 0.0

    def test_single_instance(self):
        report = evaluate([A], [A])
        assert report.accuracy == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate([A], [A, B])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [])


class TestConfusionMatrix:
    def test_cell_conservation(self):
        cm = build_confusion([A, A, B, C], [A, B, B, C])
        assert sum(sum(row) for row in cm.counts) == cm.n == 4

    def test_labels_in_canonical_order(self):
        cm = build_confusion([C, A], [A, C])
        assert cm.labels == (A, C)

    def test_count_lookup(self):
        cm = build_confusion([A, A, B], [A, B, B])
        assert cm.count(A, A) == 1
        assert cm.count(A, B) == 1
        assert cm.count(B, A) == 0

    def test_explicit_labels_must_cover_observed(self):
        with pytest.raises(ValueError, match="Mixed"):
            build_confusion([A, C], [A, A], labels=[A, B])

    @given(gold_pred_pairs(max_n=60))
    def test_row_sums_are_gold_counts(self, pair):
        gold, pred = pair
        cm = build_confusion(gold, pred)
        for i, label in enumerate(cm.labels):
            assert cm.row_sum(i) == sum(1 for g in gold if g is label)
            assert cm.col_sum(i) == sum(1 for p in pred if p is label)


class TestAgainstOracle:
    @given(gold_pred_pairs())
    def test_support_convention_matches_oracle(self, pair):
        gold, pred = pair
        report = evaluate(gold, pred, macro_convention="support")
        expected = oracle_metrics(gold, pred)
        for field in HEADLINE_FIELDS:
            assert abs(getattr(report, field) - getattr(expected, field)) < 1e-12, field

    @given(gold_pred_pairs())
    def test_fixed_convention_matches_oracle(self, pair):
        gold, pred = pair
        report = evaluate(gold, pred, macro_convention="fixed")
        expected = oracle_metrics(
            gold, pred, include_zero_support=True, fixed_label_set=True
        )
        for field in HEADLINE_FIELDS:
            assert abs(getattr(report, field) - getattr(expected, field)) < 1e-12, field

    @given(gold_pred_pairs())
    def test_weighted_recall_is_accuracy_bitwise(self, pair):
        gold, pred = pair
        report = evaluate(gold, pred)
        assert report.weighted_recall == report.accuracy

    @given(gold_pred_pairs(max_n=80))
    def test_per_class_counts_match_oracle(self, pair):
        gold, pred = pair
        report = evaluate(gold, pred)
        expected = {m.category: m for m in oracle_metrics(gold, pred).per_class}
        for m in report.per_class:
            o = expected[m.category]
            assert m.support == o.support
            assert m.tp == o.tp
            assert abs(m.f1 - o.f1) < 1e-12


class TestMacroConventions:
    def test_fixed_includes_all_seven(self):
        report = evaluate([A, B], [A, B], macro_convention="fixed")
        assert len(report.per_class) == 7
        # Five categories contribute zeros to the macro pool.
        assert report.macro_f1 == pytest.approx(2 / 7, abs=1e-12)

    def test_support_ignores_unseen(self):
        report = evaluate([A, B], [A, B], macro_convention="support")
        assert len(report.per_class) == 2
        assert report.macro_f1 == 1.0

    def test_prediction_only_class_counted_not_averaged(self):
        # C never occurs in gold but is predicted once.
        report = evaluate([A, A, B], [A, C, B], macro_convention="support")
        assert report.prediction_only_classes == 1
        # Macro still averages over A and B only.
        by_cat = {m.category: m for m in report.per_class}
        pool = [by_cat[A], by_cat[B]]
        assert report.macro_f1 == pytest.approx(
            sum(m.f1 for m in pool) / 2, abs=1e-12
        )

    def test_fixed_vs_support_prediction_only_agrees(self):
        report = evaluate([A, A, B], [A, C, B], macro_convention="fixed")
        assert report.prediction_only_classes == 1

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            evaluate([A], [A], macro_convention="micro")


class TestRendering:
    def setup_method(self):
        self.report = evaluate([A, A, B], [A, B, B], run_label="demo")

    def test_markdown_row_order_and_rounding(self):
        lines = report_to_markdown(self.report).splitlines()
        assert lines[0] == "| Metric | demo |"
        titles = [line.split("|")[1].strip() for line in lines[2:]]
        assert titles == [
            "Macro F1",
            "Macro Precision",
            "Macro Recall",
            "Weighted F1",
            "Weighted Precision",
            "Weighted Recall",
            "Accuracy",
        ]
        assert "| Macro F1 | 0.6667 |" in lines
        assert "| Weighted Precision | 0.8333 |" in lines

    def test_multi_run_columns(self):
        other = evaluate([A, B], [A, B], run_label="clean")
        table = reports_to_markdown([self.report, other])
        assert "| Metric | demo | clean |" in table
        assert "| Accuracy | 0.6667 | 1.0000 |" in table

    def test_json_is_deterministic_and_sorted(self):
        first = report_to_json(self.report)
        second = report_to_json(self.report)
        assert first == second
        assert first.endswith("\n")
        data = json.loads(first)
        assert list(data) == sorted(data)
        assert data["run_label"] == "demo"

    def test_json_round_trip_values(self):
        data = json.loads(report_to_json(self.report))
        assert data["macro_f1"] == self.report.macro_f1
        assert {e["category"] for e in data["per_class"]} == {"English", "Dravidian"}

    def test_report_is_frozen(self):
        with pytest.raises(AttributeError):
            self.report.accuracy = 0.0


class TestReportShape:
    def test_report_dataclass_fields(self):
        report = evaluate([A], [A])
        assert isinstance(report, MetricReport)
        assert per_class_metrics(build_confusion([A], [A]))[0].support == 1
