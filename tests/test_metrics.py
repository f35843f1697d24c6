"""Metric suite correctness, checked against the brute-force oracle."""

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dravlid.backends import ReplayBackend
from dravlid.corpus import parse_corpus_file
from dravlid.fixtures import oracle_metrics, replay_fixture_path, smoke_corpus_path
from dravlid.metrics import (
    REPORT_ROWS,
    MetricReport,
    count_pairs,
    evaluate,
    report_dicts_to_markdown,
    report_to_json,
    report_to_markdown,
    reports_to_markdown,
)
from dravlid.prompting import ExperimentConfig
from dravlid.runner import evaluate_run, run_experiment
from dravlid.taxonomy import Category, TaskLanguage

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
        self.report = evaluate(count_pairs([A, A, B], [A, B, B]))

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
        report = evaluate(count_pairs([A, B, C], [A, B, C]))
        for field in HEADLINE_FIELDS:
            assert getattr(report, field) == 1.0

    def test_all_wrong_zero_division_yields_zero(self):
        # B is never predicted and A never appears in gold: both directions
        # of zero denominators occur, and nothing raises.
        report = evaluate(count_pairs([B, B], [A, A]))
        assert report.accuracy == 0.0
        assert report.macro_f1 == 0.0
        assert report.weighted_precision == 0.0

    def test_single_instance(self):
        report = evaluate(count_pairs([A], [A]))
        assert report.accuracy == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate(count_pairs([A], [A, B]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate(count_pairs([], []))


class TestConfusionMatrix:
    """The pair counts are the matrix's cells: each class's support is its
    row sum, and its precision denominator its column sum."""

    def test_cell_conservation(self):
        report = evaluate(count_pairs([A, A, B, C], [A, B, B, C]))
        assert sum(m.support for m in report.per_class) == 4

    def test_labels_in_canonical_order(self):
        report = evaluate(count_pairs([C, A], [A, C]))
        assert [m.category for m in report.per_class] == [A, C]

    def test_count_lookup(self):
        pairs = count_pairs([A, A, B], [A, B, B])
        assert pairs == {(A, A): 1, (A, B): 1, (B, B): 1}
        assert [(m.category, m.tp) for m in evaluate(pairs).per_class] == [(A, 1), (B, 1)]

    @given(gold_pred_pairs(max_n=60), st.sampled_from(["support", "fixed"]))
    def test_row_sums_are_gold_counts(self, pair, convention):
        gold, pred = pair
        report = evaluate(count_pairs(gold, pred), macro_convention=convention)
        labels = [m.category for m in report.per_class]
        assert labels == [c for c in Category if c in labels]
        assert sum(m.support for m in report.per_class) == len(gold)
        for m in report.per_class:
            assert m.support == gold.count(m.category)
            predicted = pred.count(m.category)
            assert m.precision == (m.tp / predicted if predicted else 0.0)


class TestAgainstOracle:
    @given(gold_pred_pairs())
    def test_support_convention_matches_oracle(self, pair):
        gold, pred = pair
        report = evaluate(count_pairs(gold, pred), macro_convention="support")
        expected = oracle_metrics(gold, pred)
        for field in HEADLINE_FIELDS:
            assert abs(getattr(report, field) - getattr(expected, field)) < 1e-12, field

    @given(gold_pred_pairs())
    def test_fixed_convention_matches_oracle(self, pair):
        gold, pred = pair
        report = evaluate(count_pairs(gold, pred), macro_convention="fixed")
        expected = oracle_metrics(
            gold, pred, include_zero_support=True, fixed_label_set=True
        )
        for field in HEADLINE_FIELDS:
            assert abs(getattr(report, field) - getattr(expected, field)) < 1e-12, field

    @given(gold_pred_pairs())
    def test_weighted_recall_is_accuracy_bitwise(self, pair):
        gold, pred = pair
        report = evaluate(count_pairs(gold, pred))
        assert report.weighted_recall == report.accuracy

    @given(gold_pred_pairs(max_n=80))
    def test_per_class_counts_match_oracle(self, pair):
        gold, pred = pair
        report = evaluate(count_pairs(gold, pred))
        expected = {m.category: m for m in oracle_metrics(gold, pred).per_class}
        for m in report.per_class:
            o = expected[m.category]
            assert m.support == o.support
            assert m.tp == o.tp
            assert abs(m.f1 - o.f1) < 1e-12


class TestMacroConventions:
    def test_fixed_includes_all_seven(self):
        report = evaluate(count_pairs([A, B], [A, B]), macro_convention="fixed")
        assert len(report.per_class) == 7
        # Five categories contribute zeros to the macro pool.
        assert report.macro_f1 == pytest.approx(2 / 7, abs=1e-12)

    def test_support_ignores_unseen(self):
        report = evaluate(count_pairs([A, B], [A, B]), macro_convention="support")
        assert len(report.per_class) == 2
        assert report.macro_f1 == 1.0

    def test_prediction_only_class_counted_not_averaged(self):
        # C never occurs in gold but is predicted once.
        report = evaluate(count_pairs([A, A, B], [A, C, B]), macro_convention="support")
        assert report.prediction_only_classes == 1
        # Macro still averages over A and B only.
        by_cat = {m.category: m for m in report.per_class}
        pool = [by_cat[A], by_cat[B]]
        assert report.macro_f1 == pytest.approx(
            sum(m.f1 for m in pool) / 2, abs=1e-12
        )

    def test_fixed_vs_support_prediction_only_agrees(self):
        report = evaluate(count_pairs([A, A, B], [A, C, B]), macro_convention="fixed")
        assert report.prediction_only_classes == 1

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            evaluate(count_pairs([A], [A]), macro_convention="micro")


class TestRendering:
    def setup_method(self):
        self.report = evaluate(count_pairs([A, A, B], [A, B, B]), run_label="demo")

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

    def test_no_reports_rejected(self):
        with pytest.raises(ValueError, match="no reports to render"):
            report_dicts_to_markdown([])

    def test_multi_run_columns(self):
        other = evaluate(count_pairs([A, B], [A, B]), run_label="clean")
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
        report = evaluate(count_pairs([A], [A]))
        assert isinstance(report, MetricReport)
        assert report.per_class[0].support == 1


# SHA-256 of report_to_json for each smoke replay run, by task, temperature
# and macro convention. The smoke corpora hold every category in gold, so
# the two conventions give the same bytes; the 0.7 digests are the golden
# reports'.
PINNED_REPORTS = {
    ("kannada", 0.7): "f2e64cdd6abe25296fa5c61ecf476cb3161b7cc7eb47255eaaf1358e84b24a0b",
    ("kannada", 0.8): "d4fec1b36a9436282a3248f99f7534755f270df7ae3bc1689039a3c51365faa2",
    ("kannada", 0.9): "a41393c6209d6061620c246062a0da7bc08ca58eb215f4a64475c1af396676d4",
    ("tamil", 0.7): "659531cd3ca064e28654ffababf3e4c9a299ca0df08d1dd110f2a1a02b168ab5",
    ("tamil", 0.8): "388c2df32d171ff0df82e9d7a23415a139c2f14b0ee8753e278eb00b69101f47",
    ("tamil", 0.9): "3e3e8ce709e0e8f90ff8b114d6749b4ff7ef453612fa61a1363dc7c0d2d9bb1a",
}


@pytest.mark.parametrize("convention", ["support", "fixed"])
@pytest.mark.parametrize("task, temperature", PINNED_REPORTS)
def test_smoke_replay_report_bytes_are_pinned(task, temperature, convention):
    task = TaskLanguage(task)
    ds = parse_corpus_file(smoke_corpus_path(task), task)
    config = ExperimentConfig(task=task, temperature=temperature)
    result = run_experiment(ds, config, ReplayBackend.from_jsonl(replay_fixture_path(task)))
    # Scored by word, as a sweep scores a run, and per token, as evaluate does.
    for scored in (result, result.predictions):
        text = report_to_json(evaluate_run(ds, scored, config.run_label, convention))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == PINNED_REPORTS[task.value, temperature]
