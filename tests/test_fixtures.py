"""Integrity checks for the bundled assets and the brute-force metric oracle.

The bundled corpora, recorded replies, and frozen reports back most of the
end-to-end tests, so their own invariants get pinned down here.
"""

import json

import pytest

from conftest import token_rows
from dravlid.backends import ReplayBackend
from dravlid.cache import load_cache_records
from dravlid.corpus import parse_corpus_file
from dravlid.fixtures import (
    OracleResult,
    golden_report_path,
    oracle_metrics,
    replay_fixture_path,
    smoke_corpus_path,
)
from dravlid.metrics import count_pairs, evaluate, report_to_dict, report_to_json
from dravlid.prompting import ExperimentConfig, render_prompt
from dravlid.runner import evaluate_run, run_experiment
from dravlid.taxonomy import (
    _STRIP_CHARS,
    Category,
    TaskLanguage,
    normalize_response,
    valid_codes,
)

TASKS = [TaskLanguage.KANNADA, TaskLanguage.TAMIL]
A, B = Category.ENGLISH, Category.DRAVIDIAN


@pytest.mark.parametrize("task", TASKS)
class TestSmokeCorpora:
    def test_size_and_full_labeling(self, task):
        ds = parse_corpus_file(smoke_corpus_path(task), task)
        assert len(ds) == 30
        assert all(gold is not None for gold in ds.golds)

    def test_every_category_has_at_least_three_examples(self, task):
        ds = parse_corpus_file(smoke_corpus_path(task), task)
        for cat in Category:
            count = sum(1 for gold in ds.golds if gold is cat)
            assert count >= 3, cat

    def test_multiple_sentences(self, task):
        ds = parse_corpus_file(smoke_corpus_path(task), task)
        assert len({row[2] for row in token_rows(ds)}) >= 4


@pytest.mark.parametrize("task", TASKS)
class TestReplayFixtures:
    def test_covers_every_word_at_three_temperatures(self, task):
        records = load_cache_records(replay_fixture_path(task))
        assert len(records) == 90
        assert len({r.cache_key for r in records}) == 90

        ds = parse_corpus_file(smoke_corpus_path(task), task)
        want_prompts = {render_prompt(w, task) for w in ds.surfaces()}
        for temperature in (0.7, 0.8, 0.9):
            got = {r.prompt for r in records if r.temperature == temperature}
            assert got == want_prompts

    def test_replies_exercise_every_normalization_path(self, task):
        records = load_cache_records(replay_fixture_path(task))
        codes = set(valid_codes(task))
        saw = {"whole": False, "token_code": False, "name_only": False, "fail": False}
        for record in records:
            raw = record.raw_response
            outcome = normalize_response(raw, task)
            if not outcome.ok:
                saw["fail"] = True
                continue
            if raw.strip(_STRIP_CHARS).lower() in codes:
                saw["whole"] = True
            elif any(tok.strip(_STRIP_CHARS).lower() in codes for tok in raw.split()):
                saw["token_code"] = True
            else:
                saw["name_only"] = True
        assert all(saw.values()), saw

    def test_more_mistakes_at_higher_temperature(self, task):
        ds = parse_corpus_file(smoke_corpus_path(task), task)
        backend = ReplayBackend.from_jsonl(replay_fixture_path(task))
        scores = []
        for temperature in (0.7, 0.8, 0.9):
            config = ExperimentConfig(task=task, temperature=temperature)
            result = run_experiment(ds, config, backend)
            scores.append(evaluate_run(ds, result.predictions).accuracy)
        assert scores[0] > scores[1] > scores[2]
        assert all(0.0 < s < 1.0 for s in scores)


@pytest.mark.parametrize("task", TASKS)
class TestGoldenReports:
    def test_rederives_byte_identically(self, task):
        ds = parse_corpus_file(smoke_corpus_path(task), task)
        config = ExperimentConfig(task=task, temperature=0.7)
        backend = ReplayBackend.from_jsonl(replay_fixture_path(task))
        result = run_experiment(ds, config, backend)
        report = evaluate_run(ds, result.predictions, run_label=config.run_label)
        frozen = golden_report_path(task).read_text(encoding="utf-8")
        assert report_to_json(report) == frozen

    def test_expected_headline_numbers(self, task):
        data = json.loads(golden_report_path(task).read_text(encoding="utf-8"))
        assert data["accuracy"] == 0.9
        assert data["weighted_recall"] == 0.9
        assert data["run_label"] == f"{task.value}-t0.7"
        assert len(data["per_class"]) == 7


class TestOracle:
    def test_perfect_predictions_score_one(self):
        gold = [A, B, Category.NAME, A]
        result = oracle_metrics(gold, list(gold))
        assert result.accuracy == 1.0
        assert result.macro_f1 == 1.0
        assert result.weighted_precision == 1.0

    def test_hand_counted_example(self):
        # gold [A, A, B], pred [A, B, B]:
        # A: tp=1 fp=0 fn=1 -> P=1, R=.5, F=2/3; B: tp=1 fp=1 fn=0 -> P=.5, R=1, F=2/3
        result = oracle_metrics([A, A, B], [A, B, B])
        assert result.accuracy == pytest.approx(2 / 3)
        assert result.macro_f1 == pytest.approx(2 / 3)
        assert result.macro_precision == pytest.approx(0.75)
        assert result.weighted_precision == pytest.approx(5 / 6)
        assert result.weighted_recall == pytest.approx(2 / 3)

    def test_weighted_recall_equals_accuracy_by_independent_route(self):
        gold = [A, A, B, B, B, Category.SYMBOL]
        pred = [A, B, B, A, B, Category.SYMBOL]
        result = oracle_metrics(gold, pred)
        assert result.weighted_recall == pytest.approx(result.accuracy, abs=1e-15)

    def test_fixed_label_set_covers_all_seven(self):
        result = oracle_metrics([A], [A], fixed_label_set=True, include_zero_support=True)
        assert len(result.per_class) == 7
        assert result.macro_f1 == pytest.approx(1 / 7)

    def test_support_only_macro_skips_prediction_only_classes(self):
        result = oracle_metrics([A, A], [A, B])
        assert result.macro_precision == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            oracle_metrics([A], [A, B])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            oracle_metrics([], [])

    def test_agrees_with_metrics_module_on_goldens(self):
        for task in TASKS:
            ds = parse_corpus_file(smoke_corpus_path(task), task)
            backend = ReplayBackend.from_jsonl(replay_fixture_path(task))
            config = ExperimentConfig(task=task, temperature=0.7)
            result = run_experiment(ds, config, backend)
            gold = ds.gold_categories()
            report = evaluate(count_pairs(gold, list(result.predictions)))
            oracle: OracleResult = oracle_metrics(gold, list(result.predictions))
            report_dict = report_to_dict(report)
            for field in (
                "macro_f1",
                "macro_precision",
                "macro_recall",
                "weighted_f1",
                "weighted_precision",
                "weighted_recall",
                "accuracy",
            ):
                assert report_dict[field] == pytest.approx(
                    getattr(oracle, field), abs=1e-12
                ), (task, field)
