"""Experiment orchestration: run, manifest bookkeeping, evaluation."""

import io
import json

import pytest

from dravlid.backends import BaselineBackend, ReplayBackend
from dravlid.cache import make_record
from dravlid.corpus import parse_corpus, parse_corpus_file
from dravlid.errors import CorpusParseError, UnparseableResponseError
from dravlid.fixtures import replay_fixture_path, smoke_corpus_path
from dravlid.metrics import REPORT_ROWS, report_to_json
from dravlid.prompting import ExperimentConfig, render_prompt, sweep_configs
from dravlid.runner import (
    evaluate_run,
    read_predictions_jsonl,
    run_experiment,
    write_predictions,
    write_predictions_jsonl,
)
from dravlid.taxonomy import Category, TaskLanguage

KN = TaskLanguage.KANNADA
TM = TaskLanguage.TAMIL


def three_token_setup():
    ds = parse_corpus("a\ten\nb\tkn\nc\tother\n", KN)
    config = ExperimentConfig(task=KN, temperature=0.7)
    records = [
        make_record(config.model_id, 0.7, render_prompt(w, KN), reply)
        for w, reply in (("a", "en"), ("b", "kn"), ("c", "???"))
    ]
    return ds, config, ReplayBackend(records)


class TestRunExperiment:
    def test_three_token_map_to_other(self):
        ds, config, backend = three_token_setup()
        result = run_experiment(ds, config, backend, failure_policy="map_to_other")
        assert list(result.predictions) == [
            Category.ENGLISH,
            Category.DRAVIDIAN,
            Category.OTHER,
        ]
        assert result.manifest.unparseable_count == 1

    def test_three_token_strict_aborts_naming_word(self):
        ds, config, backend = three_token_setup()
        with pytest.raises(UnparseableResponseError, match="'c'"):
            run_experiment(ds, config, backend, failure_policy="strict")

    def test_baseline_over_smoke_corpus(self):
        ds = parse_corpus_file(smoke_corpus_path(KN), KN)
        config = ExperimentConfig(task=KN)
        first = run_experiment(ds, config, BaselineBackend())
        second = run_experiment(ds, config, BaselineBackend())
        assert first.predictions == second.predictions
        assert first.manifest.cache_hits == 0
        assert first.manifest.backend_kind == "baseline"

    def test_one_prediction_per_token_in_order(self):
        ds = parse_corpus_file(smoke_corpus_path(TM), TM)
        backend = ReplayBackend.from_jsonl(replay_fixture_path(TM))
        result = run_experiment(ds, ExperimentConfig(task=TM), backend)
        assert len(result.predictions) == len(ds)
        assert [result.distinct[i].word for i in result.index] == ds.surfaces()

    def test_empty_dataset_rejected(self):
        ds = parse_corpus("\n", KN)
        with pytest.raises(ValueError, match="empty"):
            run_experiment(ds, ExperimentConfig(task=KN), BaselineBackend())

    def test_unknown_policy_rejected_before_any_requests(self):
        ds, config, backend = three_token_setup()
        with pytest.raises(ValueError, match="policy"):
            run_experiment(ds, config, backend, failure_policy="ignore")


class TestManifest:
    def make_result(self):
        ds, config, backend = three_token_setup()
        return run_experiment(ds, config, backend)

    def test_timestamps_ordered(self):
        manifest = self.make_result().manifest
        assert manifest.finished_at >= manifest.started_at
        assert manifest.started_at.endswith("Z")

    def test_counts_bounded_by_dataset(self):
        manifest = self.make_result().manifest
        assert 0 <= manifest.unparseable_count <= manifest.token_count
        assert 0 <= manifest.cache_hits <= manifest.token_count

    def test_replay_answers_count_as_cache_hits(self):
        manifest = self.make_result().manifest
        assert manifest.cache_hits == 3

    def test_dict_shape(self):
        data = self.make_result().manifest.to_dict()
        for key in (
            "run_label",
            "task",
            "model_id",
            "temperature",
            "max_output_tokens",
            "corpus_path",
            "backend_kind",
            "failure_policy",
            "started_at",
            "finished_at",
            "unparseable_count",
            "cache_hits",
            "token_count",
            "message_format",
        ):
            assert key in data, key
        assert data["task"] == "kannada"
        assert data["backend_kind"] == "replay"
        assert data["message_format"] == "single-user"

    def test_json_parses(self):
        manifest = self.make_result().manifest
        assert json.loads(manifest.to_json())["temperature"] == 0.7


class TestEvaluateRun:
    def test_perfect_predictions_all_ones(self):
        ds = parse_corpus("a\ten\nb\tkn\n", KN)
        report = evaluate_run(ds, [Category.ENGLISH, Category.DRAVIDIAN])
        for _, field in REPORT_ROWS:
            assert getattr(report, field) == 1.0

    def test_worked_example_macro_f1(self):
        ds = parse_corpus("x\ten\ny\ten\nz\tkn\n", KN)
        preds = [Category.ENGLISH, Category.DRAVIDIAN, Category.DRAVIDIAN]
        report = evaluate_run(ds, preds)
        assert report.macro_f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_tamil_replay_run_populates_all_rows(self):
        ds = parse_corpus_file(smoke_corpus_path(TM), TM)
        backend = ReplayBackend.from_jsonl(replay_fixture_path(TM))
        config = ExperimentConfig(task=TM, temperature=0.7)
        result = run_experiment(ds, config, backend)
        report = evaluate_run(ds, result.predictions, run_label=config.run_label)
        for _, field in REPORT_ROWS:
            value = getattr(report, field)
            assert 0.0 < value <= 1.0, field
        assert report.run_label == "tamil-t0.7"
        assert len(report.per_class) == 7

    def test_unlabeled_tokens_rejected(self):
        ds = parse_corpus("a\ten\nb\n", KN)
        with pytest.raises(ValueError, match="gold"):
            evaluate_run(ds, [Category.ENGLISH, Category.OTHER])

    def test_length_mismatch_rejected(self):
        ds = parse_corpus("a\ten\n", KN)
        with pytest.raises(ValueError, match="1"):
            evaluate_run(ds, [Category.ENGLISH, Category.ENGLISH])


class TestDeterminism:
    @pytest.mark.parametrize("task", [KN, TM])
    def test_replay_runs_are_byte_identical(self, task):
        ds = parse_corpus_file(smoke_corpus_path(task), task)
        config = ExperimentConfig(task=task, temperature=0.8)
        backend = ReplayBackend.from_jsonl(replay_fixture_path(task))

        def run_once() -> str:
            result = run_experiment(ds, config, backend)
            report = evaluate_run(ds, result.predictions, run_label=config.run_label)
            return report_to_json(report)

        assert run_once() == run_once()

    def test_conservation_predictions_tokens_cells(self):
        ds = parse_corpus_file(smoke_corpus_path(KN), KN)
        backend = ReplayBackend.from_jsonl(replay_fixture_path(KN))
        result = run_experiment(ds, ExperimentConfig(task=KN), backend)
        from dravlid.metrics import build_confusion, count_pairs

        cm = build_confusion(count_pairs(ds.gold_categories(), list(result.predictions)))
        assert len(result.predictions) == len(ds) == cm.n
        assert sum(sum(row) for row in cm.counts) == cm.n


class TestSweep:
    def test_one_result_per_config_in_order(self):
        ds = parse_corpus_file(smoke_corpus_path(KN), KN)
        backend = ReplayBackend.from_jsonl(replay_fixture_path(KN))
        configs = sweep_configs(KN, "gpt-3.5-turbo")
        results = [run_experiment(ds, config, backend) for config in configs]
        assert [r.manifest.config.temperature for r in results] == [0.7, 0.8, 0.9]
        # Higher fixture temperatures answer with more mistakes.
        scores = [
            evaluate_run(ds, r.predictions).accuracy for r in results
        ]
        assert scores[0] > scores[1] > scores[2]


class TestPredictionsFile:
    def test_round_trip(self, tmp_path):
        ds, config, backend = three_token_setup()
        result = run_experiment(ds, config, backend)
        path = tmp_path / "preds.jsonl"
        write_predictions_jsonl(result, path)
        words, categories = read_predictions_jsonl(path, KN)
        assert words == ["a", "b", "c"]
        assert categories == list(result.predictions)
        last_line = path.read_text(encoding="utf-8").splitlines()[2]
        assert json.loads(last_line)["raw_response"] == "???"

    def test_jsonl_lines_have_contract_keys(self):
        ds, config, backend = three_token_setup()
        result = run_experiment(ds, config, backend)
        out = io.BytesIO()
        write_predictions(result.distinct, result.index, out)
        for line in out.getvalue().splitlines():
            assert set(json.loads(line)) == {"word", "raw_response", "category_code"}

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"word": "a", "category_code": "en"}\nnot json\n')
        with pytest.raises(CorpusParseError, match="line 2"):
            read_predictions_jsonl(path, KN)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            '{"word": "a", "category_code": "en"}\n'
            "\n"
            "   \n"
            '{"word": "b", "category_code": "kn"}\n'
            "\n"
            "\n"
        )
        words, categories = read_predictions_jsonl(path, KN)
        assert words == ["a", "b"]
        assert categories == [Category.ENGLISH, Category.DRAVIDIAN]

    def test_repeated_bad_line_reports_its_first_occurrence(self, tmp_path):
        good = '{"word": "a", "category_code": "en"}\n'
        bad = '{"word": "a", "category_code": "zz"}\n'
        path = tmp_path / "preds.jsonl"
        path.write_text(good + bad + good + good + bad)
        with pytest.raises(CorpusParseError, match="line 2") as excinfo:
            read_predictions_jsonl(path, KN)
        assert excinfo.value.line_number == 2

    def test_trailing_data_after_the_object_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"word": "a", "category_code": "en"} {}\n')
        with pytest.raises(CorpusParseError, match="line 1: .*Extra data"):
            read_predictions_jsonl(path, KN)

    def test_foreign_code_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"word": "a", "raw_response": "tm", "category_code": "tm"}\n')
        with pytest.raises(CorpusParseError):
            read_predictions_jsonl(path, KN)
