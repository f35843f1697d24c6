"""End-to-end command-line tests driven through main(argv).

Exit-code contract: 0 success, 1 usage, 2 data, 3 transport.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from dravlid.cache import load_cache_records
from dravlid.cli import main
from dravlid.fixtures import replay_fixture_path, smoke_corpus_path
from dravlid.taxonomy import TaskLanguage

from stub_server import StubChatServer

KN_SMOKE = str(smoke_corpus_path(TaskLanguage.KANNADA))
TM_SMOKE = str(smoke_corpus_path(TaskLanguage.TAMIL))
KN_REPLAY = str(replay_fixture_path(TaskLanguage.KANNADA))


def scripted_words(mapping):
    """Stub reply callable: answer according to the word inside the prompt."""

    def reply(body):
        prompt = body["messages"][0]["content"]
        word = prompt.rsplit("The word is ", 1)[1][:-1]
        return mapping[word]

    return reply


def write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


class TestStats:
    def test_text_output_with_task_autodetect(self, capsys):
        assert main(["stats", KN_SMOKE]) == 0
        out = capsys.readouterr().out
        assert "task: kannada" in out
        assert "tokens: 30" in out
        assert "unlabeled: 0" in out

    def test_json_output(self, capsys):
        assert main(["stats", TM_SMOKE, "--task", "tm", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["task"] == "tamil"
        assert payload["total"] == 30
        assert len(payload["per_category"]) == 7
        assert sum(payload["per_category"].values()) == 30

    def test_missing_file_is_data_error(self, capsys):
        assert main(["stats", "/nonexistent/corpus.tsv"]) == 2
        assert "data error" in capsys.readouterr().err

    def test_malformed_line_is_data_error(self, tmp_path, capsys):
        corpus = write_lines(tmp_path / "bad.tsv", "a\ten", "b\ten\textra")
        assert main(["stats", corpus]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_mixed_task_codes_need_explicit_task(self, tmp_path, capsys):
        corpus = write_lines(tmp_path / "mixed.tsv", "a\tkn", "b\ttm")
        assert main(["stats", corpus]) == 2
        assert main(["stats", corpus, "--task", "kn"]) == 2  # tm is still foreign
        assert main(["stats", corpus, "--task", "tm"]) == 2


class TestUsageErrors:
    def test_no_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self):
        assert main(["stats", KN_SMOKE, "--bogus"]) == 1

    def test_bad_backend_choice(self):
        assert main(["classify", KN_SMOKE, "--task", "kn", "--backend", "oracle"]) == 1

    def test_classify_requires_task(self):
        assert main(["classify", KN_SMOKE, "--backend", "baseline"]) == 1

    def test_replay_requires_cache(self, capsys):
        code = main(["classify", KN_SMOKE, "--task", "kn", "--backend", "replay"])
        assert code == 1
        assert "--cache" in capsys.readouterr().err

    def test_live_requires_endpoint(self, capsys):
        code = main(["classify", KN_SMOKE, "--task", "kn", "--backend", "live"])
        assert code == 1
        assert "LI_API_BASE" in capsys.readouterr().err

    def test_zero_max_workers(self, capsys):
        code = main(
            ["classify", KN_SMOKE, "--task", "kn", "--backend", "live",
             "--base-url", "http://127.0.0.1:9", "--api-key", "k",
             "--max-workers", "0"]
        )
        assert code == 1
        assert "max_workers" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["stats", "--help"]) == 0
        assert "usage: dravlid stats" in capsys.readouterr().out

    def test_bad_temperature_list(self):
        code = main(
            ["sweep", KN_SMOKE, "--task", "kn", "--backend", "baseline",
             "--temperatures", "hot,cold"]
        )
        assert code == 1


class TestClassify:
    def test_baseline_to_stdout(self, capsys):
        assert main(["classify", KN_SMOKE, "--task", "kn", "--backend", "baseline"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 30
        for line in lines:
            assert set(json.loads(line)) == {"word", "raw_response", "category_code"}

    def test_replay_to_file_with_manifest(self, tmp_path, capsys):
        out = tmp_path / "preds.jsonl"
        code = main(
            ["classify", KN_SMOKE, "--task", "kn", "--backend", "replay",
             "--cache", KN_REPLAY, "--out", str(out)]
        )
        assert code == 0
        summary = capsys.readouterr().out
        assert "wrote 30 predictions" in summary
        assert "30 cache hits" in summary
        manifest = json.loads(
            (tmp_path / "preds.jsonl.manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["backend_kind"] == "replay"
        assert manifest["token_count"] == 30
        assert len(out.read_text(encoding="utf-8").splitlines()) == 30

    def test_replay_missing_word_is_data_error(self, tmp_path, capsys):
        corpus = write_lines(tmp_path / "c.tsv", "unrecorded\ten")
        code = main(
            ["classify", corpus, "--task", "kn", "--backend", "replay",
             "--cache", KN_REPLAY]
        )
        assert code == 2
        assert "unrecorded" in capsys.readouterr().err

    def test_strict_policy_surfaces_unparseable_as_data_error(self, tmp_path, capsys):
        # Token 30 of the bundled replay answers with an unrecognizable reply.
        code = main(
            ["classify", KN_SMOKE, "--task", "kn", "--backend", "replay",
             "--cache", KN_REPLAY, "--policy", "strict", "--out",
             str(tmp_path / "p.jsonl")]
        )
        assert code == 2
        assert "qwerty" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ['{"foo": 1}', "[1, 2]"])
    def test_replay_line_not_a_record_is_data_error(self, tmp_path, capsys, line):
        recorded = Path(KN_REPLAY).read_text(encoding="utf-8")
        replay = tmp_path / "replay.jsonl"
        replay.write_text(recorded + line + "\n", encoding="utf-8")
        code = main(
            ["classify", KN_SMOKE, "--task", "kn", "--backend", "replay",
             "--cache", str(replay)]
        )
        assert code == 2
        bad_line = recorded.count("\n") + 1
        assert f"data error: {replay} line {bad_line}: " in capsys.readouterr().err


class TestClassifyLive:
    def classify(self, corpus, cache, server, *extra):
        return main(
            ["classify", corpus, "--task", "kn", "--backend", "live",
             "--base-url", server.base_url, "--api-key", "test-key",
             "--cache", str(cache), "--rate-limit", "0",
             "--retry-base-delay", "0", *extra]
        )

    def test_end_to_end_with_cache_reuse(self, tmp_path, capsys):
        corpus = write_lines(tmp_path / "c.tsv", "hello\ten", "mane\tkn")
        cache = tmp_path / "cache.jsonl"
        out = tmp_path / "preds.jsonl"
        with StubChatServer(scripted_words({"hello": "en", "mane": "kn"})) as server:
            assert self.classify(corpus, cache, server, "--out", str(out)) == 0
            assert server.request_count == 2
            codes = [
                json.loads(line)["category_code"]
                for line in out.read_text(encoding="utf-8").splitlines()
            ]
            assert codes == ["en", "kn"]
            assert "0 cache hits" in capsys.readouterr().out

            # Same run again: every answer comes from the cache.
            assert self.classify(corpus, cache, server, "--out", str(out)) == 0
            assert server.request_count == 2
            assert "2 cache hits" in capsys.readouterr().out

            # --cache-bust starts over.
            assert (
                self.classify(corpus, cache, server, "--cache-bust", "--out", str(out))
                == 0
            )
            assert server.request_count == 4

    def test_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        corpus = write_lines(tmp_path / "c.tsv", "hello\ten")
        with StubChatServer(scripted_words({"hello": "en"})) as server:
            monkeypatch.setenv("LI_API_BASE", server.base_url)
            monkeypatch.setenv("LI_API_KEY", "from-env")
            code = main(
                ["classify", corpus, "--task", "kn", "--backend", "live",
                 "--cache", str(tmp_path / "cache.jsonl"), "--rate-limit", "0"]
            )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["category_code"] == "en"

    def test_auth_failure_is_transport_error(self, tmp_path, capsys):
        corpus = write_lines(tmp_path / "c.tsv", "hello\ten")
        with StubChatServer() as server:
            server.enqueue(401, {"error": "bad key"})
            code = self.classify(corpus, tmp_path / "cache.jsonl", server)
        assert code == 3
        assert "transport error" in capsys.readouterr().err

    def test_exhausted_retries_is_transport_error(self, tmp_path, capsys):
        corpus = write_lines(tmp_path / "c.tsv", "hello\ten")
        with StubChatServer() as server:
            server.enqueue(503, {"error": "down"})
            server.enqueue(503, {"error": "down"})
            code = self.classify(
                corpus, tmp_path / "cache.jsonl", server, "--max-attempts", "2"
            )
        assert code == 3
        assert "transport error" in capsys.readouterr().err

    def test_malformed_reply_is_transport_error(self, tmp_path, capsys):
        corpus = write_lines(tmp_path / "c.tsv", "hello\ten")
        with StubChatServer() as server:
            server.enqueue(200, {"unexpected": "shape"})
            code = self.classify(corpus, tmp_path / "cache.jsonl", server)
        assert code == 3

    def test_non_object_reply_is_transport_error(self, tmp_path, capsys):
        corpus = write_lines(tmp_path / "c.tsv", "hello\ten")
        with StubChatServer() as server:
            server.enqueue(200, "[1, 2]")
            code = self.classify(corpus, tmp_path / "cache.jsonl", server)
        assert code == 3
        assert "not an object" in capsys.readouterr().err

    def test_torn_cache_tail_is_dropped_and_mended(self, tmp_path, caplog):
        cache = tmp_path / "cache.jsonl"
        both = write_lines(tmp_path / "both.tsv", "hello\ten", "mane\tkn")
        with StubChatServer(scripted_words({"hello": "en", "mane": "kn"})) as server:
            hello = write_lines(tmp_path / "hello.tsv", "hello\ten")
            assert self.classify(hello, cache, server) == 0
            # What a crash in the middle of the next append leaves behind.
            with cache.open("a", encoding="utf-8") as fh:
                fh.write('{"cache_key": "0123')
            assert self.classify(both, cache, server) == 0
            assert "dropped a torn last line" in caplog.text
            assert server.request_count == 2
            caplog.clear()
            assert len(load_cache_records(cache)) == 2
            assert caplog.records == []
            # The mended file serves the whole corpus.
            assert self.classify(both, cache, server) == 0
            assert server.request_count == 2


class TestEvaluate:
    @pytest.fixture()
    def kn_preds(self, tmp_path):
        out = tmp_path / "kn-run.jsonl"
        code = main(
            ["classify", KN_SMOKE, "--task", "kn", "--backend", "replay",
             "--cache", KN_REPLAY, "--out", str(out)]
        )
        assert code == 0
        return str(out)

    def test_json_report(self, kn_preds, capsys):
        capsys.readouterr()
        assert main(["evaluate", "--gold", KN_SMOKE, "--pred", kn_preds]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accuracy"] == pytest.approx(0.9)
        assert payload["run_label"] == "kn-run"
        assert len(payload["per_class"]) == 7

    def test_markdown_report(self, kn_preds, capsys):
        capsys.readouterr()
        code = main(
            ["evaluate", "--gold", KN_SMOKE, "--pred", kn_preds,
             "--format", "markdown", "--run-label", "demo"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("| Metric | demo |")
        assert "| Accuracy | 0.9000 |" in out

    def test_report_to_file(self, kn_preds, tmp_path, capsys):
        capsys.readouterr()
        dest = tmp_path / "report.json"
        code = main(
            ["evaluate", "--gold", KN_SMOKE, "--pred", kn_preds, "--out", str(dest)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(dest.read_text(encoding="utf-8"))["accuracy"] == 0.9

    def test_macro_convention_flag(self, tmp_path, capsys):
        gold = write_lines(tmp_path / "g.tsv", "a\ten", "b\ten")
        pred = write_lines(
            tmp_path / "p.jsonl",
            '{"word": "a", "raw_response": "en", "category_code": "en"}',
            '{"word": "b", "raw_response": "kn", "category_code": "kn"}',
        )
        assert main(["evaluate", "--gold", gold, "--pred", pred]) == 0
        support = json.loads(capsys.readouterr().out)
        assert main(["evaluate", "--gold", gold, "--pred", pred, "--macro", "fixed"]) == 0
        fixed = json.loads(capsys.readouterr().out)
        assert support["macro_precision"] == 1.0
        assert fixed["macro_precision"] == pytest.approx(1 / 7)
        assert support["prediction_only_classes"] == 1

    def test_count_mismatch_is_data_error(self, tmp_path, capsys):
        gold = write_lines(tmp_path / "g.tsv", "a\ten", "b\ten")
        pred = write_lines(
            tmp_path / "p.jsonl",
            '{"word": "a", "raw_response": "en", "category_code": "en"}',
        )
        assert main(["evaluate", "--gold", gold, "--pred", pred]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_word_misalignment_is_data_error(self, tmp_path, capsys):
        gold = write_lines(tmp_path / "g.tsv", "a\ten")
        pred = write_lines(
            tmp_path / "p.jsonl",
            '{"word": "x", "raw_response": "en", "category_code": "en"}',
        )
        assert main(["evaluate", "--gold", gold, "--pred", pred]) == 2
        assert "'x'" in capsys.readouterr().err

    def test_malformed_predictions_are_data_errors(self, tmp_path):
        gold = write_lines(tmp_path / "g.tsv", "a\ten")
        pred = write_lines(tmp_path / "p.jsonl", "not json at all")
        assert main(["evaluate", "--gold", gold, "--pred", pred]) == 2

    def test_unlabeled_gold_is_data_error(self, tmp_path):
        gold = write_lines(tmp_path / "g.tsv", "a\ten", "b")
        pred = write_lines(
            tmp_path / "p.jsonl",
            '{"word": "a", "raw_response": "en", "category_code": "en"}',
            '{"word": "b", "raw_response": "en", "category_code": "en"}',
        )
        assert main(["evaluate", "--gold", gold, "--pred", pred]) == 2


class TestSweepAndReport:
    def run_sweep(self, out_dir, capsys):
        code = main(
            ["sweep", KN_SMOKE, "--task", "kn", "--backend", "replay",
             "--cache", KN_REPLAY, "--out-dir", str(out_dir)]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_sweep_writes_run_dir_and_table(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        table = self.run_sweep(out_dir, capsys)
        assert table.startswith("| Metric | kannada-t0.7 | kannada-t0.8 | kannada-t0.9 |")
        assert "| Accuracy |" in table
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == sorted(
            f"kannada-t{t}.{suffix}"
            for t in ("0.7", "0.8", "0.9")
            for suffix in ("predictions.jsonl", "manifest.json", "report.json")
        )

    def test_report_rerenders_sweep_table(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        table = self.run_sweep(out_dir, capsys)
        assert main(["report", str(out_dir)]) == 0
        assert capsys.readouterr().out == table

    def test_custom_temperature_list(self, tmp_path, capsys):
        code = main(
            ["sweep", KN_SMOKE, "--task", "kn", "--backend", "replay",
             "--cache", KN_REPLAY, "--temperatures", "0.9"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("| Metric | kannada-t0.9 |")

    def test_unlabeled_corpus_skips_scoring(self, tmp_path, capsys):
        corpus = write_lines(tmp_path / "c.tsv", "hello", "mane")
        code = main(
            ["sweep", corpus, "--task", "kn", "--backend", "baseline",
             "--out-dir", str(tmp_path / "runs")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "unlabeled sweep runs" in out
        names = sorted(p.name for p in (tmp_path / "runs").iterdir())
        assert all(".report.json" not in name for name in names)
        assert len(names) == 6  # predictions + manifest per temperature

    def test_report_on_empty_dir_is_data_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "no *.report.json" in capsys.readouterr().err

    def test_report_rejects_foreign_json(self, tmp_path):
        (tmp_path / "x.report.json").write_text('{"run_label": "x"}', encoding="utf-8")
        assert main(["report", str(tmp_path)]) == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dravlid.cli", "stats", KN_SMOKE],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0
    assert "tokens: 30" in proc.stdout
