"""Hostile inputs end in their documented exit code, through main(argv).

Each input surface that reads JSON (cache and replay files, predictions
files, saved reports, chat reply bodies) meets deep nesting, numbers no
float holds and lone surrogates; token and lexicon files meet bytes that
are not UTF-8 and lone carriage returns, and --model a lone surrogate from
such an argv byte. Every case must end in its exit code with
one stderr line that names the file and line where there is one, and no
traceback.
"""

import json
from pathlib import Path

import pytest

from dravlid.baseline import load_wordlist
from dravlid.cache import make_record
from dravlid.cli import main
from dravlid.fixtures import replay_fixture_path, smoke_corpus_path
from dravlid.metrics import REPORT_ROWS
from dravlid.prompting import DEFAULT_MODEL_ID, render_prompt
from dravlid.taxonomy import TaskLanguage

from stub_server import StubChatServer, content_reply

KN_SMOKE = str(smoke_corpus_path(TaskLanguage.KANNADA))
KN_REPLAY = replay_fixture_path(TaskLanguage.KANNADA)
HELLO = make_record(DEFAULT_MODEL_ID, 0.7, render_prompt("hello", TaskLanguage.KANNADA), "en")


def with_field(field: str, value) -> str:
    """HELLO's line with one field replaced; json.dumps writes \\ud800 as an escape."""
    return json.dumps({**json.loads(HELLO.to_json_line()), field: value})


HOSTILE_CACHE_LINES = {
    "deep": ("[" * 100_000, "not JSON: maximum recursion depth exceeded"),
    "surrogate": (with_field("raw_response", "\ud800"),
                  "field 'raw_response' is not valid Unicode"),
    "huge-temperature": (with_field("temperature", 10**400),
                         "field 'temperature' does not fit a float"),
}


def one_error_line(capsys, prefix: str) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(prefix), err
    return err


def live_classify(corpus, cache, server, *extra):
    return main(
        ["classify", corpus, "--task", "kn", "--backend", "live",
         "--base-url", server.base_url, "--api-key", "k", "--cache", str(cache),
         "--rate-limit", "0", "--retry-base-delay", "0", *extra]
    )


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCacheLines:
    @pytest.mark.parametrize("case", HOSTILE_CACHE_LINES)
    def test_replay_names_file_and_line(self, tmp_path, capsys, case):
        line, reason = HOSTILE_CACHE_LINES[case]
        recorded = KN_REPLAY.read_text(encoding="utf-8")
        replay = tmp_path / "replay.jsonl"
        write(replay, recorded + line + "\n")
        out = tmp_path / "p.jsonl"
        code = main(["classify", KN_SMOKE, "--task", "kn", "--backend", "replay",
                     "--cache", str(replay), "--out", str(out)])
        assert code == 2
        number = recorded.count("\n") + 1
        one_error_line(capsys, f"dravlid: data error: {replay} line {number}: {reason}")
        assert not out.exists()

    @pytest.mark.parametrize("case", HOSTILE_CACHE_LINES)
    def test_live_names_file_and_line(self, tmp_path, capsys, case):
        line, reason = HOSTILE_CACHE_LINES[case]
        corpus = write(tmp_path / "c.tsv", "hello\ten\n")
        cache = tmp_path / "cache.jsonl"
        write(cache, HELLO.to_json_line() + "\n" + line + "\n")
        with StubChatServer() as server:
            assert live_classify(corpus, cache, server) == 2
            assert server.request_count == 0
        one_error_line(capsys, f"dravlid: data error: {cache} line 2: {reason}")

    def test_deep_torn_last_line_is_dropped_and_mended(self, tmp_path, capsys, caplog):
        corpus = write(tmp_path / "c.tsv", "hello\ten\nmane\tkn\n")
        cache = tmp_path / "cache.jsonl"
        write(cache, HELLO.to_json_line() + "\n" + "[" * 100_000)
        with StubChatServer() as server:
            assert live_classify(corpus, cache, server) == 0
            assert server.request_count == 1  # mane only
        assert "Traceback" not in capsys.readouterr().err
        assert "line 2: dropped a torn last line" in caplog.text
        assert cache.read_text(encoding="utf-8").count("\n") == 2


class TestPredictionsLines:
    @pytest.mark.parametrize(
        "line, reason",
        [("[" * 1000, "maximum recursion depth exceeded"),
         ('{"category_code": "en", "word": ' + "1" * 5000 + "}",
          "Exceeds the limit (4300 digits)")],
        ids=["deep", "huge-int"],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, line, reason):
        gold = write(tmp_path / "g.tsv", "hello\ten\nmane\tkn\n")
        pred = write(tmp_path / "p.jsonl",
                     '{"category_code": "en", "raw_response": "en", "word": "hello"}\n'
                     + line + "\n")
        assert main(["evaluate", "--gold", gold, "--pred", pred]) == 2
        err = one_error_line(
            capsys, f"dravlid: data error: {pred}: line 2: bad predictions line: ")
        assert reason in err


class TestReportFiles:
    def report(self, **values) -> str:
        return json.dumps({"run_label": "r", **{key: 0.5 for _, key in REPORT_ROWS}, **values})

    def test_deep_nesting_is_data_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "a.report.json"
        write(path, "[" * 100_000)
        assert main(["report", str(tmp_path)]) == 2
        one_error_line(capsys, f"dravlid: data error: {path}: maximum recursion depth")

    @pytest.mark.parametrize("text", ["1e999", "NaN", "-Infinity", "1" + "0" * 400])
    def test_non_finite_value_is_refused(self, tmp_path, capsys, text):
        path = tmp_path / "a.report.json"
        write(path, self.report(accuracy=0.5).replace('"accuracy": 0.5', f'"accuracy": {text}'))
        assert main(["report", str(tmp_path)]) == 2
        one_error_line(
            capsys, f"dravlid: data error: {path} has a non-finite value for: accuracy")

    def test_finite_values_still_render(self, tmp_path, capsys):
        write(tmp_path / "a.report.json", self.report())
        assert main(["report", str(tmp_path)]) == 0
        assert "| Accuracy | 0.5000 |" in capsys.readouterr().out


class TestReplyBodies:
    @pytest.mark.parametrize("workers", ["1", "4"])
    @pytest.mark.parametrize(
        "body, reason",
        [("[" * 5000, "response body is not valid JSON: maximum recursion depth"),
         (json.dumps(content_reply("en\ud800")),
          "choices[0].message.content is not valid Unicode"),
         (json.dumps({"choices": [{"message": {"content": 5}}]}),
          "choices[0].message.content is not a string")],
        ids=["deep", "surrogate", "not-a-string"],
    )
    def test_is_transport_error_and_never_cached(
        self, tmp_path, capsys, body, reason, workers
    ):
        corpus = write(tmp_path / "c.tsv", "hello\ten\nmane\tkn\n")
        cache = tmp_path / "cache.jsonl"
        with StubChatServer() as server:
            server.enqueue(200, body)
            server.enqueue(200, body)
            code = live_classify(corpus, cache, server, "--max-workers", workers)
        assert code == 3
        one_error_line(capsys, f"dravlid: transport error: {reason}")
        assert not cache.exists() or cache.read_bytes() == b""


class TestBaseUrl:
    @pytest.mark.parametrize(
        "base_url", ["http://[::1", "http://user:secret@[::1/v?key=secret#secret"])
    def test_unsplittable_url_is_usage_error_naming_the_flag(
        self, tmp_path, capsys, base_url
    ):
        corpus = write(tmp_path / "c.tsv", "hello\ten\n")
        code = main(["classify", corpus, "--task", "kn", "--backend", "live",
                     "--base-url", base_url, "--api-key", "k"])
        assert code == 1
        err = one_error_line(
            capsys, "dravlid: error: base URL is not a valid URL: Invalid IPv6 URL")
        assert "secret" not in err


def token_lines(count: int) -> tuple[str, str]:
    """A gold corpus of count tokens and the predictions file that matches it."""
    words = [f"w{i}" for i in range(count)]
    gold = "".join(f"{word}\ten\n" for word in words)
    pred = "".join(json.dumps({"category_code": "en", "raw_response": "en", "word": word})
                   + "\n" for word in words)
    return gold, pred


def with_bad_byte(path: Path, text: str, line: int) -> str:
    """Write text with a 0xff byte in the middle of its 1-based line."""
    lines = text.encode("utf-8").split(b"\n")
    lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
    path.write_bytes(b"\n".join(lines))
    return str(path)


class TestBytesNotUtf8:
    def test_corpus_byte_is_named_by_file_and_line(self, tmp_path, capsys):
        gold, _ = token_lines(3000)
        corpus = with_bad_byte(tmp_path / "c.tsv", gold, 2001)
        offset = Path(corpus).read_bytes().index(b"\xff")
        assert main(["classify", corpus, "--task", "kn", "--backend", "baseline"]) == 2
        one_error_line(
            capsys, f"dravlid: data error: {corpus}: line 2001: 'utf-8' codec can't "
            f"decode byte 0xff in position {offset}: invalid start byte")

    def test_predictions_byte_is_named_by_file_and_line(self, tmp_path, capsys):
        # Long enough that the text stream decodes it in several chunks.
        gold_text, pred_text = token_lines(3000)
        gold = write(tmp_path / "g.tsv", gold_text)
        pred = with_bad_byte(tmp_path / "p.jsonl", pred_text, 2001)
        offset = Path(pred).read_bytes().index(b"\xff")
        assert main(["evaluate", "--gold", gold, "--pred", pred]) == 2
        one_error_line(
            capsys, f"dravlid: data error: {pred}: line 2001: 'utf-8' codec can't "
            f"decode byte 0xff in position {offset}: invalid start byte")

    def test_predictions_file_may_start_with_a_byte_order_mark(self, tmp_path, capsys):
        gold_text, pred_text = token_lines(3)
        gold = write(tmp_path / "g.tsv", gold_text)
        pred = tmp_path / "p.jsonl"
        pred.write_bytes(b"\xef\xbb\xbf" + pred_text.encode("utf-8"))
        assert main(["evaluate", "--gold", gold, "--pred", str(pred)]) == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == 1.0

    def test_lexicon_byte_is_named_by_file(self, tmp_path, capsys):
        lexicons = tmp_path / "lex"
        lexicons.mkdir()
        for name in ("english_words", "stems", "locations", "suffixes"):
            write(lexicons / f"{name}.txt", "entry\n")
        names = with_bad_byte(lexicons / "names.txt", "Rama\n", 1)
        corpus = write(tmp_path / "c.tsv", "hello\ten\n")
        assert main(["classify", corpus, "--task", "kn", "--backend", "baseline",
                     "--lexicon-dir", str(lexicons)]) == 2
        one_error_line(capsys, f"dravlid: data error: {names}: 'utf-8' codec can't "
                       "decode byte 0xff in position 2: invalid start byte")


class TestLoneCarriageReturn:
    """Token, predictions and lexicon files end lines at LF only, as a string
    does: a lone CR stays inside its line, and one CR before LF is dropped."""

    @pytest.mark.parametrize("command", ["stats", "classify", "evaluate"])
    def test_in_a_corpus_surface_is_data_error_naming_line_1(self, tmp_path, capsys, command):
        corpus = tmp_path / "c.tsv"
        corpus.write_bytes(b"ab\rcd\ten\nef\ten\n")
        corpus = str(corpus)
        argv = {
            "stats": ["stats", corpus],
            "classify": ["classify", corpus, "--task", "kn", "--backend", "baseline"],
            "evaluate": ["evaluate", "--gold", corpus, "--pred", corpus],
        }[command]
        assert main(argv) == 2
        one_error_line(capsys, f"dravlid: data error: {corpus}: line 1: "
                       "token surface contains tab or newline: 'ab\\rcd'")

    def test_crlf_corpus_gives_the_outputs_of_its_lf_twin(self, tmp_path, capsys):
        lf = Path(KN_SMOKE).read_bytes()
        assert b"\r" not in lf
        outputs = []
        for name, data in (("lf", lf), ("crlf", lf.replace(b"\n", b"\r\n"))):
            corpus = tmp_path / f"{name}.tsv"
            corpus.write_bytes(data)
            runs = tmp_path / name
            commands = (
                ["stats", str(corpus), "--format", "json"],
                ["classify", str(corpus), "--task", "kn", "--backend", "baseline"],
                ["evaluate", "--gold", str(corpus), "--pred", str(tmp_path / "pred.jsonl")],
                ["sweep", str(corpus), "--task", "kn", "--backend", "replay",
                 "--cache", str(KN_REPLAY), "--out-dir", str(runs)],
            )
            for argv in commands:
                assert main(argv) == 0
                outputs.append(capsys.readouterr().out.replace(str(corpus), "CORPUS"))
                if argv[0] == "classify" and name == "lf":
                    (tmp_path / "pred.jsonl").write_text(outputs[-1], encoding="utf-8")
            outputs.append(sorted(
                (path.name, path.read_bytes())
                for path in [*runs.glob("*.predictions.jsonl"), *runs.glob("*.report.json")]
            ))
        assert outputs[:5] == outputs[5:]

    def test_predictions_line_numbers_count_lf_only(self, tmp_path, capsys):
        gold = write(tmp_path / "g.tsv", "a\ten\nb\ten\n")
        pred = tmp_path / "p.jsonl"
        # JSON takes a CR as whitespace, so line 1 is one whole object.
        pred.write_bytes(b'{"word": "a",\r"category_code": "en"}\r\n'
                         b'{"word": "b", "category_code": "zz"}\n')
        assert main(["evaluate", "--gold", gold, "--pred", str(pred)]) == 2
        one_error_line(capsys, f"dravlid: data error: {pred}: line 2: bad predictions line")

    def test_bad_byte_line_counts_lf_only(self, tmp_path, capsys):
        corpus = tmp_path / "c.tsv"
        corpus.write_bytes(b"a\ten\nb\rc\ten\nd\xff\ten\n")
        assert main(["stats", str(corpus)]) == 2
        one_error_line(capsys, f"dravlid: data error: {corpus}: line 3: 'utf-8' codec")

    def test_lexicon_entry_keeps_its_lone_cr(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_bytes(b"Ra\rma\nSita\r\n")
        assert load_wordlist(path) == ["Ra\rma", "Sita"]


class TestModelFlag:
    @pytest.mark.parametrize("command", ["classify", "sweep"])
    @pytest.mark.parametrize("backend", ["live", "replay", "baseline"])
    def test_model_no_request_can_carry_is_usage_error(
        self, tmp_path, capsys, command, backend
    ):
        # argv carries an undecodable byte as a lone surrogate. Neither the
        # corpus nor the cache exists: the flag is refused before any read.
        missing = str(tmp_path / "missing")
        code = main([command, missing, "--task", "kn", "--backend", backend,
                     "--model", "gpt\udcff", "--cache", missing,
                     "--base-url", "http://127.0.0.1:9", "--api-key", "k"])
        assert code == 1
        one_error_line(capsys, "dravlid: error: --model 'gpt\\udcff' is not valid UTF-8")
        assert not any(tmp_path.iterdir())
