"""Hostile inputs end in their documented exit code, through main(argv).

Each input surface that reads JSON (cache and replay files, predictions
files, saved reports, chat reply bodies) meets deep nesting, numbers no
float holds and lone surrogates; token and lexicon files meet bytes that
are not UTF-8 and lone carriage returns, and --model a lone surrogate from
such an argv byte. Every case must end in its exit code with
one stderr line that names the file and line where there is one, and no
traceback. The cache file and its checkpoint, predictions lines, saved
reports, corpus files and --lexicon-dir lists also meet such shapes drawn
by hypothesis: a hostile checkpoint is always ignored.
"""

import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dravlid
import dravlid.cache
from dravlid.baseline import load_wordlist
from dravlid.cache import make_record
from dravlid.cli import main
from dravlid.fixtures import replay_fixture_path, smoke_corpus_path
from dravlid.metrics import REPORT_ROWS
from dravlid.prompting import DEFAULT_MODEL_ID, render_prompt
from dravlid.taxonomy import TaskLanguage
from dravlid.transport import MAX_REPLY_BYTES

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


# Hostile JSON texts. Each may stand for a whole line or document; those in
# HOSTILE_VALUES may also stand for any one value of a checkpoint, where none
# of them is what a checkpoint can hold.
HOSTILE_VALUES = [
    "[" * 100_000,  # deep nesting, never closed
    "[" * 5000 + "]" * 5000,  # deep nesting, closed
    "1" * 5000,  # an int past Python's digit limit
    "NaN", "Infinity", "-Infinity", "null", '{"x": [1]}',
    '"a\rb"',  # a lone CR, raw inside a string
]
SURROGATES = ['"\\ud800"', '"The word is \\udc80."']  # lone surrogate escapes
HOSTILE_JSON = st.sampled_from([*HOSTILE_VALUES, "[]", "1", '"x"', *SURROGATES])
# What may stand for one value of a checkpoint: JSON equal to an int but not
# one, which a field that must be an int refuses too.
CHECKPOINT_VALUES = [*HOSTILE_VALUES, "true", "1.0"]
HOSTILE_BYTES = st.sampled_from([b"\xff", b"\xc3", b"\r"])  # not UTF-8, a lone CR
THREE_WORDS = "hello\ten\nmane\tkn\nbook\ten\n"
THREE_RECORDS = "".join(
    make_record(DEFAULT_MODEL_ID, 0.7, render_prompt(word, TaskLanguage.KANNADA), "en",
                "2026-01-01T00:00:00Z").to_json_line() + "\n"
    for word in ("hello", "mane", "book"))
# A record for a word the corpus does not hold, so it answers no word.
OTHER = json.loads(make_record(DEFAULT_MODEL_ID, 0.7, "The word is other.", "en").to_json_line())


def with_value(doc, where: tuple, value: str) -> str:
    """doc as JSON text with the value at path `where` replaced by the text value."""
    doc = json.loads(json.dumps(doc))
    owner = doc
    for key in where[:-1]:
        owner = owner[key]
    owner[where[-1]] = "\0hostile\0"
    return json.dumps(doc, ensure_ascii=False).replace('"\\u0000hostile\\u0000"', value)


@st.composite
def hostile_documents(draw, doc: dict) -> bytes:
    """The JSON text of doc, without a line end, made hostile whole, in one
    top-level value, or at one byte."""
    kind = draw(st.sampled_from(["whole", "field", "byte"]))
    if kind == "whole":
        return draw(HOSTILE_JSON).encode("utf-8")
    if kind == "field":
        field = draw(st.sampled_from(sorted(doc)))
        return with_value(doc, (field,), draw(HOSTILE_JSON)).encode("utf-8")
    text = json.dumps(doc).encode("utf-8")
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(HOSTILE_BYTES) + text[at:]


# Where a value may go in a checkpoint of THREE_RECORDS, which is one group.
CHECKPOINT_PLACES = [("version",), ("bytes",), ("lines",), ("sha256",), ("groups",),
                     ("groups", 0), ("groups", 0, 0), ("groups", 0, 1), ("groups", 0, 2),
                     ("groups", 0, 2, 1), ("groups", 0, 3), ("groups", 0, 3, 2)]


@st.composite
def hostile_checkpoints(draw, doc: dict) -> bytes:
    """doc spoiled: replaced whole, a value of it replaced, or a byte that is
    not UTF-8 put into it. A prompt may hold a lone surrogate, as a cache
    line's may, so only a reply takes one."""
    kind = draw(st.sampled_from(["whole", "value", "byte"]))
    if kind == "whole":
        return draw(HOSTILE_JSON).encode("utf-8")
    text = json.dumps(doc).encode("utf-8")
    if kind == "byte":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from([b"\xff", b"\xc3"])) + text[at:]
    where = draw(st.sampled_from(CHECKPOINT_PLACES))
    reply = where == ("groups", 0, 3, 2)
    value = draw(st.sampled_from(CHECKPOINT_VALUES + SURROGATES if reply else CHECKPOINT_VALUES))
    return with_value(doc, where, value).encode("utf-8")


PREDICTION = {"category_code": "en", "raw_response": "en", "word": "hello"}
REPORT = {"run_label": "r", **{key: 0.5 for _, key in REPORT_ROWS}}


def assert_one_clean_exit(capsys, code: int) -> None:
    """A documented exit code, and at most one stderr line and no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (0, 1, 2, 3), err
    assert len(err.splitlines()) <= 1, err


# Bytes put into a token or lexicon file: not UTF-8, NUL, a lone CR, a BOM
# mid-file, extra tabs, the Tamil task's codes, a 70 kB line and U+2028.
HOSTILE_SPLICES = st.sampled_from([
    b"\xff", b"\xc3", b"\0", b"\r", b"\xef\xbb\xbf", b"\t", b"\t\t", b"tm", b"\ttmen",
    b"nalla\ttm\n", b"w" * 70_000, b"w" * 70_000 + b"\ten\n", "\u2028".encode("utf-8"),
])
# --lexicon-dir's file names, and the bundled Kannada list each is made from.
BUNDLED_LISTS = {"english_words.txt": "english_words.txt", "stems.txt": "kannada_stems.txt",
                 "names.txt": "names.txt", "locations.txt": "locations.txt",
                 "suffixes.txt": "kannada_suffixes.txt"}
DATA_DIR = Path(dravlid.__file__).parent / "data"


@st.composite
def spliced(draw, data: bytes) -> bytes:
    """data with one to three hostile pieces put in at one drawn place."""
    at = draw(st.integers(0, len(data)))
    pieces = draw(st.lists(HOSTILE_SPLICES, min_size=1, max_size=3))
    return data[:at] + b"".join(pieces) + data[at:]


def replay_classify(tmp_path, cache: Path) -> int:
    corpus = write(tmp_path / "c.tsv", THREE_WORDS)
    return main(["classify", corpus, "--task", "kn", "--backend", "replay",
                 "--cache", str(cache), "--out", str(tmp_path / "p.jsonl")])


class TestDrawnHostileShapes:
    """Hostile shapes drawn into the cache file and its checkpoint, a
    predictions line, a saved report, a corpus file and a --lexicon-dir
    list, run through main(argv): a documented exit code, at most one
    stderr line, no traceback."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(line=hostile_documents(OTHER), first=st.booleans(),
           end=st.sampled_from([b"\n", b"\r\n", b""]))
    def test_cache_line(self, tmp_path, capsys, line, first, end):
        cache = tmp_path / "cache.jsonl"
        records = THREE_RECORDS.encode("utf-8")
        first = first and end != b""  # a line without its end is the last
        cache.write_bytes(line + end + records if first else records + line + end)
        code = replay_classify(tmp_path, cache)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code in (0, 2), err
        assert len(err.splitlines()) <= 1, err
        if code == 2:  # only the hostile line can be at fault
            number = 1 if first else 4
            assert err.startswith(f"dravlid: data error: {cache} line {number}: "), err
        else:
            assert len((tmp_path / "p.jsonl").read_text(encoding="utf-8").splitlines()) == 3

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_checkpoint_is_ignored(self, tmp_path, capsys, monkeypatch, data):
        monkeypatch.setattr(dravlid.cache, "CHECKPOINT_MIN_BYTES", 1)
        cache = tmp_path / "cache.jsonl"
        index = tmp_path / "cache.jsonl.index"
        cache.write_text(THREE_RECORDS, encoding="utf-8")
        index.unlink(missing_ok=True)
        assert replay_classify(tmp_path, cache) == 0
        expected = (tmp_path / "p.jsonl").read_bytes()
        index.write_bytes(data.draw(hostile_checkpoints(json.loads(index.read_text()))))
        decoded = []
        real = dravlid.cache._decode_record
        monkeypatch.setattr(dravlid.cache, "_decode_record",
                            lambda text: decoded.append(text) or real(text))
        code = replay_classify(tmp_path, cache)
        monkeypatch.setattr(dravlid.cache, "_decode_record", real)
        err = capsys.readouterr().err
        assert (code, err) == (0, "")
        assert len(decoded) == 3  # every line: nothing came from the checkpoint
        assert (tmp_path / "p.jsonl").read_bytes() == expected

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(line=hostile_documents(PREDICTION), at=st.integers(0, 2),
           end=st.sampled_from([b"\n", b"\r\n", b""]))
    def test_predictions_line(self, tmp_path, capsys, line, at, end):
        gold = write(tmp_path / "g.tsv", THREE_WORDS)
        lines = [json.dumps({**PREDICTION, "word": word}).encode("utf-8") + b"\n"
                 for word in ("hello", "mane", "book")]
        at = 2 if end == b"" else at  # a line without its end is the last
        lines[at] = line + end
        pred = tmp_path / "p.jsonl"
        pred.write_bytes(b"".join(lines))
        code = main(["evaluate", "--gold", gold, "--pred", str(pred)])
        assert_one_clean_exit(capsys, code)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=hostile_documents(REPORT))
    def test_report_file(self, tmp_path, capsys, doc):
        (tmp_path / "a.report.json").write_bytes(doc)
        (tmp_path / "b.report.json").write_text(json.dumps(REPORT), encoding="utf-8")
        assert_one_clean_exit(capsys, main(["report", str(tmp_path)]))


    def run_baseline(self, tmp_path, capsys, corpus: str, *flags: str) -> None:
        """classify --out and sweep --out-dir over corpus, each a clean exit."""
        for argv in (
            ["classify", corpus, "--task", "kn", "--backend", "baseline",
             "--out", str(tmp_path / "p.jsonl"), *flags],
            ["sweep", corpus, "--task", "kn", "--backend", "baseline",
             "--out-dir", str(tmp_path / "runs"), *flags],
        ):
            assert_one_clean_exit(capsys, main(argv))

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corpus_file(self, tmp_path, capsys, data):
        corpus = tmp_path / "c.tsv"
        corpus.write_bytes(data.draw(spliced(THREE_WORDS.encode("utf-8"))))
        assert_one_clean_exit(capsys, main(["stats", str(corpus)]))
        self.run_baseline(tmp_path, capsys, str(corpus))

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(sorted(BUNDLED_LISTS)), data=st.data())
    def test_lexicon_dir(self, tmp_path, capsys, name, data):
        lexicons = tmp_path / "lexicons"
        lexicons.mkdir(exist_ok=True)
        for target, source in BUNDLED_LISTS.items():
            (lexicons / target).write_bytes((DATA_DIR / source).read_bytes())
        bundled = (DATA_DIR / BUNDLED_LISTS[name]).read_bytes()
        (lexicons / name).write_bytes(data.draw(spliced(bundled)))
        corpus = write(tmp_path / "c.tsv", THREE_WORDS)
        self.run_baseline(tmp_path, capsys, corpus, "--lexicon-dir", str(lexicons))


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


class TestReplyLimits:
    """--timeout bounds each whole attempt, and a reply holds at most
    MAX_REPLY_BYTES: a server that drips a reply or never ends one costs
    each attempt no more than the timeout."""

    @pytest.mark.parametrize(
        "stream, reason",
        [("drip", "timed out"), ("endless", f"reply longer than {MAX_REPLY_BYTES} bytes")])
    def test_is_a_failed_attempt_and_exit_3_within_the_bound(
        self, tmp_path, capsys, stream, reason
    ):
        corpus = write(tmp_path / "c.tsv", "hello\ten\n")
        cache = tmp_path / "cache.jsonl"
        with StubChatServer(stream=stream) as server:
            started = time.monotonic()
            code = live_classify(corpus, cache, server, "--timeout", "0.5",
                                 "--max-attempts", "2")
            elapsed = time.monotonic() - started
            assert server.connections == 2
        assert code == 3
        # Two attempts of at most 0.5 s each; the drip alone takes 4.7 s to
        # send one reply's 47 bytes.
        assert elapsed < 2.5
        one_error_line(capsys, "dravlid: transport error: chat endpoint failed after 2 "
                               f"attempts (no response): {reason}")
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
        text = "".join(f"Name{i}\n" for i in range(60))
        names = with_bad_byte(lexicons / "names.txt", text, 45)
        offset = Path(names).read_bytes().index(b"\xff")
        corpus = write(tmp_path / "c.tsv", "hello\ten\n")
        assert main(["classify", corpus, "--task", "kn", "--backend", "baseline",
                     "--lexicon-dir", str(lexicons)]) == 2
        one_error_line(capsys, f"dravlid: data error: {names}: line 45: 'utf-8' codec can't "
                       f"decode byte 0xff in position {offset}: invalid start byte")


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
