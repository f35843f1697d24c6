"""The reply-index checkpoint beside a response cache file, PATH.index.

A load takes the index from a checkpoint whose digest matches the file's
first bytes and decodes only the lines after them; any other checkpoint is
ignored. Whatever the checkpoint holds, the index equals a full parse of the
file, a bad line is still exit 2 naming its absolute line, and nothing the
checkpoint holds is an error.
"""

import json
import os
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dravlid.cache
from dravlid.backends import ReplayBackend
from dravlid.cache import CHECKPOINT_MIN_BYTES, ResponseCache, make_record
from dravlid.cli import main
from dravlid.errors import CacheReadError
from dravlid.prompting import DEFAULT_MODEL_ID, render_prompt
from dravlid.taxonomy import TaskLanguage

from conftest import flat_index
from stub_server import StubChatServer


def index_of(path):
    return path.with_name(path.name + ".index")


def line(model="m", temp=0.7, prompt="The word is x.", reply="en", end="\n") -> str:
    return make_record(model, temp, prompt, reply, "2026-01-01T00:00:00Z").to_json_line() + end


def records(count: int, start: int = 0) -> str:
    return "".join(line(prompt=f"The word is w{i}.", reply=f"r{i}")
                   for i in range(start, start + count))


def full_parse(path) -> dict:
    """The index a load without a checkpoint builds: that of a copy of the
    file with no checkpoint beside it."""
    copy = path.with_name(path.name + ".copy")
    copy.write_bytes(path.read_bytes())
    try:
        return flat_index(ResponseCache(copy))
    finally:
        copy.unlink()
        index_of(copy).unlink(missing_ok=True)


@pytest.fixture
def floor(monkeypatch):
    """Checkpoint after any load that parsed a byte, so small files get one."""
    monkeypatch.setattr(dravlid.cache, "CHECKPOINT_MIN_BYTES", 1)


@pytest.fixture
def decoded(monkeypatch):
    """The lines the line reader decodes, counted."""
    calls = []
    real = dravlid.cache._decode_record

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(dravlid.cache, "_decode_record", counting)
    return calls


# Few distinct requests, so identities repeat; both zeros; non-ASCII text;
# blank lines and CRLF ends among the records.
LINES = st.one_of(
    st.builds(
        line,
        model=st.sampled_from(["m", "ಮ"]),
        temp=st.sampled_from([0.0, -0.0, 0.7, 1]),
        prompt=st.sampled_from(["The word is x.", "The word is ಮನೆ.", "வணக்கம்"]),
        reply=st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
        end=st.sampled_from(["\n", "\r\n"]),
    ),
    st.sampled_from(["\n", "\r\n", " \t\n"]),
)


class TestEqualsAFullParse:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(batches=st.lists(st.lists(LINES, max_size=5), min_size=1, max_size=4))
    def test_after_random_appends(self, tmp_path, floor, batches):
        path = tmp_path / "c.jsonl"
        path.unlink(missing_ok=True)
        index_of(path).unlink(missing_ok=True)
        for batch in batches:
            with path.open("ab") as fh:
                fh.write("".join(batch).encode("utf-8"))
            assert flat_index(ResponseCache(path)) == full_parse(path)
            # The load just made checkpoints the file as it now stands.
            if path.stat().st_size:
                assert json.loads(index_of(path).read_text())["bytes"] == path.stat().st_size
        assert flat_index(ResponseCache(path)) == full_parse(path)

    def test_prompt_with_a_lone_surrogate_escape_round_trips(self, tmp_path, floor, decoded):
        path = tmp_path / "c.jsonl"
        # cache_key cannot hash such a prompt, so the record is hand-made;
        # json.dumps writes the surrogate as an escape.
        rec = {**asdict(make_record("m", 0.7, "p", "en")), "prompt": "The word is \udc80."}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        first = flat_index(ResponseCache(path))
        decoded.clear()
        assert flat_index(ResponseCache(path)) == first
        assert decoded == []
        assert first == full_parse(path) == {("m", "0.7", "The word is \udc80."): "en"}


class TestTail:
    def test_append_decodes_only_the_new_lines_and_refreshes(self, tmp_path, floor, decoded):
        path = tmp_path / "c.jsonl"
        path.write_text(records(5), encoding="utf-8")
        ResponseCache(path)
        assert len(decoded) == 5
        with path.open("a", encoding="utf-8") as fh:
            fh.write(records(3, start=5))
        decoded.clear()
        assert len(ResponseCache(path)) == 8
        assert len(decoded) == 3
        checkpoint = json.loads(index_of(path).read_text())
        assert (checkpoint["bytes"], checkpoint["lines"]) == (path.stat().st_size, 8)
        decoded.clear()
        replies = flat_index(ResponseCache(path))
        assert decoded == []
        assert replies == full_parse(path)

    def test_records_appended_through_the_cache_are_read_as_tail(self, tmp_path, floor, decoded):
        path = tmp_path / "c.jsonl"
        path.write_text(records(2), encoding="utf-8")
        ResponseCache(path).put_if_absent(make_record("m", 0.7, "The word is new.", "kn"))
        decoded.clear()
        cache = ResponseCache(path)
        assert len(decoded) == 1
        assert cache.get("m", "0.7", "The word is new.") == "kn"

    def test_first_record_in_the_checkpoint_wins_over_the_tail(self, tmp_path, floor):
        path = tmp_path / "c.jsonl"
        path.write_text(line(reply="en"), encoding="utf-8")
        ResponseCache(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(line(reply="kn"))
        assert ResponseCache(path).get("m", "0.7", "The word is x.") == "en"


class TestPrefixEdits:
    def test_same_size_edit_forces_a_full_parse(self, tmp_path, floor, decoded):
        path = tmp_path / "c.jsonl"
        path.write_text(records(4), encoding="utf-8")
        ResponseCache(path)
        path.write_text(records(4).replace('"r2"', '"x2"'), encoding="utf-8")
        decoded.clear()
        cache = ResponseCache(path)
        assert len(decoded) == 4
        assert cache.get("m", "0.7", "The word is w2.") == "x2"

    @pytest.mark.parametrize("where, number", [("prefix", 2), ("tail", 6)])
    def test_corrupt_line_names_its_absolute_line(self, tmp_path, floor, where, number):
        path = tmp_path / "c.jsonl"
        text = records(4)
        path.write_text(text, encoding="utf-8")
        ResponseCache(path)
        if where == "prefix":  # same size, so only the digest tells
            lines = text.splitlines(keepends=True)
            lines[1] = "[" + lines[1][1:]
            path.write_text("".join(lines), encoding="utf-8")
        else:
            path.write_text(text + records(1, start=4) + "[1, 2]\n", encoding="utf-8")
        with pytest.raises(CacheReadError, match=f"^{path} line {number}: "):
            ResponseCache(path)

    @pytest.mark.parametrize("where, number", [("prefix", 2), ("tail", 4)])
    def test_corrupt_line_is_exit_2_through_the_cli(
        self, tmp_path, capsys, floor, where, number
    ):
        corpus = tmp_path / "c.tsv"
        corpus.write_text("hello\ten\n", encoding="utf-8")
        prompt = render_prompt("hello", TaskLanguage.KANNADA)
        text = line(DEFAULT_MODEL_ID, prompt=prompt) + records(2)
        path = tmp_path / "cache.jsonl"
        path.write_text(text, encoding="utf-8")
        ResponseCache(path)
        if where == "prefix":  # same size, so only the digest tells
            lines = text.splitlines(keepends=True)
            lines[1] = "[" + lines[1][1:]
            path.write_text("".join(lines), encoding="utf-8")
        else:
            path.write_text(text + "not json\n", encoding="utf-8")
        with StubChatServer() as server:
            code = main(["classify", str(corpus), "--task", "kn", "--backend", "live",
                         "--base-url", server.base_url, "--api-key", "k",
                         "--cache", str(path), "--rate-limit", "0"])
            assert server.request_count == 0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"dravlid: data error: {path} line {number}: "), err
        assert "Traceback" not in err


class TestReplay:
    """Replay reads through the same index, checkpoint included."""

    def test_load_after_a_checkpoint_decodes_only_the_lines_after_it(
        self, tmp_path, floor, decoded
    ):
        path = tmp_path / "c.jsonl"
        path.write_text(records(5), encoding="utf-8")
        ResponseCache(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(records(3, start=5))
        decoded.clear()
        backend = ReplayBackend.from_jsonl(path)
        assert len(decoded) == 3
        assert flat_index(backend.cache) == full_parse(path)
        assert json.loads(index_of(path).read_text())["lines"] == 8

    def test_bad_line_after_the_checkpoint_is_exit_2_through_the_cli(
        self, tmp_path, capsys, floor
    ):
        corpus = tmp_path / "c.tsv"
        corpus.write_text("hello\ten\n", encoding="utf-8")
        prompt = render_prompt("hello", TaskLanguage.KANNADA)
        text = line(DEFAULT_MODEL_ID, prompt=prompt) + records(2)
        path = tmp_path / "cache.jsonl"
        path.write_text(text, encoding="utf-8")
        ResponseCache(path)
        path.write_text(text + "not json\n", encoding="utf-8")
        code = main(["classify", str(corpus), "--task", "kn", "--backend", "replay",
                     "--cache", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"dravlid: data error: {path} line 4: "), err
        assert "Traceback" not in err


def _valid_checkpoint(path) -> dict:
    path.write_text(records(3), encoding="utf-8")
    ResponseCache(path)
    return json.loads(index_of(path).read_text())


def _with_group(doc, group) -> str:
    return json.dumps({**doc, "groups": [group]})


def _mid_line(doc, data) -> str:
    """Covers all but the last newline, with the digest of what it covers."""
    covered = data[:doc["bytes"] - 1]
    sha256 = dravlid.cache.hashlib.sha256(covered).hexdigest()
    return json.dumps({**doc, "bytes": len(covered), "sha256": sha256})


# Each takes a checkpoint that holds for the file, and the file's bytes, and
# spoils the checkpoint.
HOSTILE = {
    "not-json": lambda doc, data: "{not json",
    "deep-nesting": lambda doc, data: "[" * 100_000,
    "huge-int": lambda doc, data: '{"version": 1, "bytes": ' + "1" * 5000 + "}",
    "not-an-object": lambda doc, data: json.dumps([doc]),
    "unknown-version": lambda doc, data: json.dumps({**doc, "version": 99}),
    "version-true": lambda doc, data: json.dumps({**doc, "version": True}),
    "version-float": lambda doc, data: json.dumps({**doc, "version": 1.0}),
    "no-version": lambda doc, data: json.dumps(
        {k: v for k, v in doc.items() if k != "version"}),
    "covers-past-the-end": lambda doc, data: json.dumps({**doc, "bytes": doc["bytes"] + 1}),
    "covers-negative": lambda doc, data: json.dumps({**doc, "bytes": -1}),
    "covers-huge": lambda doc, data: json.dumps({**doc, "bytes": 10**30}),
    "covers-bool": lambda doc, data: json.dumps({**doc, "bytes": True}),
    "covers-mid-line": _mid_line,
    "lines-str": lambda doc, data: json.dumps({**doc, "lines": "3"}),
    "lines-negative": lambda doc, data: json.dumps({**doc, "lines": -1}),
    "digest-list": lambda doc, data: json.dumps({**doc, "sha256": [doc["sha256"]]}),
    "groups-int": lambda doc, data: json.dumps({**doc, "groups": 5}),
    "group-short": lambda doc, data: _with_group(doc, ["m", "0.7", []]),
    "reply-int": lambda doc, data: _with_group(doc, ["m", "0.7", ["p"], [5]]),
    "prompt-null": lambda doc, data: _with_group(doc, ["m", "0.7", [None], ["en"]]),
    "model-list": lambda doc, data: _with_group(doc, [["m"], "0.7", ["p"], ["en"]]),
    "lengths-differ": lambda doc, data: _with_group(doc, ["m", "0.7", ["p", "q"], ["en"]]),
    "lone-surrogate-reply": lambda doc, data: _with_group(doc, ["m", "0.7", ["p"], ["\ud800"]]),
}


class TestHostileCheckpoint:
    @pytest.mark.parametrize("case", HOSTILE)
    def test_is_ignored(self, tmp_path, floor, decoded, case):
        path = tmp_path / "c.jsonl"
        doc = _valid_checkpoint(path)
        index_of(path).write_text(HOSTILE[case](doc, path.read_bytes()), encoding="utf-8")
        decoded.clear()
        replies = flat_index(ResponseCache(path))
        assert len(decoded) == 3  # every line: nothing came from the checkpoint
        assert replies == full_parse(path)

    def test_directory_in_its_place_is_ignored(self, tmp_path, floor):
        path = tmp_path / "c.jsonl"
        path.write_text(records(3), encoding="utf-8")
        index_of(path).mkdir()
        assert flat_index(ResponseCache(path)) == full_parse(path)

    def test_not_utf8_is_ignored(self, tmp_path, floor):
        path = tmp_path / "c.jsonl"
        _valid_checkpoint(path)
        index_of(path).write_bytes(b"\xff\xfe{}")
        assert flat_index(ResponseCache(path)) == full_parse(path)

    def test_cli_run_over_a_hostile_checkpoint_succeeds(self, tmp_path, capsys, floor):
        corpus = tmp_path / "c.tsv"
        corpus.write_text("hello\ten\n", encoding="utf-8")
        path = tmp_path / "cache.jsonl"
        prompt = render_prompt("hello", TaskLanguage.KANNADA)
        path.write_text(line(DEFAULT_MODEL_ID, prompt=prompt), encoding="utf-8")
        index_of(path).write_text("[" * 100_000, encoding="utf-8")
        out = tmp_path / "p.jsonl"
        with StubChatServer() as server:
            code = main(["classify", str(corpus), "--task", "kn", "--backend", "live",
                         "--base-url", server.base_url, "--api-key", "k",
                         "--cache", str(path), "--rate-limit", "0", "--out", str(out)])
            assert server.request_count == 0
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err


class TestWhenWritten:
    def test_torn_last_line_writes_no_checkpoint(self, tmp_path, floor):
        path = tmp_path / "c.jsonl"
        path.write_text(records(3) + line()[:30], encoding="utf-8")
        assert len(ResponseCache(path)) == 3
        assert not index_of(path).exists()

    def test_last_line_without_its_newline_writes_no_checkpoint(self, tmp_path, floor):
        path = tmp_path / "c.jsonl"
        path.write_text(records(3).rstrip("\n"), encoding="utf-8")
        assert len(ResponseCache(path)) == 3
        assert not index_of(path).exists()

    def test_read_only_directory_still_loads(self, tmp_path, floor, monkeypatch):
        directory = tmp_path / "ro"
        directory.mkdir()
        path = directory / "c.jsonl"
        path.write_text(records(3), encoding="utf-8")
        directory.chmod(0o555)
        try:
            # Refused even where the permission bits are not (as for root).
            def refuse(src, dst):
                raise PermissionError(13, "Permission denied", str(dst))

            monkeypatch.setattr(dravlid.cache.os, "replace", refuse)
            assert flat_index(ResponseCache(path)) == full_parse(path)
            assert sorted(os.listdir(directory)) == ["c.jsonl"]
        finally:
            directory.chmod(0o755)

    def test_floor(self, tmp_path):
        path = tmp_path / "c.jsonl"
        text = line(reply="x" * (CHECKPOINT_MIN_BYTES - len(line(reply="")) - 1))
        path.write_text(text, encoding="utf-8")
        assert path.stat().st_size == CHECKPOINT_MIN_BYTES - 1
        ResponseCache(path)
        assert not index_of(path).exists()
        path.write_text(line(reply="x" * (CHECKPOINT_MIN_BYTES - len(line(reply="")))),
                        encoding="utf-8")
        ResponseCache(path)
        checkpoint = json.loads(index_of(path).read_text())
        assert (checkpoint["bytes"], checkpoint["lines"]) == (CHECKPOINT_MIN_BYTES, 1)

    def test_small_tail_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        path.write_text(records(4), encoding="utf-8")
        monkeypatch.setattr(dravlid.cache, "CHECKPOINT_MIN_BYTES", path.stat().st_size)
        ResponseCache(path)
        before = index_of(path).read_bytes()
        with path.open("a", encoding="utf-8") as fh:
            fh.write(records(1, start=4))
        assert len(ResponseCache(path)) == 5
        assert index_of(path).read_bytes() == before

    def test_cache_bust_removes_the_checkpoint(self, tmp_path, floor):
        path = tmp_path / "c.jsonl"
        path.write_text(records(3), encoding="utf-8")
        ResponseCache(path)
        assert index_of(path).exists()
        assert len(ResponseCache(path, cache_bust=True)) == 0
        assert not index_of(path).exists()
        assert path.read_bytes() == b""

    def test_checkpoint_holds_the_parsed_bytes(self, tmp_path, floor):
        path = tmp_path / "c.jsonl"
        text = records(2) + "\n" + line(temp=-0.0, prompt="ಮನೆ", reply="ಕನ್ನಡ", end="\r\n")
        path.write_text(text, encoding="utf-8")
        ResponseCache(path)
        checkpoint = json.loads(index_of(path).read_text())
        data = path.read_bytes()
        assert checkpoint["version"] == 1
        assert (checkpoint["bytes"], checkpoint["lines"]) == (len(data), 4)
        assert checkpoint["sha256"] == dravlid.cache.hashlib.sha256(data).hexdigest()
        assert checkpoint["groups"] == [
            ["m", "0.7", ["The word is w0.", "The word is w1."], ["r0", "r1"]],
            ["m", "-0.0", ["ಮನೆ"], ["ಕನ್ನಡ"]],
        ]


def grouped(text: str) -> list:
    """The groups a checkpoint of these cache lines holds, computed here:
    replies grouped by model and temperature text, groups and the prompts in
    each in order of first appearance, the first record for a request winning."""
    groups = {}
    for text_line in text.splitlines():
        if text_line.strip():
            rec = json.loads(text_line)
            group = groups.setdefault((rec["model_id"], repr(float(rec["temperature"]))), {})
            group.setdefault(rec["prompt"], rec["raw_response"])
    return [[*request, list(replies), list(replies.values())]
            for request, replies in groups.items()]


class TestFormat:
    def test_groups_are_the_file_grouped_by_model_and_temperature(
        self, tmp_path, floor, decoded
    ):
        path = tmp_path / "c.jsonl"
        head = [line("m", 0.7, "p1", "a"), line("ಮ", 0.0, "p1", "b"),
                line("m", -0.0, "p2", "c"), line("m", 0.7, "p2", "d"),
                line("m", 0.7, "p1", "repeat"), line("ಮ", 0.0, "p3", "e"),
                line("m", 1, "p1", "f")]
        tail = [line("m", 1.0, "p2", "g"), line("m2", 0.7, "p1", "h"),
                line("m", -0.0, "p2", "again"), line("m", 0.0, "p4", "i"),
                line("ಮ", 0.0, "p1", "late")]
        path.write_text("".join(head), encoding="utf-8")
        ResponseCache(path)
        assert json.loads(index_of(path).read_text())["groups"] == grouped("".join(head))
        with path.open("a", encoding="utf-8") as fh:
            fh.write("".join(tail))
        decoded.clear()
        after_tail = flat_index(ResponseCache(path))
        assert len(decoded) == len(tail)
        checkpoint = json.loads(index_of(path).read_text())
        assert checkpoint["groups"] == grouped("".join(head + tail))
        assert (checkpoint["bytes"], checkpoint["lines"]) == (path.stat().st_size, 12)
        decoded.clear()
        checkpointed = flat_index(ResponseCache(path))
        assert decoded == []
        assert checkpointed == after_tail == full_parse(path)
