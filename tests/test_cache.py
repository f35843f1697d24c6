"""Response cache: keying, persistence, first-record-wins semantics."""

import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dravlid.cache
from dravlid.cache import (
    CacheRecord,
    ResponseCache,
    cache_key,
    make_record,
    temperature_text,
    utc_now_rfc3339,
)
from dravlid.errors import CacheReadError, CacheWriteError

from conftest import flat_index, read_cache_records


def record(prompt="The word is x.", response="en", temp=0.7) -> CacheRecord:
    return make_record(
        model_id="gpt-3.5-turbo", temperature=temp, prompt=prompt, raw_response=response
    )


def identity(rec: CacheRecord) -> tuple[str, str, str]:
    """The arguments of ResponseCache.get that find rec."""
    return rec.model_id, temperature_text(rec.temperature), rec.prompt


def replies_of(records: list[CacheRecord]) -> dict[tuple[str, str, str], str]:
    """The reply index a load of these records builds: the first record wins."""
    replies = {}
    for rec in records:
        replies.setdefault(identity(rec), rec.raw_response)
    return replies


class TestCacheKey:
    def test_key_is_sha256_hex(self):
        key = cache_key("m", 0.7, "p")
        assert re.fullmatch(r"[0-9a-f]{64}", key)

    def test_same_inputs_same_key(self):
        assert cache_key("m", 0.7, "p") == cache_key("m", 0.7, "p")
        assert cache_key("m", 1, "p") == cache_key("m", 1.0, "p")

    def test_any_field_changes_key(self):
        base = cache_key("m", 0.7, "p")
        assert cache_key("m2", 0.7, "p") != base
        assert cache_key("m", 0.8, "p") != base
        assert cache_key("m", 0.7, "q") != base

    def test_unicode_prompts_keyed_stably(self):
        assert cache_key("m", 0.7, "ಮನೆ") == cache_key("m", 0.7, "ಮನೆ")


class TestRecordFormat:
    def test_json_line_round_trip(self):
        rec = record(response="ответ: en")
        again = CacheRecord(**json.loads(rec.to_json_line()))
        assert again == rec

    @pytest.mark.parametrize(
        "text", ["ಕನ್ನಡ ответ", 'say "en"', "a\\b", "\x00\x1f\t\n\r\x7f", "\u2028\u2029"])
    @pytest.mark.parametrize("temp", [-0.0, 1, 1e300, 0.7])
    def test_json_line_is_the_dataclass_dict_as_json(self, text, temp):
        rec = make_record(text, temp, text, text, text)
        expected = json.dumps(asdict(rec), ensure_ascii=False, sort_keys=True)
        assert rec.to_json_line() == expected

    def test_created_at_is_utc_rfc3339(self):
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(\.\d+)?Z", utc_now_rfc3339()
        )

    def test_make_record_derives_key(self):
        rec = record()
        assert rec.cache_key == cache_key(rec.model_id, rec.temperature, rec.prompt)


# Temperatures as a config or a record may hold them: ints, floats, both zeros.
TEMPERATURES = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1, 1.0, 0.7, 0.1 + 0.2, 0.30000000000000004]),
)
# Prompts as a corpus gives them: any text that is valid Unicode.
PROMPTS = st.one_of(
    st.sampled_from(["The word is ಮನೆ.", "The word is வணக்கம்.", "The word is x."]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)
REQUESTS = st.tuples(st.sampled_from(["m", "m2", "ಮ"]), TEMPERATURES, PROMPTS)


def entries_after(*requests) -> tuple[list[bool], int]:
    """Whether put_if_absent inserted each request into one in-memory
    cache, and how many entries the cache then holds."""
    cache = ResponseCache(None)
    inserted = [cache.put_if_absent(make_record(*request, "reply"))[1] for request in requests]
    return inserted, len(cache)


class TestRequestIdentity:
    @given(a=REQUESTS, b=REQUESTS)
    def test_second_request_is_inserted_exactly_when_the_keys_differ(self, a, b):
        different_key = cache_key(*a) != cache_key(*b)
        assert entries_after(a, b) == ([True, different_key], 1 + different_key)
        # And the cache answers b exactly when it holds a's key.
        cache = ResponseCache(None)
        cache.put_if_absent(make_record(*a, "reply"))
        assert (cache.get(*identity(make_record(*b, "reply"))) is None) == different_key

    def test_zero_and_negative_zero_are_two_requests(self):
        assert cache_key("m", 0.0, "p") != cache_key("m", -0.0, "p")
        assert entries_after(("m", 0.0, "p"), ("m", -0.0, "p")) == ([True, True], 2)
        assert entries_after(("m", 1, "p"), ("m", 1.0, "p")) == ([True, False], 1)

    def test_record_answers_the_request_its_fields_name_not_its_key(self, tmp_path):
        path = tmp_path / "c.jsonl"
        x, y = record(prompt="The word is x."), record(prompt="The word is y.")
        # Hand-edited: x's fields and reply, but y's key.
        path.write_text(
            json.dumps({**json.loads(x.to_json_line()), "cache_key": y.cache_key}) + "\n",
            encoding="utf-8",
        )
        cache = ResponseCache(path)
        assert cache.get(*identity(x)) == "en"
        assert cache.get(*identity(y)) is None
        # y is still a miss, so its own record is appended and then served.
        assert cache.put_if_absent(record(prompt="The word is y.", response="kn")) == (
            "kn", True)
        assert ResponseCache(path).get(*identity(y)) == "kn"


class TestResponseCache:
    def test_put_then_get(self, tmp_path):
        cache = ResponseCache(tmp_path / "c.jsonl")
        rec = record()
        stored, inserted = cache.put_if_absent(rec)
        assert inserted
        assert stored == rec.raw_response
        assert cache.get(*identity(rec)) == rec.raw_response
        assert read_cache_records(tmp_path / "c.jsonl") == [rec]

    def test_first_record_wins(self, tmp_path):
        cache = ResponseCache(tmp_path / "c.jsonl")
        first = record(response="en")
        second = CacheRecord(
            cache_key=first.cache_key,
            model_id=first.model_id,
            temperature=first.temperature,
            prompt=first.prompt,
            raw_response="kn",
            created_at=first.created_at,
        )
        cache.put_if_absent(first)
        stored, inserted = cache.put_if_absent(second)
        assert not inserted
        assert stored == "en"

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        ResponseCache(path).put_if_absent(rec)
        reloaded = ResponseCache(path)
        assert reloaded.get(*identity(rec)) == rec.raw_response
        assert read_cache_records(path) == [rec]

    def test_at_most_once_on_disk(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = ResponseCache(path)
        rec = record()
        for _ in range(5):
            cache.put_if_absent(rec)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1

    def test_duplicate_lines_on_disk_first_wins(self, tmp_path):
        path = tmp_path / "c.jsonl"
        first = record(response="en")
        dup = CacheRecord(
            cache_key=first.cache_key,
            model_id=first.model_id,
            temperature=first.temperature,
            prompt=first.prompt,
            raw_response="other",
            created_at=first.created_at,
        )
        path.write_text(
            first.to_json_line() + "\n" + dup.to_json_line() + "\n", encoding="utf-8"
        )
        assert ResponseCache(path).get(*identity(first)) == "en"

    def test_cache_bust_truncates(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        ResponseCache(path).put_if_absent(rec)
        busted = ResponseCache(path, cache_bust=True)
        assert busted.get(*identity(rec)) is None
        assert path.read_text(encoding="utf-8") == ""

    def test_memory_only_mode(self):
        cache = ResponseCache(None)
        rec = record()
        cache.put_if_absent(rec)
        assert cache.get(*identity(rec)) == rec.raw_response

    def test_missing_key_is_none(self, tmp_path):
        assert ResponseCache(tmp_path / "c.jsonl").get(*identity(record())) is None

    def test_appended_bytes_are_the_json_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = ResponseCache(path)
        records = [record(), record(prompt="The word is ಮನೆ.", response="kn\n")]
        for rec in records:
            cache.put_if_absent(rec)
        expected = "".join(rec.to_json_line() + "\n" for rec in records)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_missing_parent_directory_made_on_first_append(self, tmp_path):
        path = tmp_path / "runs" / "new" / "c.jsonl"
        cache = ResponseCache(path)
        assert not path.parent.exists()  # constructing writes nothing
        first, second = record(), record(prompt="The word is y.")
        cache.put_if_absent(first)
        cache.put_if_absent(second)
        assert read_cache_records(path) == [first, second]

    def test_unwritable_path_raises_cache_write_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        # The "parent directory" is a regular file, so the append must fail.
        cache = ResponseCache(None)
        cache._path = blocker / "c.jsonl"
        with pytest.raises(CacheWriteError):
            cache.put_if_absent(record())

    def test_concurrent_writers_single_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = ResponseCache(path)
        results = []

        def writer(i):
            rec = CacheRecord(
                cache_key=cache_key("m", 0.7, "same prompt"),
                model_id="m",
                temperature=0.7,
                prompt="same prompt",
                raw_response=f"reply-{i}",
                created_at="2026-01-01T00:00:00Z",
            )
            results.append(cache.put_if_absent(rec))

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1
        canonical = json.loads(lines[0])["raw_response"]
        # Every caller observed the single persisted reply.
        assert {stored for stored, _ in results} == {canonical}
        assert sum(1 for _, inserted in results if inserted) == 1


class TestLoadCacheRecords:
    """A cache file's lines as ResponseCache reads them into its index."""

    def test_loads_in_file_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        recs = [record(prompt=f"The word is w{i}.") for i in range(3)]
        path.write_text(
            "".join(r.to_json_line() + "\n" for r in recs), encoding="utf-8"
        )
        assert list(flat_index(ResponseCache(path)).items()) == list(replies_of(recs).items())

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        path.write_text("\n" + rec.to_json_line() + "\n\n", encoding="utf-8")
        assert flat_index(ResponseCache(path)) == replies_of([rec])

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("this is not json", "not JSON"),
            ("[1, 2]", "not a JSON object"),
            ('{"foo": 1}', "missing field 'cache_key'"),
            pytest.param(
                json.dumps({**json.loads(record().to_json_line()), "raw_response": 5}),
                "field 'raw_response' is int, not a string",
                id="raw_response-int",
            ),
            pytest.param(
                json.dumps({**json.loads(record().to_json_line()), "temperature": "hot"}),
                "field 'temperature' is str, not a number",
                id="temperature-str",
            ),
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, line, reason):
        path = tmp_path / "c.jsonl"
        path.write_text(
            record().to_json_line() + "\n" + line + "\n", encoding="utf-8"
        )
        with pytest.raises(CacheReadError) as excinfo:
            ResponseCache(path)
        assert str(excinfo.value).startswith(f"{path} line 2: {reason}")

    def test_line_led_by_whitespace_loads(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        path.write_text(" \t" + rec.to_json_line() + "\n", encoding="utf-8")
        assert flat_index(ResponseCache(path)) == replies_of([rec])

    @pytest.mark.parametrize(
        "line, reason",
        [("\ufeff" + record().to_json_line(), "not JSON: Unexpected UTF-8 BOM"),
         (record().to_json_line() + " x", "not JSON: Extra data")],
        ids=["byte-order-mark", "trailing-data"],
    )
    def test_line_json_would_refuse_names_file_and_line(self, tmp_path, line, reason):
        path = tmp_path / "c.jsonl"
        path.write_text(line + "\n" + record(prompt="y").to_json_line() + "\n",
                        encoding="utf-8")
        with pytest.raises(CacheReadError) as excinfo:
            ResponseCache(path)
        assert str(excinfo.value).startswith(f"{path} line 1: {reason}")

    def test_bad_last_line_without_newline_is_still_an_error(self, tmp_path):
        # Only a line that is not JSON can be the torn end of an append.
        path = tmp_path / "c.jsonl"
        path.write_text(record().to_json_line() + "\n[1, 2]", encoding="utf-8")
        with pytest.raises(CacheReadError, match="line 2: not a JSON object"):
            ResponseCache(path)

    def test_torn_last_line_dropped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        rec = record()
        path.write_text(
            rec.to_json_line() + "\n" + record(prompt="y").to_json_line()[:40],
            encoding="utf-8",
        )
        assert flat_index(ResponseCache(path)) == replies_of([rec])
        assert [r.getMessage() for r in caplog.records] == [
            f"{path} line 2: dropped a torn last line (not JSON, no newline)"
        ]


# Three records, two of them with multi-byte UTF-8, so that some cuts fall
# inside a character.
TORN_RECORDS = [
    record(prompt="The word is mane.", response="kn"),
    record(prompt="The word is ಮನೆ.", response="ಕನ್ನಡ"),
    record(prompt="The word is bookalli.", response="mixed"),
]
TORN_LINES = [r.to_json_line().encode("utf-8") for r in TORN_RECORDS]
TORN_FILE = b"".join(line + b"\n" for line in TORN_LINES)


class TestTornTail:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.integers(min_value=0, max_value=len(TORN_FILE)))
    def test_any_cut_keeps_complete_records_and_next_append_is_clean(
        self, tmp_path, cut
    ):
        path = tmp_path / "c.jsonl"
        path.write_bytes(TORN_FILE[:cut])
        ends = [sum(len(line) + 1 for line in TORN_LINES[:i]) + len(TORN_LINES[i])
                for i in range(len(TORN_LINES))]
        complete = [r for r, end in zip(TORN_RECORDS, ends) if end <= cut]
        assert flat_index(ResponseCache(path)) == replies_of(complete)

        extra = record(prompt="The word is new.")
        ResponseCache(path).put_if_absent(extra)
        assert read_cache_records(path) == complete + [extra]
        assert path.read_bytes().endswith(b"\n")

    def test_short_write_fails_and_the_next_append_cuts_it_off(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "c.jsonl"
        path.write_bytes(TORN_FILE[:-1])  # the last line lacks its newline
        cache = ResponseCache(path)
        real_write = os.write
        with monkeypatch.context() as m:
            # What a full disk does: part of the line is written, no error.
            m.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
            with pytest.raises(CacheWriteError, match="wrote 7 of"):
                cache.put_if_absent(record(prompt="The word is lost."))
        extra = record(prompt="The word is new.")
        cache.put_if_absent(extra)
        assert path.read_bytes() == TORN_FILE + extra.to_json_line().encode() + b"\n"

    def test_short_write_of_a_whole_line_is_cut_off_by_the_next_append(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "c.jsonl"
        cache = ResponseCache(path)
        lost = record(prompt="The word is lost.")
        real_write = dravlid.cache.os.write
        with monkeypatch.context() as m:
            m.setattr(dravlid.cache.os, "write", lambda fd, data: real_write(fd, data[:7]))
            with pytest.raises(CacheWriteError, match="wrote 7 of"):
                cache.put_if_absent(lost)
        assert path.read_bytes() == lost.to_json_line().encode()[:7]
        extra = record(prompt="The word is new.")
        cache.put_if_absent(extra)
        assert read_cache_records(path) == [extra]

    def test_read_only_load_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "c.jsonl"
        torn = TORN_FILE[:-10]
        path.write_bytes(torn)
        assert len(ResponseCache(path)) == 2
        assert path.read_bytes() == torn


# A child process that loads the cache, says so, waits for the go line on
# stdin, then appends `count` records of its own.
APPENDER = """
import sys
from dravlid.cache import ResponseCache, make_record
path, name, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResponseCache(path)
print("loaded", flush=True)
sys.stdin.readline()
for i in range(count):
    cache.put_if_absent(make_record("m", 0.7, f"The word is {name}{i}.", "en"))
"""


class TestSharedFile:
    """Writers that loaded the same file, each with its own idea of the tail."""

    @pytest.mark.parametrize("cut", [10, 1], ids=["torn", "unterminated"])
    def test_two_instances_over_one_tail_keep_every_record(self, tmp_path, cut):
        path = tmp_path / "c.jsonl"
        path.write_bytes(TORN_FILE[:-cut])
        first, second = ResponseCache(path), ResponseCache(path)
        a1, a2, b1 = (record(prompt=f"The word is {w}.") for w in ("a1", "a2", "b1"))
        first.put_if_absent(a1)
        first.put_if_absent(a2)
        second.put_if_absent(b1)
        kept = TORN_RECORDS[:2] if cut == 10 else TORN_RECORDS
        assert read_cache_records(path) == [*kept, a1, a2, b1]
        assert b"\n\n" not in path.read_bytes()

    @pytest.mark.parametrize("written, kept", [(20, []), (None, [TORN_RECORDS[1]])],
                             ids=["torn", "unterminated"])
    def test_append_after_another_writer_died_mid_append_keeps_every_whole_record(
        self, tmp_path, written, kept
    ):
        path = tmp_path / "c.jsonl"
        first = TORN_RECORDS[0]
        path.write_bytes(TORN_LINES[0] + b"\n")
        cache = ResponseCache(path)  # a file that ends cleanly
        with path.open("ab") as fh:  # another writer dies before its newline
            fh.write(TORN_LINES[1][:written])
        mine = record(prompt="The word is mine.")
        assert cache.put_if_absent(mine) == (mine.raw_response, True)
        assert read_cache_records(path) == [first, *kept, mine]
        assert flat_index(ResponseCache(path)) == replies_of([first, *kept, mine])

    def test_short_write_is_cut_off_by_the_next_append_of_another_writer(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "c.jsonl"
        path.write_bytes(TORN_FILE)
        first, second = ResponseCache(path), ResponseCache(path)
        real_write = os.write
        with monkeypatch.context() as m:
            m.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
            with pytest.raises(CacheWriteError, match="wrote 7 of"):
                first.put_if_absent(record(prompt="The word is lost."))
        extra = record(prompt="The word is new.")
        second.put_if_absent(extra)
        assert path.read_bytes() == TORN_FILE + extra.to_json_line().encode() + b"\n"

    def test_processes_appending_to_one_torn_cache_lose_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        path.write_bytes(TORN_FILE[:-10])
        env = {**os.environ, "PYTHONPATH": str(Path(dravlid.cache.__file__).parents[1])}
        names, count = ("p", "q", "r"), 30
        children = [
            subprocess.Popen([sys.executable, "-c", APPENDER, str(path), name, str(count)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
            for name in names
        ]
        try:
            for child in children:
                assert child.stdout.readline() == b"loaded\n"
            for child in children:  # every child saw the torn tail; now all append
                child.stdin.write(b"go\n")
                child.stdin.close()
            for child in children:
                assert child.wait(timeout=30) == 0
        finally:
            for child in children:
                child.kill()
                child.wait()
                child.stdout.close()
        prompts = {rec.prompt for rec in read_cache_records(path)}
        assert prompts == {r.prompt for r in TORN_RECORDS[:2]} | {
            f"The word is {name}{i}." for name in names for i in range(count)}
        monkeypatch.setattr(dravlid.cache, "CHECKPOINT_MIN_BYTES", 1)
        full = flat_index(ResponseCache(path))  # a full parse, which writes a checkpoint
        assert path.with_name(path.name + ".index").exists()
        assert flat_index(ResponseCache(path)) == full
        assert len(full) == len(prompts)
