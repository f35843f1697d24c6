"""Response cache: keying, persistence, first-record-wins semantics."""

import json
import os
import re
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dravlid.cache
from dravlid.cache import (
    CacheRecord,
    ResponseCache,
    cache_key,
    load_cache_records,
    make_record,
    request_identity,
    utc_now_rfc3339,
)
from dravlid.errors import CacheReadError, CacheWriteError


def record(prompt="The word is x.", response="en", temp=0.7) -> CacheRecord:
    return make_record(
        model_id="gpt-3.5-turbo", temperature=temp, prompt=prompt, raw_response=response
    )


def identity(rec: CacheRecord) -> tuple[str, str, str]:
    return request_identity(rec.model_id, rec.temperature, rec.prompt)


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
        again = CacheRecord.from_json_line(rec.to_json_line())
        assert again == rec

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


class TestRequestIdentity:
    @given(a=REQUESTS, b=REQUESTS)
    def test_identities_equal_exactly_when_keys_are(self, a, b):
        same_key = cache_key(*a) == cache_key(*b)
        assert (request_identity(*a) == request_identity(*b)) == same_key
        # And the cache answers b exactly when it holds a's key.
        cache = ResponseCache(None)
        cache.put_if_absent(make_record(*a, "reply"))
        assert (cache.get(*request_identity(*b)) is not None) == same_key

    def test_zero_and_negative_zero_are_two_requests(self):
        assert cache_key("m", 0.0, "p") != cache_key("m", -0.0, "p")
        assert request_identity("m", 0.0, "p") != request_identity("m", -0.0, "p")
        assert request_identity("m", 1, "p") == request_identity("m", 1.0, "p")

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
        assert load_cache_records(tmp_path / "c.jsonl") == [rec]

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
        assert load_cache_records(path) == [rec]

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
        assert load_cache_records(path) == [first, second]

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
    def test_loads_in_file_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        recs = [record(prompt=f"The word is w{i}.") for i in range(3)]
        path.write_text(
            "".join(r.to_json_line() + "\n" for r in recs), encoding="utf-8"
        )
        assert load_cache_records(path) == recs

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        path.write_text("\n" + rec.to_json_line() + "\n\n", encoding="utf-8")
        assert load_cache_records(path) == [rec]

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
            load_cache_records(path)
        assert str(excinfo.value).startswith(f"{path} line 2: {reason}")

    def test_line_led_by_whitespace_loads(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        path.write_text(" \t" + rec.to_json_line() + "\n", encoding="utf-8")
        assert load_cache_records(path) == [rec]

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
            load_cache_records(path)
        assert str(excinfo.value).startswith(f"{path} line 1: {reason}")

    def test_bad_last_line_without_newline_is_still_an_error(self, tmp_path):
        # Only a line that is not JSON can be the torn end of an append.
        path = tmp_path / "c.jsonl"
        path.write_text(record().to_json_line() + "\n[1, 2]", encoding="utf-8")
        with pytest.raises(CacheReadError, match="line 2: not a JSON object"):
            load_cache_records(path)

    def test_torn_last_line_dropped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        rec = record()
        path.write_text(
            rec.to_json_line() + "\n" + record(prompt="y").to_json_line()[:40],
            encoding="utf-8",
        )
        assert load_cache_records(path) == [rec]
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
        assert load_cache_records(path) == complete

        extra = record(prompt="The word is new.")
        ResponseCache(path).put_if_absent(extra)
        assert load_cache_records(path) == complete + [extra]
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
        assert load_cache_records(path) == [extra]

    def test_read_only_load_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "c.jsonl"
        torn = TORN_FILE[:-10]
        path.write_bytes(torn)
        assert len(ResponseCache(path)) == 2
        assert path.read_bytes() == torn
