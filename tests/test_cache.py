"""Response cache: keying, persistence, first-record-wins semantics."""

import json
import re
import threading

import pytest

from dravlid.cache import (
    CacheRecord,
    ResponseCache,
    cache_key,
    load_cache_records,
    make_record,
    utc_now_rfc3339,
)
from dravlid.errors import CacheWriteError


def record(prompt="The word is x.", response="en", temp=0.7) -> CacheRecord:
    return make_record(
        model_id="gpt-3.5-turbo", temperature=temp, prompt=prompt, raw_response=response
    )


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


class TestResponseCache:
    def test_put_then_get(self, tmp_path):
        cache = ResponseCache(tmp_path / "c.jsonl")
        rec = record()
        stored, inserted = cache.put_if_absent(rec)
        assert inserted
        assert stored == rec
        assert cache.get(rec.cache_key) == rec

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
        assert stored.raw_response == "en"

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        ResponseCache(path).put_if_absent(rec)
        reloaded = ResponseCache(path)
        assert reloaded.get(rec.cache_key) == rec

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
        assert ResponseCache(path).get(first.cache_key).raw_response == "en"

    def test_cache_bust_truncates(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record()
        ResponseCache(path).put_if_absent(rec)
        busted = ResponseCache(path, cache_bust=True)
        assert busted.get(rec.cache_key) is None
        assert path.read_text(encoding="utf-8") == ""

    def test_memory_only_mode(self):
        cache = ResponseCache(None)
        rec = record()
        cache.put_if_absent(rec)
        assert cache.get(rec.cache_key) == rec

    def test_missing_key_is_none(self, tmp_path):
        assert ResponseCache(tmp_path / "c.jsonl").get("0" * 64) is None

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
        assert {stored.raw_response for stored, _ in results} == {canonical}
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
