"""Persistent response cache: append-only JSONL keyed by request identity.

The cache key is a SHA-256 over (model_id, temperature, prompt) rendered as
canonical JSON, so identical requests hash identically across runs and
platforms. Temperature is part of the key, always as a float: the same word
at 0.7 and 0.9 is two experiments, while 1 and 1.0 are one.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from dravlid.errors import CacheWriteError


def cache_key(model_id: str, temperature: float, prompt: str) -> str:
    payload = json.dumps(
        {"model": model_id, "temperature": float(temperature), "prompt": prompt},
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def utc_now_rfc3339() -> str:
    return datetime.now(timezone.utc).isoformat().replace("+00:00", "Z")


@dataclass(frozen=True)
class CacheRecord:
    """One persisted model reply, identified by its request hash."""

    cache_key: str
    model_id: str
    temperature: float
    prompt: str
    raw_response: str
    created_at: str

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "CacheRecord":
        data = json.loads(line)
        return cls(
            cache_key=data["cache_key"],
            model_id=data["model_id"],
            temperature=data["temperature"],
            prompt=data["prompt"],
            raw_response=data["raw_response"],
            created_at=data["created_at"],
        )


def make_record(
    model_id: str,
    temperature: float,
    prompt: str,
    raw_response: str,
    created_at: str | None = None,
) -> CacheRecord:
    return CacheRecord(
        cache_key=cache_key(model_id, temperature, prompt),
        model_id=model_id,
        temperature=temperature,
        prompt=prompt,
        raw_response=raw_response,
        created_at=created_at if created_at is not None else utc_now_rfc3339(),
    )


class ResponseCache:
    """In-memory key index over an append-only JSONL file.

    Reads are lock-free; appends go through a single lock so each key is
    persisted at most once. The first record wins for a key: one sampled
    reply per request is the run's truth. Re-sampling requires cache_bust,
    which truncates the file up front.
    """

    def __init__(self, path: str | Path | None, cache_bust: bool = False):
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._records: dict[str, CacheRecord] = {}
        if self._path is not None and self._path.exists():
            if cache_bust:
                self._path.write_text("", encoding="utf-8")
            else:
                for record in load_cache_records(self._path):
                    self._records.setdefault(record.cache_key, record)

    @property
    def path(self) -> Path | None:
        return self._path

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str) -> CacheRecord | None:
        return self._records.get(key)

    def put_if_absent(self, record: CacheRecord) -> tuple[CacheRecord, bool]:
        """Persist a record unless its key is already cached.

        Returns (canonical_record, inserted). The canonical record is the
        pre-existing one when the key was already present.
        """
        with self._lock:
            existing = self._records.get(record.cache_key)
            if existing is not None:
                return existing, False
            if self._path is not None:
                try:
                    self._path.parent.mkdir(parents=True, exist_ok=True)
                    with self._path.open("a", encoding="utf-8") as fh:
                        fh.write(record.to_json_line() + "\n")
                        fh.flush()
                except OSError as exc:
                    raise CacheWriteError(
                        f"failed to append cache record to {self._path}: {exc}"
                    ) from exc
            self._records[record.cache_key] = record
            return record, True

    def records(self) -> list[CacheRecord]:
        return list(self._records.values())


def load_cache_records(path: str | Path) -> list[CacheRecord]:
    """Read all records from a JSONL cache file, in file order."""
    records = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(CacheRecord.from_json_line(line))
    return records
