"""Persistent response cache: append-only JSONL keyed by request identity.

The cache key is a SHA-256 over (model_id, temperature, prompt) rendered as
canonical JSON, so identical requests hash identically across runs and
platforms. Temperature is part of the key, always as a float: the same word
at 0.7 and 0.9 is two experiments, while 1 and 1.0 are one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from dravlid.errors import CacheReadError, CacheWriteError

_log = logging.getLogger(__name__)


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
        # Set when the file's last line has no newline: (bytes to keep, text
        # to write first), so that the first append starts on a fresh line.
        self._mend: tuple[int, str] | None = None
        if self._path is not None and self._path.exists():
            if cache_bust:
                self._path.write_text("", encoding="utf-8")
            else:
                records, self._mend = _read_cache_file(self._path)
                for record in records:
                    self._records.setdefault(record.cache_key, record)

    def __len__(self) -> int:
        return len(self._records)

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
                line = record.to_json_line() + "\n"
                try:
                    self._path.parent.mkdir(parents=True, exist_ok=True)
                    with self._path.open("a", encoding="utf-8") as fh:
                        if self._mend is not None:
                            keep, lead = self._mend
                            fh.truncate(keep)
                            line = lead + line
                        fh.write(line)
                        fh.flush()
                except OSError as exc:
                    raise CacheWriteError(
                        f"failed to append cache record to {self._path}: {exc}"
                    ) from exc
                self._mend = None
            self._records[record.cache_key] = record
            return record, True


def load_cache_records(path: str | Path) -> list[CacheRecord]:
    """Read all records from a JSONL cache file, in file order.

    A last line without its newline that is not JSON is what a crash in
    the middle of an append leaves: it is dropped with a warning. Any other
    line that is not a record raises CacheReadError naming the file and
    the 1-based line.
    """
    return _read_cache_file(Path(path))[0]


def _read_cache_file(path: Path) -> tuple[list[CacheRecord], tuple[int, str] | None]:
    """The records, and how to mend a last line that has no newline."""
    records = []
    with path.open("rb") as fh:
        line = b""
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(CacheRecord.from_json_line(line.decode("utf-8")))
            except ValueError as exc:  # not UTF-8 or not JSON
                if line.endswith(b"\n"):
                    raise CacheReadError(f"{path} line {number}: not JSON: {exc}") from None
                _log.warning("%s line %d: dropped a torn last line (not JSON, no newline)",
                             path, number)
                return records, (fh.tell() - len(line), "")
            except TypeError:
                raise CacheReadError(f"{path} line {number}: not a JSON object") from None
            except KeyError as exc:
                raise CacheReadError(f"{path} line {number}: missing field {exc}") from None
        if line and not line.endswith(b"\n"):
            return records, (fh.tell(), "\n")
    return records, None
