"""Persistent response cache: append-only JSONL of model replies.

Each record holds its request, (model_id, temperature, prompt), and a
`cache_key`: a SHA-256 over that request rendered as canonical JSON, so
identical requests hash identically across runs and platforms. Temperature
is part of the request, always as a float: the same word at 0.7 and 0.9 is
two experiments, while 1 and 1.0 are one.

A record is found by its request fields, never by its stored hash: the
in-memory index maps the request identity, (model_id, temperature text,
prompt), to the reply. The identity holds exactly what the hash covers, so
two requests have one identity when they have one key, and a hit needs
neither JSON nor a hash. The hash is still written with every record, so
the file format does not change.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from operator import itemgetter
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


def temperature_text(temperature: float) -> str:
    """The temperature as the request identity holds it: the float's repr,
    which is its JSON text in cache_key for every finite value, so -0.0 and
    0.0 stay apart as their keys do, while 1 and 1.0 are one."""
    return repr(float(temperature))


def request_identity(model_id: str, temperature: float, prompt: str) -> tuple[str, str, str]:
    """What cache_key hashes, as a tuple: equal exactly when the keys are."""
    return model_id, temperature_text(temperature), prompt


def utc_now_rfc3339() -> str:
    return datetime.now(timezone.utc).isoformat().replace("+00:00", "Z")


_FIELDS = ("cache_key", "model_id", "temperature", "prompt", "raw_response", "created_at")
_STRING_FIELDS = ("cache_key", "model_id", "prompt", "raw_response", "created_at")
_get_fields = itemgetter(*_FIELDS)
_raw_decode = json.JSONDecoder().raw_decode
_JSON_WHITESPACE = " \t\n\r"


@dataclass(frozen=True)
class CacheRecord:
    """One persisted model reply and the request it answers."""

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
        """Parse one line: ValueError or RecursionError if it is not JSON,
        CacheReadError (naming no file) if it is JSON but not a record."""
        return cls(*_decode_record(line))


def _decode_record(line: str) -> tuple:
    """The six fields of one cache line, in CacheRecord's order.

    ValueError or RecursionError if the line is not JSON; CacheReadError,
    naming no file, if it is JSON but not a record: not an object, a field
    missing or of the wrong type, a temperature no float holds, or a reply
    that is not valid Unicode (a lone surrogate) and so could not be written.
    """
    if line[:1] in _JSON_WHITESPACE or line[0] == "\ufeff":
        data = json.loads(line)  # its own whitespace scans and BOM message
    else:
        # json.loads without its whitespace scans, for a line that starts
        # with its value; the same value and the same errors.
        data, end = _raw_decode(line)
        rest = line[end:].lstrip(_JSON_WHITESPACE)
        if rest:
            raise json.JSONDecodeError("Extra data", line, len(line) - len(rest))
    if not isinstance(data, dict):
        raise CacheReadError("not a JSON object")
    try:
        fields = _get_fields(data)
    except KeyError as exc:
        raise CacheReadError(f"missing field {exc}") from None
    key, model_id, temperature, prompt, raw, created_at = fields
    for name, value in zip(_STRING_FIELDS, (key, model_id, prompt, raw, created_at)):
        if not isinstance(value, str):
            raise CacheReadError(f"field {name!r} is {type(value).__name__}, not a string")
    if isinstance(temperature, bool) or not isinstance(temperature, (int, float)):
        raise CacheReadError(
            f"field 'temperature' is {type(temperature).__name__}, not a number"
        )
    try:
        float(temperature)
    except OverflowError as exc:
        raise CacheReadError(f"field 'temperature' does not fit a float: {exc}") from None
    if not raw.isascii():
        try:
            raw.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CacheReadError(f"field 'raw_response' is not valid Unicode: {exc}") from None
    return fields


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
    """In-memory index from request identity to reply, over an append-only
    JSONL file.

    Reads are lock-free; appends go through a single lock so each request
    is persisted at most once. The first record wins for a request: one
    sampled reply per request is the run's truth. Re-sampling requires
    cache_bust, which truncates the file up front.
    """

    def __init__(self, path: str | Path | None, cache_bust: bool = False):
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._replies: dict[tuple[str, str, str], str] = {}
        # Set when the file's last line has no newline: (bytes to keep, text
        # to write first), so that the first append starts on a fresh line.
        self._mend: tuple[int, str] | None = None
        if self._path is not None and self._path.exists():
            if cache_bust:
                self._path.write_text("", encoding="utf-8")
            else:
                records, self._mend = _read_cache_file(self._path)
                add = self._replies.setdefault
                for _, model_id, temperature, prompt, raw, _ in records:
                    add(request_identity(model_id, temperature, prompt), raw)

    def __len__(self) -> int:
        return len(self._replies)

    def get(self, model_id: str, temperature: str, prompt: str) -> str | None:
        """The cached reply to a request, or None; temperature is its
        temperature_text."""
        return self._replies.get((model_id, temperature, prompt))

    def put_if_absent(self, record: CacheRecord) -> tuple[str, bool]:
        """Persist a record unless its request is already cached.

        Returns (reply, inserted). The reply is the cached one when the
        request was already present.
        """
        identity = request_identity(record.model_id, record.temperature, record.prompt)
        with self._lock:
            existing = self._replies.get(identity)
            if existing is not None:
                return existing, False
            if self._path is not None:
                data = (record.to_json_line() + "\n").encode("utf-8")
                try:
                    self._append(data)
                except OSError as exc:
                    raise CacheWriteError(
                        f"failed to append cache record to {self._path}: {exc}"
                    ) from exc
            self._replies[identity] = record.raw_response
            return record.raw_response, True

    def _append(self, data: bytes) -> None:
        """Write data with one append, after mending a last line that has no
        newline; the parent directory is made when the first open finds it
        missing."""
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self._path, flags, 0o666)
        except FileNotFoundError:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self._path, flags, 0o666)
        try:
            if self._mend is not None:
                keep, lead = self._mend
                os.ftruncate(fd, keep)
                data = lead.encode("utf-8") + data
            written = os.write(fd, data)
            if written != len(data):
                # A full disk. Cut the partial line off on the next append; a
                # pending mend still holds, since this write began where it cuts.
                if self._mend is None:
                    self._mend = (os.lseek(fd, 0, os.SEEK_END) - written, "")
                raise OSError(f"wrote {written} of {len(data)} bytes")
            self._mend = None
        finally:
            os.close(fd)


def load_cache_records(path: str | Path) -> list[CacheRecord]:
    """Read all records from a JSONL cache file, in file order.

    A last line without its newline that is not JSON is what a crash in
    the middle of an append leaves: it is dropped with a warning. Any other
    line that is not a record raises CacheReadError naming the file and
    the 1-based line.
    """
    return [CacheRecord(*fields) for fields in _read_cache_file(Path(path))[0]]


def _read_cache_file(path: Path) -> tuple[list[tuple], tuple[int, str] | None]:
    """The fields of each record, and how to mend a last line that has no
    newline."""
    records = []
    with path.open("rb") as fh:
        line = b""
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(_decode_record(line.decode("utf-8")))
            except (ValueError, RecursionError) as exc:  # not UTF-8 or not JSON
                if line.endswith(b"\n"):
                    raise CacheReadError(f"{path} line {number}: not JSON: {exc}") from None
                _log.warning("%s line %d: dropped a torn last line (not JSON, no newline)",
                             path, number)
                return records, (fh.tell() - len(line), "")
            except CacheReadError as exc:
                raise CacheReadError(f"{path} line {number}: {exc}") from None
        if line and not line.endswith(b"\n"):
            return records, (fh.tell(), "\n")
    return records, None
