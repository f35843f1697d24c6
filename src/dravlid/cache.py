"""Persistent response cache: append-only JSONL of model replies.

Each record holds its request, (model_id, temperature, prompt), and a
`cache_key`: a SHA-256 over that request rendered as canonical JSON, so
identical requests hash identically across runs and platforms. Temperature
is part of the request, always as a float: the same word at 0.7 and 0.9 is
two experiments, while 1 and 1.0 are one.

A record is found by its request fields, never by its stored hash: the
in-memory index groups the replies by (model_id, temperature text) and maps
each group's prompts to their replies. Those three fields hold exactly what
the hash covers, so two requests are one entry when they have one key, and
a hit needs neither JSON nor a hash. The hash is still written with every
record, so the file format does not change.

A load that parsed at least CHECKPOINT_MIN_BYTES of the file saves the
index beside it, as PATH.index: its groups as they stand, with the bytes
and lines of the file they come from and the SHA-256 of those bytes. The
next load takes the groups from there when the digest still matches the
file's first bytes, and decodes only the lines after them. The file stays
the only source of truth: a checkpoint that does not match, or that is not
one, is ignored.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Iterator

from dravlid.errors import CacheReadError, CacheWriteError

try:
    import fcntl
except ImportError:  # not on Windows: appends there take no lock
    fcntl = None

_log = logging.getLogger(__name__)


# json.dumps's text for a request (sorted keys, no spaces, ensure_ascii
# off) and for a record (sorted keys, default separators): each %s takes a
# string encoded by _encode or a number's text from json_number.
_KEY_PAYLOAD = '{"model":%s,"prompt":%s,"temperature":%s}'
_RECORD_LINE = ('{"cache_key": %s, "created_at": %s, "model_id": %s, "prompt": %s, '
                '"raw_response": %s, "temperature": %s}')
# The C string encoder behind json.dumps(ensure_ascii=False).
_encode = json.encoder.encode_basestring


def json_number(value: float) -> str:
    """A number's JSON text exactly as json.dumps writes it: a finite float's
    or an int's own repr, and json.dumps itself for anything else (NaN and
    the infinities, bools, subclasses)."""
    if type(value) is float and math.isfinite(value) or type(value) is int:
        return repr(value)
    return json.dumps(value)


def cache_key(model_id: str, temperature: float, prompt: str) -> str:
    """SHA-256 of the request as canonical JSON: the text of
    json.dumps({"model", "temperature": float(temperature), "prompt"},
    sort_keys=True, separators=(",", ":"), ensure_ascii=False)."""
    payload = _KEY_PAYLOAD % (_encode(model_id), _encode(prompt), json_number(float(temperature)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def temperature_text(temperature: float) -> str:
    """The temperature as the index groups it: the float's repr, which is
    its JSON text in cache_key for every finite value, so -0.0 and 0.0 stay
    apart as their keys do, while 1 and 1.0 are one."""
    return repr(float(temperature))


def utc_now_rfc3339() -> str:
    return datetime.now(timezone.utc).isoformat().replace("+00:00", "Z")


_FIELDS = ("cache_key", "model_id", "temperature", "prompt", "raw_response", "created_at")
_STRING_FIELDS = ("cache_key", "model_id", "prompt", "raw_response", "created_at")
_get_fields = itemgetter(*_FIELDS)
_raw_decode = json.JSONDecoder().raw_decode
_JSON_WHITESPACE = " \t\n\r"
# A load that parsed less than this writes no checkpoint, so small caches
# (test fixtures among them) never get one.
CHECKPOINT_MIN_BYTES = 1 << 20
_CHECKPOINT_VERSION = 1
_HASH_CHUNK = 1 << 20


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
        """The record's cache line, without its newline: the text of
        json.dumps(fields, ensure_ascii=False, sort_keys=True)."""
        return _RECORD_LINE % (
            _encode(self.cache_key), _encode(self.created_at), _encode(self.model_id),
            _encode(self.prompt), _encode(self.raw_response), json_number(self.temperature),
        )


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
    """In-memory index of replies, grouped by (model_id, temperature text)
    and keyed by prompt within a group, over an append-only JSONL file.

    Reads are lock-free; appends go through a single lock so each request
    is persisted at most once. The first record wins for a request: one
    sampled reply per request is the run's truth. Re-sampling requires
    cache_bust, which truncates the file up front and removes its checkpoint.
    """

    def __init__(self, path: str | Path | None, cache_bust: bool = False):
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._groups: dict[tuple[str, str], dict[str, str]] = {}
        if self._path is not None and self._path.exists():
            if cache_bust:
                self._path.write_text("", encoding="utf-8")
                with suppress(OSError):
                    _checkpoint_path(self._path).unlink(missing_ok=True)
            else:
                self._load()

    def _load(self) -> None:
        """Fill the index from the checkpoint where it holds for the file,
        then from the lines after it; checkpoint the index again after
        parsing enough lines that end cleanly."""
        with self._path.open("rb") as fh:
            found = _read_checkpoint(self._path, fh)
            self._groups, start, lines, digest = found or ({}, 0, 0, hashlib.sha256())
            fh.seek(start)
            lines, whole = _read_cache_file(fh, self._path, self._groups, lines, digest)
            end = fh.tell()
        if whole and end - start >= CHECKPOINT_MIN_BYTES:
            _write_checkpoint(self._path, self._groups, end, lines, digest.hexdigest())

    def __len__(self) -> int:
        return sum(map(len, self._groups.values()))

    def get(self, model_id: str, temperature: str, prompt: str) -> str | None:
        """The cached reply to a request, or None; temperature is its
        temperature_text."""
        group = self._groups.get((model_id, temperature))
        return None if group is None else group.get(prompt)

    def put_if_absent(self, record: CacheRecord) -> tuple[str, bool]:
        """Persist a record unless its request is already cached.

        Returns (reply, inserted). The reply is the cached one when the
        request was already present.
        """
        request = (record.model_id, temperature_text(record.temperature))
        with self._lock:
            group = self._groups.setdefault(request, {})
            existing = group.get(record.prompt)
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
            group[record.prompt] = record.raw_response
            return record.raw_response, True

    def _append(self, data: bytes) -> None:
        """Write data with one append, under an exclusive lock on the file,
        so that the file ends on a line first: a torn last line (what a
        writer that died mid-append leaves) is cut off, and a whole one
        without its newline gets one. The parent directory is made when the
        first open finds it missing."""
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self._path, flags, 0o666)
        except FileNotFoundError:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self._path, flags, 0o666)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            end = os.lseek(fd, 0, os.SEEK_END)
            if end and os.pread(fd, 1, end - 1) != b"\n":
                start, line = _last_line(fd, end)
                if _torn(line):
                    os.ftruncate(fd, start)
                else:
                    data = b"\n" + data
            written = os.write(fd, data)
            if written != len(data):
                # A full disk. The next append, by any writer, cuts it off.
                raise OSError(f"wrote {written} of {len(data)} bytes")
        finally:
            os.close(fd)  # and so unlock


def _last_line(fd: int, end: int) -> tuple[int, bytes]:
    """Where the last line of fd's first `end` bytes starts, and its bytes,
    read backwards in steps that double."""
    start, tail = end, b""
    while start and b"\n" not in tail:
        step = min(start, max(len(tail), 4096))
        start -= step
        tail = os.pread(fd, step, start) + tail
    cut = tail.rfind(b"\n") + 1
    return start + cut, tail[cut:]


def _torn(line: bytes) -> bool:
    """Whether a last line without its newline is what the loader drops as
    the torn end of an append: not blank, and not UTF-8 or not JSON."""
    try:
        _decode_record(line.decode("utf-8"))
    except (ValueError, RecursionError):
        return bool(line.strip())
    except CacheReadError:  # JSON, so whole; the loader names it
        pass
    return False


def _read_cache_file(
    fh: BinaryIO, path: Path, groups: dict, lines: int, digest
) -> tuple[int, bool]:
    """Add each record from fh's position on to groups, unless its request
    is there already; return the number of the last line read and whether
    the file ends on a line, which a checkpoint must.

    A last line without its newline that is not JSON is what a crash in
    the middle of an append leaves: it is dropped with a warning. Any other
    line that is not a record raises CacheReadError naming the file and
    the 1-based line: `lines` lines come before the position, so errors
    name absolute lines. digest is updated with every byte read.
    """
    line = b""
    for lines, line in enumerate(fh, start=lines + 1):
        digest.update(line)
        if not line.strip():
            continue
        try:
            _, model_id, temperature, prompt, raw, _ = _decode_record(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8 or not JSON
            if line.endswith(b"\n"):
                raise CacheReadError(f"{path} line {lines}: not JSON: {exc}") from None
            _log.warning("%s line %d: dropped a torn last line (not JSON, no newline)",
                         path, lines)
            return lines, False
        except CacheReadError as exc:
            raise CacheReadError(f"{path} line {lines}: {exc}") from None
        groups.setdefault((model_id, temperature_text(temperature)), {}).setdefault(prompt, raw)
    return lines, line.endswith(b"\n") or not line


def _checkpoint_path(path: Path) -> Path:
    return path.with_name(path.name + ".index")


def _read_checkpoint(path: Path, fh: BinaryIO) -> tuple[dict, int, int, object] | None:
    """The reply groups that path's checkpoint holds, the bytes and lines of
    the file they cover, and a SHA-256 over those bytes as read from fh.

    None when there is no checkpoint, or it does not hold for the file, or
    it is not one: what it returns passes the checks the line reader makes
    (strings, and replies that are valid Unicode), and nothing in it is an
    error.
    """
    try:
        doc = json.loads(_checkpoint_path(path).read_text(encoding="utf-8"))
        version, covers, lines = doc["version"], doc["bytes"], doc["lines"]
        if (type(version) is not int or type(covers) is not int or type(lines) is not int
                or version != _CHECKPOINT_VERSION or covers < 0 or lines < 0):
            return None
        digest, remaining, chunk = hashlib.sha256(), covers, b"\n"
        while remaining:
            chunk = fh.read(min(remaining, _HASH_CHUNK))
            if not chunk:  # the file is shorter than the checkpoint
                return None
            digest.update(chunk)
            remaining -= len(chunk)
        if chunk[-1:] != b"\n" or digest.hexdigest() != doc["sha256"]:
            return None
        groups = {}
        for model_id, temperature, prompts, raws in doc["groups"]:
            "".join([model_id, temperature, *prompts])  # TypeError unless all are str
            text = "".join(raws)
            if not text.isascii():
                text.encode("utf-8")  # UnicodeEncodeError at a lone surrogate
            groups[model_id, temperature] = dict(zip(prompts, raws, strict=True))
    except (OSError, ValueError, TypeError, KeyError, RecursionError):
        return None
    return groups, covers, lines, digest


def _write_checkpoint(
    path: Path, groups: dict, covers: int, lines: int, sha256: str
) -> None:
    """Save the reply groups as the checkpoint of path's first `covers`
    bytes, through replacing(). One that cannot be written only leaves the
    next load slower."""
    doc = {
        "version": _CHECKPOINT_VERSION,
        "bytes": covers,
        "lines": lines,
        "sha256": sha256,
        "groups": [[*request, list(replies), list(replies.values())]
                   for request, replies in groups.items()],
    }
    with suppress(OSError), replacing(_checkpoint_path(path)) as out:
        out.write(json.dumps(doc, separators=(",", ":")).encode("utf-8"))


@contextmanager
def replacing(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file whose bytes land at path only when the block ends: it
    is the sibling PATH.<pid>.tmp, which os.replace then moves onto path and
    any exception removes. A path that exists and is not itself a regular
    file (a symlink such as /dev/stdout, a FIFO) is written in place."""
    path = Path(path)
    if path.is_symlink() or path.exists() and not path.is_file():
        with path.open("wb") as out:
            yield out
        return
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("wb") as out:
            yield out
        os.replace(temp, path)
    except BaseException as exc:
        with suppress(OSError):
            temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(temp):
            exc.filename = str(path)  # name the file asked for, not its temp
        raise
