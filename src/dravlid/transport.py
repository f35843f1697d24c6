"""HTTP client for OpenAI-compatible chat-completion endpoints.

Wire contract: POST {base_url}/v1/chat/completions with a bearer token and
body {model, temperature, max_tokens, messages=[{role: "user", content}]};
the reply is read verbatim from choices[0].message.content. Configuration
falls back to the LI_API_BASE and LI_API_KEY environment variables. The base
URL may not carry user info, a query or a fragment, and the key must be
printable ASCII; neither error message shows a secret.

dravlid.wire opens the connections, finds the proxy and reads the replies,
with http.client, ssl and urllib.request. A ChatTransport imports it when
it is constructed, so importing this module, as every offline command
does, loads no network code.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from dravlid.cache import json_number
from dravlid.errors import ResponseFormatError, TransportError

if TYPE_CHECKING:
    from dravlid.wire import Connection

ENV_API_BASE = "LI_API_BASE"
ENV_API_KEY = "LI_API_KEY"

DEFAULT_TIMEOUT = 30.0
DEFAULT_RATE_PER_MINUTE = 60.0

# The longest timeout or single sleep, in seconds. Sockets refuse a timeout
# above threading.TIMEOUT_MAX and time.sleep() one that ends past it on the
# monotonic clock, so waits stop at half of it (146 years on Linux).
MAX_WAIT = threading.TIMEOUT_MAX / 2

# A reply, head and body, holds a few tokens: a longer one is a failed attempt.
MAX_REPLY_BYTES = 1 << 20

# json.dumps's text for a request body, in its keys' order, with the default
# separators and ensure_ascii; each %s takes an ASCII-encoded string or a
# number's text from json_number.
_BODY = ('{"model": %s, "temperature": %s, "max_tokens": %s, '
         '"messages": [{"role": "user", "content": %s}]}')
# The C string encoder behind json.dumps(ensure_ascii=True).
_encode_ascii = json.encoder.encode_basestring_ascii

_RETRYABLE_STATUSES = frozenset({429}) | frozenset(range(500, 600))

# How a send on a connection the server closed while it sat idle fails
# before any byte of the response arrives (RemoteDisconnected is a reset).
_DROPPED = (BrokenPipeError, ConnectionResetError)


@dataclass(frozen=True)
class ChatRequest:
    model_id: str
    temperature: float
    max_output_tokens: int
    user_message: str

    def __post_init__(self) -> None:
        if not self.user_message:
            raise ValueError("user_message must be non-empty")

    def to_wire(self) -> bytes:
        """The request body: the bytes of json.dumps({model, temperature,
        max_tokens, messages}), filled into a fixed template."""
        return (_BODY % (
            _encode_ascii(self.model_id), json_number(self.temperature),
            json_number(self.max_output_tokens), _encode_ascii(self.user_message),
        )).encode("ascii")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff, doubling per attempt, over 429s, 5xx, and
    transport-level failures."""

    max_attempts: int = 5
    base_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0 <= self.base_delay <= MAX_WAIT:  # also rejects NaN
            raise ValueError(f"base_delay must be non-negative and at most {MAX_WAIT:.0f} s")

    def is_retryable(self, status: int) -> bool:
        return status in _RETRYABLE_STATUSES

    def delay_after(self, attempt: int) -> float:
        """Seconds to wait after the given 1-based failed attempt, at most MAX_WAIT."""
        try:
            return min(math.ldexp(self.base_delay, attempt - 1), MAX_WAIT)
        except OverflowError:  # doubled past the largest float
            return MAX_WAIT


class TokenBucket:
    """Blocking token-bucket rate limiter, default 60 requests per minute."""

    def __init__(
        self,
        rate_per_minute: float = DEFAULT_RATE_PER_MINUTE,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._rate_per_second = rate_per_minute / 60.0
        if not self._rate_per_second > 0:  # also rejects NaN, and a rate that underflows
            raise ValueError("rate_per_minute must be positive")
        self._capacity = max(1.0, rate_per_minute)  # a minute's requests, at least one
        self._tokens = self._capacity
        self._clock = clock
        self._sleep = sleep
        self._last = clock()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(
                    self._capacity,
                    self._tokens + (now - self._last) * self._rate_per_second,
                )
                self._last = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self._rate_per_second
            self._sleep(min(wait, MAX_WAIT))


class ChatTransport:
    """Callable wrapper around one endpoint + credentials + retry policy.

    Keeps its idle keep-alive connections for reuse by later requests, from
    any thread, until close() (or leaving a `with` block) closes them all.
    """

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        retry: RetryPolicy | None = None,
        rate_limiter: TokenBucket | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not 0 < timeout <= MAX_WAIT:  # also rejects NaN
            raise ValueError(f"timeout must be positive and at most {MAX_WAIT:.0f} s")
        base_url = base_url or os.environ.get(ENV_API_BASE)
        if not base_url:
            raise ValueError(
                f"no endpoint configured: pass base_url or set {ENV_API_BASE}"
            )
        key_source = "api_key" if api_key else ENV_API_KEY
        api_key = api_key or os.environ.get(ENV_API_KEY)
        if not api_key:
            raise ValueError(
                f"no credentials configured: pass api_key or set {ENV_API_KEY}"
            )
        if not (api_key.isascii() and api_key.isprintable()):
            # Never echo the key: it is a secret.
            raise ValueError(
                f"{key_source} holds a control or non-ASCII character; "
                "a bearer token must be printable ASCII"
            )
        try:
            parts = urllib.parse.urlsplit(base_url)
        except ValueError as exc:
            # urlsplit's other message quotes the netloc, user info and all.
            reason = str(exc) if "IPv6" in str(exc) else "NFKC normalization changes its host"
            raise ValueError(f"base URL is not a valid URL: {reason}") from None
        # Any of user info, query and fragment may hold a secret: never echo them.
        shown = repr(parts._replace(
            netloc=parts.netloc.rpartition("@")[2], query="", fragment=""
        ).geturl())
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(
                f"base URL must start with http:// or https:// and name a host: {shown}"
            )
        try:
            parts.port  # raises ValueError when it is not a number in range
        except ValueError as exc:
            raise ValueError(f"base URL {shown}: {exc}") from None
        for part, present in (
            ("user info", "@" in parts.netloc),
            ("a query", parts.query),
            ("a fragment", parts.fragment),
        ):
            if present:
                raise ValueError(f"base URL {shown} must not hold {part}")
        from dravlid import wire  # the network stack loads here, not with this module
        self._wire = wire
        self._open_connection, self._target, proxy_headers = wire.route(
            parts, parts.path.rstrip("/") + "/v1/chat/completions"
        )
        # The head http.client sends, in two parts around the Content-Length.
        self._head = (f"POST {self._target} HTTP/1.1\r\nHost: ".encode("ascii")
                      + wire.host_header(parts, self._target)
                      + b"\r\nAccept-Encoding: identity\r\nContent-Length: ")
        headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json",
                   **proxy_headers}
        self._head_end = "".join(
            f"\r\n{name}: {value}" for name, value in headers.items()
        ).encode("latin-1") + b"\r\n\r\n"
        self._timeout = timeout
        self._idle: list[Connection] = []
        self._idle_lock = threading.Lock()
        self._closed = False  # set by close(): no connection is pooled after it
        self.retry = retry if retry is not None else RetryPolicy()
        self._rate_limiter = rate_limiter
        self._sleep = sleep
        # complete() runs in worker threads; += on an attribute is not atomic.
        self._count_lock = threading.Lock()
        self.requests_sent = 0

    def __enter__(self) -> "ChatTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the idle connections now and each busy one when its request
        ends; a later request still works, on a connection of its own."""
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _post(self, message: bytes) -> tuple[int, bytes]:
        """Send one request on an idle connection, or a new one, and return
        the reply's status and whole body, all within the timeout. A
        connection goes back to the idle stack only when its reply left it
        fit for another and close() has not run; any other is closed.

        A pooled connection the server has closed is dropped before use; if
        the server closes it before the reply starts, the request is sent
        once more on a new connection, as the same attempt."""
        deadline = time.monotonic() + self._timeout
        conn = self._take_idle()
        if conn is not None:
            try:
                return self._exchange(conn, message, deadline)
            except _DROPPED:
                pass
        conn = self._wire.Connection(self._open_connection(), deadline)
        return self._exchange(conn, message, deadline)

    def _exchange(self, conn: Connection, message: bytes, deadline: float) -> tuple[int, bytes]:
        try:
            status, data, reusable = conn.exchange(message, deadline)
        except BaseException:
            conn.close()
            raise
        with self._idle_lock:
            pooled = reusable and not self._closed
            if pooled:
                self._idle.append(conn)
        if not pooled:
            conn.close()
        return status, data

    def _take_idle(self) -> Connection | None:
        """Pop the most recently used idle connection that is still open."""
        while True:
            with self._idle_lock:
                if not self._idle:
                    return None
                conn = self._idle.pop()
            if not conn.stale():
                return conn
            conn.close()

    def complete(self, req: ChatRequest) -> str:
        """POST the request; return the first choice's message text verbatim."""
        body = req.to_wire()
        message = b"".join((self._head, b"%d" % len(body), self._head_end, body))
        last_status: int | None = None
        last_detail = ""
        for attempt in range(1, self.retry.max_attempts + 1):
            if self._rate_limiter is not None:
                self._rate_limiter.acquire()
            with self._count_lock:
                self.requests_sent += 1
            try:
                status, data = self._post(message)
            except self._wire.FAULTS as exc:
                last_status = None
                last_detail = str(exc)
            else:
                if 200 <= status < 300:
                    return _extract_content(data)
                last_status = status
                last_detail = data.decode("utf-8", "replace")[:200]
                if not self.retry.is_retryable(status):
                    raise TransportError(
                        f"chat endpoint returned {status}: {last_detail}",
                        status=status,
                    )
            if attempt < self.retry.max_attempts:
                self._sleep(self.retry.delay_after(attempt))

        status_note = f"status {last_status}" if last_status is not None else "no response"
        raise TransportError(
            f"chat endpoint failed after {self.retry.max_attempts} attempts "
            f"({status_note}): {last_detail}",
            status=last_status,
        )


def _extract_content(body: bytes) -> str:
    try:
        data = json.loads(body)
    except (ValueError, RecursionError) as exc:
        raise ResponseFormatError(f"response body is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ResponseFormatError("response JSON is not an object")
    choices = data.get("choices")
    if not isinstance(choices, list) or not choices:
        raise ResponseFormatError("response JSON has no choices")
    try:
        content = choices[0]["message"]["content"]
    except (KeyError, TypeError):
        raise ResponseFormatError(
            "response JSON missing choices[0].message.content"
        ) from None
    if not isinstance(content, str):
        raise ResponseFormatError("choices[0].message.content is not a string")
    if not content.isascii():
        try:
            content.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate; no file could hold it
            raise ResponseFormatError(
                f"choices[0].message.content is not valid Unicode: {exc}"
            ) from None
    return content

