"""HTTP client for OpenAI-compatible chat-completion endpoints.

Wire contract: POST {base_url}/v1/chat/completions with a bearer token and
body {model, temperature, max_tokens, messages=[{role: "user", content}]};
the reply is read verbatim from choices[0].message.content. Configuration
falls back to the LI_API_BASE and LI_API_KEY environment variables. The base
URL may not carry user info, a query or a fragment, and the key must be
printable ASCII; neither error message shows a secret.

Requests go out on pooled standard-library keep-alive connections. HTTPS
verifies against the system trust store (SSL_CERT_FILE and SSL_CERT_DIR
override it). Redirects are not followed. The proxy comes from the
environment (http_proxy, https_proxy, all_proxy, no_proxy): only an
http:// proxy is supported, tunnelled with CONNECT for https endpoints and
given Basic credentials from its user:password; any other proxy is refused
rather than bypassed.
"""

from __future__ import annotations

import base64
import http.client
import json
import math
import os
import select
import ssl
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Callable

from dravlid.errors import ResponseFormatError, TransportError

ENV_API_BASE = "LI_API_BASE"
ENV_API_KEY = "LI_API_KEY"

DEFAULT_TIMEOUT = 30.0
DEFAULT_RATE_PER_MINUTE = 60.0

# The longest timeout or single sleep, in seconds. Sockets refuse a timeout
# above threading.TIMEOUT_MAX and time.sleep() one that ends past it on the
# monotonic clock, so waits stop at half of it (146 years on Linux).
MAX_WAIT = threading.TIMEOUT_MAX / 2

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

    def to_wire(self) -> dict:
        return {
            "model": self.model_id,
            "temperature": self.temperature,
            "max_tokens": self.max_output_tokens,
            "messages": [{"role": "user", "content": self.user_message}],
        }


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
    any thread; close() closes them, and so does leaving a `with` block.
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
        self._open_connection, self._target, proxy_headers = _route(
            parts, parts.path.rstrip("/") + "/v1/chat/completions", timeout
        )
        self._headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
            **proxy_headers,
        }
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        self.retry = retry if retry is not None else RetryPolicy()
        self._rate_limiter = rate_limiter
        self._sleep = sleep
        # complete() runs in pool threads; += on an attribute is not atomic.
        self._count_lock = threading.Lock()
        self.requests_sent = 0

    def __enter__(self) -> "ChatTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """Send one POST on an idle connection, or a new one; return the
        status and the whole body. A connection goes back to the idle stack
        only after its response was read; one whose request raised is closed.

        A pooled connection the server has closed is dropped before use; if
        the server closes it as the request goes out, the request is sent
        once more on a new connection, as the same attempt."""
        conn = self._take_idle()
        resp = None
        if conn is not None:
            try:
                resp = self._send(conn, body)
            except _DROPPED:
                pass
        if resp is None:
            conn = self._open_connection()
            resp = self._send(conn, body)
        try:
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if conn.sock is not None:  # None once the server said it will close
            with self._idle_lock:
                self._idle.append(conn)
        return resp.status, data

    def _take_idle(self) -> http.client.HTTPConnection | None:
        """Pop the most recently used idle connection that is still open."""
        while True:
            with self._idle_lock:
                if not self._idle:
                    return None
                conn = self._idle.pop()
            # An idle socket reads ready only at EOF or with bytes no request
            # asked for; either way it cannot carry the next exchange.
            if not select.select([conn.sock], [], [], 0)[0]:
                return conn
            conn.close()

    def _send(
        self, conn: http.client.HTTPConnection, body: bytes
    ) -> http.client.HTTPResponse:
        try:
            conn.request("POST", self._target, body, self._headers)
            return conn.getresponse()
        except BaseException:
            conn.close()
            raise

    def complete(self, req: ChatRequest) -> str:
        """POST the request; return the first choice's message text verbatim."""
        body = json.dumps(req.to_wire()).encode("utf-8")
        last_status: int | None = None
        last_detail = ""
        for attempt in range(1, self.retry.max_attempts + 1):
            if self._rate_limiter is not None:
                self._rate_limiter.acquire()
            with self._count_lock:
                self.requests_sent += 1
            try:
                status, data = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
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


def _route(
    parts: urllib.parse.SplitResult, path: str, timeout: float
) -> tuple[Callable[[], http.client.HTTPConnection], str, dict]:
    """A factory for connections to the endpoint, the request target for
    path, and headers each request adds: direct, or through the
    environment's proxy unless it is bypassed. A proxy's credentials go into
    each request for an http endpoint, or into the CONNECT for an https one."""
    https = parts.scheme == "https"
    # An explicit port, so that http.client never reads one out of an IPv6 host.
    host, port = parts.hostname, parts.port or (443 if https else 80)
    proxy = _proxy_for(parts.scheme, parts.netloc)
    if proxy is None:
        address, proxy_headers = (host, port), {}
    else:
        address, proxy_headers = proxy
    if not https:
        # A proxy takes the absolute form, and http.client sends Host from it.
        target = f"http://{parts.netloc}{path}" if proxy else path
        return (
            lambda: http.client.HTTPConnection(*address, timeout=timeout),
            target,
            proxy_headers,
        )
    context = ssl.create_default_context()

    def connect() -> http.client.HTTPConnection:
        conn = http.client.HTTPSConnection(*address, timeout=timeout, context=context)
        if proxy:
            conn.set_tunnel(host, port, headers=proxy_headers)
        return conn

    return connect, path, {}


def _proxy_for(scheme: str, authority: str) -> tuple[tuple[str, int], dict] | None:
    """The (host, port) of the environment's proxy for scheme and the
    headers its credentials need, or None when there is no proxy or no_proxy
    bypasses it for authority. ValueError names the variable when the proxy
    is not an http:// one."""
    proxies = urllib.request.getproxies()
    key = scheme if proxies.get(scheme) else "all"
    proxy = proxies.get(key)
    if not proxy or urllib.request.proxy_bypass(authority):
        return None
    try:
        parts = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
        if parts.scheme == "http" and parts.hostname:
            return (parts.hostname, parts.port or 80), _proxy_credentials(parts)
    except ValueError:  # a port that is not a number
        pass
    variable = next(
        (name for name in (f"{key}_proxy", f"{key.upper()}_PROXY") if name in os.environ),
        f"{key}_proxy",
    )
    kind, sep, rest = proxy.rpartition("://")
    shown = kind + sep + rest.rpartition("@")[2]  # never echo a password
    raise ValueError(
        f"{variable}={shown!r} is not supported: use an http:// proxy, "
        "or list the endpoint's host in no_proxy"
    )


def _proxy_credentials(parts: urllib.parse.SplitResult) -> dict:
    """A Proxy-Authorization header for the proxy URL's user and password,
    or none when it names no user."""
    if not parts.username:
        return {}
    user = urllib.parse.unquote(parts.username)
    password = urllib.parse.unquote(parts.password or "")
    token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
    return {"Proxy-Authorization": f"Basic {token}"}


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

