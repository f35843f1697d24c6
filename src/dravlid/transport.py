"""HTTP client for OpenAI-compatible chat-completion endpoints.

Wire contract: POST {base_url}/v1/chat/completions with a bearer token and
body {model, temperature, max_tokens, messages=[{role: "user", content}]};
the reply is read verbatim from choices[0].message.content. Configuration
falls back to the LI_API_BASE and LI_API_KEY environment variables.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

import requests

from dravlid.errors import ResponseFormatError, TransportError

ENV_API_BASE = "LI_API_BASE"
ENV_API_KEY = "LI_API_KEY"

DEFAULT_TIMEOUT = 30.0
DEFAULT_RATE_PER_MINUTE = 60.0

_RETRYABLE_STATUSES = frozenset({429}) | frozenset(range(500, 600))


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
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")

    def is_retryable(self, status: int) -> bool:
        return status in _RETRYABLE_STATUSES

    def delay_after(self, attempt: int) -> float:
        """Seconds to wait after the given 1-based failed attempt."""
        return self.base_delay * 2 ** (attempt - 1)


class TokenBucket:
    """Blocking token-bucket rate limiter, default 60 requests per minute."""

    def __init__(
        self,
        rate_per_minute: float = DEFAULT_RATE_PER_MINUTE,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate_per_minute <= 0:
            raise ValueError("rate_per_minute must be positive")
        self._rate_per_second = rate_per_minute / 60.0
        self._capacity = burst if burst is not None else rate_per_minute
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
            self._sleep(wait)


class ChatTransport:
    """Callable wrapper around one endpoint + credentials + retry policy."""

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        retry: RetryPolicy | None = None,
        rate_limiter: TokenBucket | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        base_url = base_url or os.environ.get(ENV_API_BASE)
        if not base_url:
            raise ValueError(
                f"no endpoint configured: pass base_url or set {ENV_API_BASE}"
            )
        api_key = api_key or os.environ.get(ENV_API_KEY)
        if not api_key:
            raise ValueError(
                f"no credentials configured: pass api_key or set {ENV_API_KEY}"
            )
        self._url = base_url.rstrip("/") + "/v1/chat/completions"
        self._api_key = api_key
        self.retry = retry if retry is not None else RetryPolicy()
        self._rate_limiter = rate_limiter
        self._timeout = timeout
        self._session = session if session is not None else requests.Session()
        self._sleep = sleep
        # complete() runs in pool threads; += on an attribute is not atomic.
        self._count_lock = threading.Lock()
        self.requests_sent = 0

    def complete(self, req: ChatRequest) -> str:
        """POST the request; return the first choice's message text verbatim."""
        last_status: int | None = None
        last_detail = ""
        for attempt in range(1, self.retry.max_attempts + 1):
            if self._rate_limiter is not None:
                self._rate_limiter.acquire()
            with self._count_lock:
                self.requests_sent += 1
            try:
                resp = self._session.post(
                    self._url,
                    json=req.to_wire(),
                    headers={"Authorization": f"Bearer {self._api_key}"},
                    timeout=self._timeout,
                )
            except requests.RequestException as exc:
                last_status = None
                last_detail = str(exc)
            else:
                if 200 <= resp.status_code < 300:
                    return _extract_content(resp)
                last_status = resp.status_code
                last_detail = resp.text[:200]
                if not self.retry.is_retryable(resp.status_code):
                    raise TransportError(
                        f"chat endpoint returned {resp.status_code}: {last_detail}",
                        status=resp.status_code,
                    )
            if attempt < self.retry.max_attempts:
                self._sleep(self.retry.delay_after(attempt))

        status_note = f"status {last_status}" if last_status is not None else "no response"
        raise TransportError(
            f"chat endpoint failed after {self.retry.max_attempts} attempts "
            f"({status_note}): {last_detail}",
            status=last_status,
        )


def _extract_content(resp: requests.Response) -> str:
    try:
        data = resp.json()
    except ValueError as exc:
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
    return content

