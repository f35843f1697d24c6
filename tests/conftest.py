"""Shared test configuration: offline guard and hypothesis settings.

The whole suite must run with no network and no credentials; the socket
guard turns any accidental non-local connection into a hard failure
instead of a hang or a real request.
"""

from __future__ import annotations

import socket
import time

import pytest
from hypothesis import HealthCheck, settings

SUITE_BUDGET_SECONDS = 60.0
_SUITE_STARTED = time.monotonic()

settings.register_profile(
    "offline-suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("offline-suite")

_LOCAL_HOSTS = {"127.0.0.1", "localhost", "::1", "0.0.0.0"}


@pytest.fixture(autouse=True, scope="session")
def _block_external_network():
    real_connect = socket.socket.connect

    def guarded_connect(self, address, *args, **kwargs):
        if isinstance(address, tuple) and address:
            host = address[0]
            if isinstance(host, (str, bytes)):
                name = host.decode() if isinstance(host, bytes) else host
                if name not in _LOCAL_HOSTS:
                    raise RuntimeError(
                        f"test tried to reach a non-local host: {name!r}"
                    )
        return real_connect(self, address, *args, **kwargs)

    socket.socket.connect = guarded_connect
    try:
        yield
    finally:
        socket.socket.connect = real_connect


@pytest.fixture(autouse=True)
def _no_ambient_credentials(monkeypatch):
    # Transport falls back to these; tests must always configure explicitly.
    monkeypatch.delenv("LI_API_BASE", raising=False)
    monkeypatch.delenv("LI_API_KEY", raising=False)


@pytest.fixture(autouse=True)
def _no_ambient_proxy(monkeypatch):
    # Transport routes through these; the localhost stub must be reached directly.
    for scheme in ("http", "https", "all", "no"):
        monkeypatch.delenv(f"{scheme}_proxy", raising=False)
        monkeypatch.delenv(f"{scheme.upper()}_PROXY", raising=False)


def token_rows(ds) -> list[tuple]:
    """(surface, gold, sentence_index, token_index) of each token of a Dataset,
    with the sentence and token positions counted from its breaks."""
    surfaces = ds.surfaces()
    rows = []
    start = 0
    for sentence_index, end in enumerate((*ds.breaks, len(ds))):
        rows.extend(
            (surfaces[i], ds.golds[i], sentence_index, i - start)
            for i in range(start, end)
        )
        start = end
    return rows


def pytest_sessionfinish(session, exitstatus):
    # Only enforce the runtime budget on full-suite runs; a single slow test
    # picked with -k should not trip it.
    if session.testscollected < 100:
        return
    elapsed = time.monotonic() - _SUITE_STARTED
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if elapsed >= SUITE_BUDGET_SECONDS:
        session.exitstatus = 1
        line = f"[FAIL] offline suite runtime {elapsed:.1f}s (budget {SUITE_BUDGET_SECONDS:.0f}s)"
    else:
        line = f"[PASS] offline suite runtime {elapsed:.1f}s (budget {SUITE_BUDGET_SECONDS:.0f}s)"
    if reporter is not None:
        reporter.write_line(line)
