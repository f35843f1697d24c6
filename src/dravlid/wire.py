"""The wire layer of dravlid.transport, imported when a ChatTransport is built.

http.client opens pooled keep-alive connections (TCP, TLS, a proxy's
CONNECT); each request is then one send of a head built once, and its reply
is read by Connection, all within the timeout and MAX_REPLY_BYTES. HTTPS
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
import os
import re
import select
import ssl
import time
import urllib.parse
import urllib.request
from typing import Callable

from dravlid.transport import MAX_REPLY_BYTES

# Lines and header lines are limited as in http.client.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_STATUS_LINE = re.compile(rb"HTTP/1\.([01])[ \t]+([1-9]\d\d)[ \t\r\n]")

FAULTS = (OSError, http.client.HTTPException)  # how an exchange fails: a retried attempt


def route(
    parts: urllib.parse.SplitResult, path: str
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
        # A proxy takes the absolute form, and Host comes from it.
        target = f"http://{parts.netloc}{path}" if proxy else path
        return (
            lambda: http.client.HTTPConnection(*address),
            target,
            proxy_headers,
        )
    context = ssl.create_default_context()

    def connect() -> http.client.HTTPConnection:
        conn = http.client.HTTPSConnection(*address, context=context)
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


def host_header(parts: urllib.parse.SplitResult, target: str) -> bytes:
    """The Host header http.client sends with target: a proxy's absolute
    form gives its netloc, else the host (in brackets for IPv6, without a
    zone) and a port other than the scheme's. IDNA leaves ASCII as it is."""
    host = parts.netloc
    if not target.startswith("http"):
        host = f"[{parts.hostname.partition('%')[0]}]" if ":" in parts.hostname else parts.hostname
        if parts.port not in (None, 443 if parts.scheme == "https" else 80):
            host += f":{parts.port}"
    return host.encode("idna")


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


class Connection:
    """A connection http.client opened, and the buffer that recv_into reads
    each reply into, every wait bounded by the attempt's deadline.

    Chunks frame a body, and win over Content-Length; else Content-Length
    does, else the end of the connection. 1xx replies are skipped; 204 and
    304 have no body. Only an HTTP/1.1 reply framed by its length, without
    Connection: close and with no byte left over, leaves the connection fit
    for another. Faults raise OSError or http.client.HTTPException."""

    def __init__(self, conn: http.client.HTTPConnection, deadline: float):
        try:
            conn.timeout = _time_left(deadline)
            conn.connect()
        except BaseException:
            conn.close()
            raise
        self.conn, self.sock = conn, conn.sock
        self._buf = bytearray(1 << 14)

    def close(self) -> None:
        self.conn.close()

    def stale(self) -> bool:
        """Whether the idle connection reads ready, at EOF or with bytes unasked for."""
        return bool(select.select([self.sock], [], [], 0)[0])

    def exchange(self, message: bytes, deadline: float) -> tuple[int, bytes, bool]:
        """Send message; return its reply's status and body, and whether the
        connection can carry another exchange."""
        self._pos = self._end = 0
        self._deadline = deadline
        self.sock.settimeout(_time_left(deadline))
        self.sock.sendall(message)
        while (head := self._head())[0] < 200:  # an interim reply
            pass
        status, length, chunked, reusable = head
        if status in (204, 304):
            body = b""
        elif chunked:
            body, reusable = self._chunked(), reusable and length is None
        else:
            body, reusable = self._take(length), reusable and length is not None
        return status, body, reusable and self._pos == self._end

    def _head(self) -> tuple[int, int | None, bool, bool]:
        """Read a status line and its headers: the status, Content-Length,
        whether chunks frame the body and whether the connection stays open."""
        line = self._line()
        if not (status := _STATUS_LINE.match(line)):
            raise http.client.BadStatusLine(f"bad status line: {line[:100]!r}")
        reusable, chunked, lengths = status[1] == b"1", False, set()
        for _ in range(_MAX_HEADERS + 1):
            name, _, value = self._line().lower().partition(b":")
            if name in (b"\r\n", b"\n"):
                break
            value = value.strip()
            if name == b"content-length":
                lengths.add(value)
            elif name == b"transfer-encoding":
                chunked = value == b"chunked"
            elif name == b"connection":
                reusable = reusable and b"close" not in value
        else:
            raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")
        if len(lengths) > 1 or not all(n.isdigit() and len(n) < 20 for n in lengths):
            shown = b",".join(sorted(lengths))[:40]
            raise http.client.HTTPException(f"bad Content-Length: {shown!r}")
        length = int(lengths.pop()) if lengths else None
        return int(status[2]), length, chunked, reusable

    def _chunked(self) -> bytes:
        """A chunked body, without its chunk extensions and trailer fields."""
        chunks = []
        while True:
            size = self._line().partition(b";")[0].strip()
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise http.client.HTTPException(f"bad chunk size: {size[:20]!r}")
            if not int(size, 16):
                break
            chunks.append(self._take(int(size, 16)))
            if self._line().strip():
                raise http.client.HTTPException("chunk data not followed by CRLF")
        while self._line() not in (b"\r\n", b"\n"):  # the trailer
            pass
        return b"".join(chunks)

    def _line(self) -> bytes:
        """The next line, its line ending included."""
        pos = scanned = self._pos
        while ((end := self._buf.find(b"\n", scanned, self._end)) < 0
               and self._end - pos < _MAX_LINE):
            scanned = self._end
            self._fill()
        if not 0 <= end - pos < _MAX_LINE:
            raise http.client.LineTooLong("line")
        self._pos = end + 1
        return bytes(self._buf[pos:end + 1])

    def _take(self, length: int | None) -> bytes:
        """The next length bytes, or, if length is None, all up to the end."""
        while length is None or self._end - self._pos < length:
            if not self._fill(at_eof=length is None):
                length = self._end - self._pos
        self._pos += length
        return bytes(self._buf[self._pos - length:self._pos])

    def _fill(self, at_eof: bool = False) -> int:
        """Receive more of the reply; 0 at the end of the connection, which
        is an error unless at_eof."""
        if self._end == len(self._buf):
            if self._end >= MAX_REPLY_BYTES:
                raise http.client.HTTPException(f"reply longer than {MAX_REPLY_BYTES} bytes")
            self._buf.extend(bytes(self._end))
        self.sock.settimeout(_time_left(self._deadline))
        received = self.sock.recv_into(memoryview(self._buf)[self._end:])
        if not (received or at_eof):
            if not self._end:
                raise http.client.RemoteDisconnected(
                    "Remote end closed connection without response")
            raise http.client.IncompleteRead(bytes(self._buf[self._pos:self._end]))
        self._end += received
        return received
