"""A scripted localhost chat-completions endpoint for transport tests.

Responses are served from an explicit queue; once the queue is empty the
server answers every request with a 200 whose content comes from the
`default_content` callable (given the parsed request body). Every request
body, path and header set is recorded for assertions, and so are the
connections: how many were accepted and how many are still open.

By default the server speaks HTTP/1.0 and closes each connection after its
reply. With keep_alive it speaks HTTP/1.1 and keeps connections open. With
hang_up as well, it closes each one after its reply without saying so, as a
keep-alive server does when its idle timeout strikes between requests. With
drop_reused instead, it reads each later request on a connection and closes
it without a reply (counted in `dropped`), as such a server does when the
timeout strikes while a request is on its way.

With stream="drip" every reply is a 200 whose body goes out one byte every
DRIP_SECONDS; with stream="endless" it is a 200 with no length whose body
never ends. Either stops when the client hangs up.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable


DRIP_SECONDS = 0.1


class _Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # A client that hangs up before its reply, as an interrupted run
        # does, is no fault of the stub's; the traceback would land in the
        # captured stderr of whichever test runs when the reply is due.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


def content_reply(text: str) -> dict:
    return {"choices": [{"message": {"content": text}}]}


class StubChatServer:
    def __init__(
        self,
        default_content: Callable[[dict], str] | None = None,
        keep_alive: bool = False,
        hang_up: bool = False,
        drop_reused: bool = False,
        stream: str | None = None,
    ):
        self._default_content = default_content or (lambda body: "en")
        self._script: list[tuple[int, object]] = []
        self._lock = threading.Lock()
        self.requests: list[dict] = []
        self.paths: list[str] = []
        self.headers: list[dict] = []
        self.dropped = 0
        self.connections = 0
        self.open_connections = 0

        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"
            # A client that never closes must not hold up server_close() for long.
            timeout = 10

            def setup(self):
                super().setup()
                # Headers and body go out in two sends; without this a
                # keep-alive client waits on delayed ACK for the body.
                self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.served = 0
                with outer._lock:
                    outer.connections += 1
                    outer.open_connections += 1

            def finish(self):
                try:
                    super().finish()
                finally:
                    with outer._lock:
                        outer.open_connections -= 1

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length) or b"{}")
                if drop_reused and self.served:
                    with outer._lock:
                        outer.dropped += 1
                    self.close_connection = True
                    return
                self.served += 1
                if stream is not None:
                    self.stream_reply(stream)
                    return
                with outer._lock:
                    outer.requests.append(body)
                    outer.paths.append(self.path)
                    outer.headers.append(dict(self.headers))
                    scripted = outer._script.pop(0) if outer._script else None
                # Outside the lock, so that a slow default_content delays
                # only its own request.
                status, payload = scripted or (
                    200, content_reply(outer._default_content(body))
                )
                raw = (
                    payload.encode("utf-8")
                    if isinstance(payload, str)
                    else json.dumps(payload).encode("utf-8")
                )
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)
                if hang_up:
                    self.close_connection = True

            def stream_reply(self, kind):
                raw = json.dumps(content_reply("en")).encode("utf-8")
                self.close_connection = True
                self.send_response(200)
                if kind == "drip":
                    self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                try:
                    if kind == "drip":
                        for byte in raw:
                            self.wfile.write(bytes([byte]))
                            time.sleep(DRIP_SECONDS)
                    else:
                        while True:
                            self.wfile.write(b" " * 65536)
                except OSError:  # the client hung up
                    pass

            def log_message(self, *args):
                pass

        self._server = _Server(("127.0.0.1", 0), Handler)
        # Small poll interval keeps shutdown() fast; the suite starts many
        # short-lived servers.
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.01),
            daemon=True,
        )

    def enqueue(self, status: int, payload: object) -> None:
        """Queue one scripted reply; payload is a JSON dict or a raw string."""
        with self._lock:
            self._script.append((status, payload))

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def request_count(self) -> int:
        with self._lock:
            return len(self.requests)

    def __enter__(self) -> "StubChatServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
