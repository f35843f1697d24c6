"""Out-of-process chat-completions stub for the live workloads.

Run as `python3 perfbench/stub.py --gold GOLD.json`; it prints the port it
listens on as its first line. Each 200 reply is derived from the prompt's
word by workloads.model_reply. Requests are numbered as they arrive, and
every STUB_FAIL_EVERY-th one is answered 503, so the number of requests a
run needs is fixed by its word count, whatever the interleaving.

Control endpoints, not counted: GET /__stats returns the 2xx, 503 and 404
(word not in the workload) counts since the last POST /__reset.

The stub runs in its own interpreter so that it does not share the client's
GIL; it speaks HTTP/1.1 keep-alive with a listen backlog above the client's
worker count; and it writes each response with one send, because headers
and body sent apart on a keep-alive connection stall on delayed ACK.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from workloads import STUB_FAIL_EVERY, STUB_LATENCY_MS, model_reply

WORD_MARKER = "The word is "


class StubServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 64

    def __init__(self, gold: dict[str, str], latency_s: float, fail_every: int):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.gold = gold
        self.latency_s = latency_s
        self.fail_every = fail_every
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.arrivals = 0
            self.counts = {"2xx": 0, "503": 0, "404": 0}

    def next_status(self, known_word: bool) -> int:
        """Number the request and count its status."""
        with self.lock:
            self.arrivals += 1
            if not known_word:
                status = 404
            else:
                status = 503 if self.arrivals % self.fail_every == 0 else 200
            self.counts["2xx" if status == 200 else str(status)] += 1
            return status


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        if self.path != "/__stats":
            self._send(404, {"error": "unknown path"})
            return
        with self.server.lock:
            self._send(200, dict(self.server.counts))

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        if self.path == "/__reset":
            self.server.reset()
            self._send(200, {})
            return
        request = json.loads(body)
        prompt = request["messages"][0]["content"]
        word = prompt.rsplit(WORD_MARKER, 1)[1][:-1]
        task = "tm" if "Tamil" in prompt else "kn"
        gold = self.server.gold.get(word)
        time.sleep(self.server.latency_s)
        status = self.server.next_status(known_word=gold is not None)
        if status == 404:
            self._send(404, {"error": f"word not in this workload: {word!r}"})
            return
        if status == 503:
            self._send(503, {"error": "injected overload"})
            return
        reply, _ = model_reply(word, request["temperature"], gold, task)
        self._send(200, {"choices": [{"message": {"content": reply}}]})

    def log_message(self, *args) -> None:
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gold", required=True, help="JSON object word -> gold code")
    args = parser.parse_args()
    with open(args.gold, encoding="utf-8") as fh:
        gold = json.load(fh)
    server = StubServer(gold, STUB_LATENCY_MS / 1000.0, STUB_FAIL_EVERY)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
