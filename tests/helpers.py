"""Shared builders and scripted doubles for the test suite."""

from __future__ import annotations

import json
import os
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ragtrim.data import QAExample, RankedDocument, RetrievalSet


def make_example(id="q1", query="who wrote Hamlet", answers=("William Shakespeare",), history=None):
    return QAExample(id=id, query=query, gold_answers=tuple(answers), history=history)


def make_retrieval(query_id="q1", texts=None, scores=None):
    texts = texts if texts is not None else ["doc one text", "doc two text", "doc three text"]
    scores = scores if scores is not None else [0.9 - 0.1 * i for i in range(len(texts))]
    docs = tuple(
        RankedDocument(doc_id=f"{query_id}-d{i}", text=t, score=s, rank=i)
        for i, (t, s) in enumerate(zip(texts, scores), 1)
    )
    return RetrievalSet(query_id=query_id, docs=docs)


class ScriptedClient:
    """GeneratorClient returning canned outputs keyed by (query_id, len(context))."""

    def __init__(self, outputs, default="UNKNOWN"):
        self.outputs = outputs
        self.default = default
        self.calls = 0
        self.prompts = []

    def generate(self, prompt):
        self.calls += 1
        self.prompts.append(prompt)
        return self.outputs.get((prompt.query_id, len(prompt.context_docs)), self.default)

    def fingerprint(self):
        return "scripted:test"


class FailingClient:
    """GeneratorClient that always raises a transport error."""

    def __init__(self):
        from ragtrim.generation import TransportError

        self.error = TransportError("simulated outage")
        self.calls = 0

    def generate(self, prompt):
        self.calls += 1
        raise self.error

    def fingerprint(self):
        return "failing:test"


# 200 response bodies that are not a JSON object: JSON array, number, null and
# string, and a body that is not JSON at all.
MALFORMED_BODIES = {
    "array": b"[]",
    "text-array": b'["text"]',
    "number": b"5",
    "null": b"null",
    "string": b'"x"',
    "not-json": b"x",
}


def http_response(status: int, body: bytes):
    """The response HttpSession.post returns for the given status and raw body."""
    from ragtrim.generation import HttpResponse

    return HttpResponse(status, body)


class BodySession:
    """Stands in for an HttpSession; every POST gets a 200 with the given body."""

    def __init__(self, body: bytes):
        self.body = body
        self.posts = 0

    def post(self, *args, **kwargs):
        self.posts += 1
        return http_response(200, self.body)


def clear_proxy_env(monkeypatch) -> None:
    """Unset every proxy variable, so a test does not depend on the machine's settings."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


def free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class ScriptedServer:
    """Local HTTP server that replays a list of (status, payload) responses.

    The last response repeats once the script is exhausted. A payload may be
    a function of the request body. A status of "drop" reads the request and
    closes the connection without a reply.
    Request bodies, targets, headers and client ports are recorded for
    assertions. With ``keep_alive`` the server speaks HTTP/1.1 and keeps each
    connection open; ``close_after_reply`` then closes it after each reply
    without announcing it, and releases ``closed`` once it is closed.
    """

    def __init__(self, script, keep_alive=False, close_after_reply=False):
        self.script = list(script)
        self.bodies: list[dict] = []
        self.paths: list[str] = []
        self.headers_seen: list[dict] = []
        self.ports: list[int] = []
        self.closed = threading.Semaphore(0)
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b"{}"
                request = json.loads(raw or b"{}")
                outer.bodies.append(request)
                outer.paths.append(self.path)
                outer.headers_seen.append(dict(self.headers))
                outer.ports.append(self.client_address[1])
                idx = min(len(outer.bodies) - 1, len(outer.script) - 1)
                status, payload = outer.script[idx]
                if status == "drop":
                    self.close_connection = True
                    return
                if callable(payload):
                    payload = payload(request)
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                if close_after_reply:
                    self.close_connection = True

            def log_message(self, *args):
                pass

        class Server(ThreadingHTTPServer):
            def shutdown_request(self, request):
                super().shutdown_request(request)
                outer.closed.release()

        self.server = Server(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_port}/"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
