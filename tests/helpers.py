"""Shared builders and scripted doubles for the test suite."""

from __future__ import annotations

import json
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
    """A requests.Response with the given status and raw body, as a session returns it."""
    import requests

    response = requests.Response()
    response.status_code = status
    response._content = body
    response.encoding = "utf-8"
    return response


class BodySession:
    """Stands in for a requests session; every POST gets a 200 with the given body."""

    def __init__(self, body: bytes):
        self.body = body
        self.posts = 0

    def post(self, *args, **kwargs):
        self.posts += 1
        return http_response(200, self.body)


def free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class ScriptedServer:
    """Local HTTP server that replays a list of (status, payload) responses.

    The last response repeats once the script is exhausted. Request bodies
    and headers are recorded for assertions.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests: list[dict] = []
        self.headers_seen: list[dict] = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b"{}"
                outer.requests.append(json.loads(raw or b"{}"))
                outer.headers_seen.append(dict(self.headers))
                idx = min(len(outer.requests) - 1, len(outer.script) - 1)
                status, payload = outer.script[idx]
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
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
