"""Shared builders and scripted doubles for the test suite."""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json import dumps as json_dumps
from pathlib import Path

from ragtrim.data import QAExample, RankedDocument, RetrievalSet
from ragtrim.generation import CACHE_LOG


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


class ScriptedBackend:
    """Generator backend returning canned outputs keyed by (query_id, len(context))."""

    def __init__(self, outputs, default="UNKNOWN"):
        self.outputs = outputs
        self.default = default
        self.prompts = []

    def fetch(self, prompt):
        self.prompts.append(prompt)
        return self.outputs.get((prompt.query_id, len(prompt.context_docs)), self.default)

    def fingerprint(self):
        return "scripted:test"


class FailingBackend:
    """Generator backend that always raises a transport error."""

    def __init__(self):
        from ragtrim.generation import TransportError

        self.error = TransportError("simulated outage")

    def fetch(self, prompt):
        raise self.error

    def fingerprint(self):
        return "failing:test"


def http_client(config, session=None):
    """A GeneratorClient over an HTTP backend, with ``config``'s cache_dir and width."""
    from ragtrim.generation import GeneratorClient, HttpGeneratorBackend

    return GeneratorClient(HttpGeneratorBackend(config, session), config.cache_dir,
                           config.max_in_flight)


def cache_log_keys(cache_dir) -> list[str]:
    """The key of each line of ``cache_dir``'s answer log, in order; a line that does
    not parse fails the test."""
    return [json.loads(line)["key"]
            for line in (Path(cache_dir) / CACHE_LOG).read_bytes().splitlines()]


# 200 response bodies that are not a JSON object: JSON array, number, null and
# string, a body that is not JSON at all, and arrays nested deeper than json can read.
MALFORMED_BODIES = {
    "array": b"[]",
    "text-array": b'["text"]',
    "number": b"5",
    "null": b"null",
    "string": b'"x"',
    "not-json": b"x",
    "nested-too-deep": b"[" * 100_000,
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


def mock_answers(corpus, dataset) -> dict[str, tuple[str, str]]:
    """Prompt text -> (query id, the corpus mock's answer), for every rank prefix of every
    example: what an endpoint serving that mock would answer."""
    from ragtrim.compress import assemble_prompt
    from ragtrim.synth import mock_client_for

    mock = mock_client_for(corpus)
    answers = {}
    for example, retrieval in dataset:
        for k in range(retrieval.n + 1):
            prompt = assemble_prompt(example, retrieval.docs[:k])
            answers[prompt.text] = (example.id, mock.generate(prompt))
    return answers


class MockEndpoint:
    """Stands in for HttpSession: answers each POST from ``mock_answers``, on any thread.

    Each POST sleeps ``delay_s``. The first attempt of a seeded ``fault_rate``
    share of distinct prompts fails with a 503 or a dropped connection, as in
    perfbench's flaky stub; every prompt of a ``failing`` query id gets a 503.
    A POST of a prompt in ``gates`` waits, in flight, until its event is set
    (at most 10 s; the prompts that timed out are in ``gate_timeouts``).
    Under one lock it counts POSTs, faults and the prompt tokens of answered
    POSTs, the peak number of POSTs in flight, and every POST of a prompt that
    was already in flight.
    """

    def __init__(self, answers, delay_s=0.0, fault_rate=0.0, seed=42, failing=()):
        self.answers = answers
        self.delay_s = delay_s
        self.fault_rate = fault_rate
        self.seed = seed
        self.failing = set(failing)
        self.lock = threading.Lock()
        self.posts = 0
        self.faults = 0
        self.tokens = 0
        self.peak_in_flight = 0
        self.doubled: list[str] = []
        self.in_flight: list[str] = []
        self.seen: set[str] = set()
        self.gates: dict[str, threading.Event] = {}
        self.gate_timeouts: list[str] = []

    def post(self, url, json, **kwargs):
        text = json["prompt"]
        query_id, answer = self.answers[text]
        digest = hashlib.sha256(f"{self.seed}|{text}".encode("utf-8")).digest()
        with self.lock:
            self.posts += 1
            if text in self.in_flight:
                self.doubled.append(text)
            self.in_flight.append(text)
            self.peak_in_flight = max(self.peak_in_flight, len(self.in_flight))
            first = text not in self.seen
            self.seen.add(text)
            fault = query_id in self.failing or (
                first and int.from_bytes(digest[:8], "big") / 2**64 < self.fault_rate)
            self.faults += fault
            self.tokens += 0 if fault else len(text.split())
        try:
            time.sleep(self.delay_s)
            if text in self.gates and not self.gates[text].wait(10):
                self.gate_timeouts.append(text)
            if fault and (query_id in self.failing or digest[8] % 2):
                return http_response(503, b'{"error": "injected fault"}')
            if fault:
                raise http.client.RemoteDisconnected("injected dropped connection")
            return http_response(200, json_dumps({"text": answer}).encode("utf-8"))
        finally:
            with self.lock:
                self.in_flight.remove(text)


def serve(monkeypatch, endpoint) -> None:
    """Send the POSTs of every HttpSession to ``endpoint`` (a MockEndpoint)."""
    from ragtrim.generation import HttpSession

    def post(session, url, **kwargs):
        return endpoint.post(url, **kwargs)

    monkeypatch.setattr(HttpSession, "post", post)


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
            disable_nagle_algorithm = True  # the head and body go out in two sends

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
        # A 0.01 s poll, so leaving the ``with`` block waits that long for the shutdown.
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.01,),
                                       daemon=True)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_port}/"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()


class RawServer:
    """A local TCP server that answers each request with the next scripted raw reply.

    A script entry is (reply bytes, close); the last one repeats. The server reads
    each request's head and its Content-Length body, records the bytes in
    ``requests`` and the client's port in ``ports``, sends the reply and, with
    ``close``, closes the connection; otherwise it waits for the next request on it.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests: list[bytes] = []
        self.ports: list[int] = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}/"

    def __enter__(self):
        threading.Thread(target=self._accept, daemon=True).start()
        return self

    def __exit__(self, *exc):
        self.listener.close()

    def _accept(self):
        while True:
            try:
                conn, (_, port) = self.listener.accept()
            except OSError:  # closed
                return
            threading.Thread(target=self._serve, args=(conn, port), daemon=True).start()

    def _serve(self, conn, port):
        with conn, conn.makefile("rb") as reader:
            while True:
                head = []
                while (line := reader.readline()) not in (b"\r\n", b""):
                    head.append(line)
                if not head:
                    return
                length = [int(line.split(b":")[1]) for line in head
                          if line.lower().startswith(b"content-length:")]
                self.requests.append(b"".join(head) + b"\r\n" + reader.read(sum(length)))
                self.ports.append(port)
                reply, close = self.script[min(len(self.requests), len(self.script)) - 1]
                conn.sendall(reply)
                if close:
                    return


def raw_reply(text: str, head: bytes = b"HTTP/1.1 200 OK\r\n") -> bytes:
    """A reply of ``head`` and a Content-Length body {"text": text}."""
    body = json_dumps({"text": text}).encode("utf-8")
    return head + b"Content-Length: %d\r\n\r\n" % len(body) + body
