#!/usr/bin/env python3
"""Localhost generator endpoint with mock-oracle answers, for the HTTP workloads.

Speaks the request shape ``HttpGeneratorClient`` sends ({"model", "prompt",
...} -> {"text"}). It rebuilds the prompt's context documents from the
``Document i:`` lines and the query from the ``Question:`` line, finds the
example by its query text in the corpus, and answers with
``ragtrim.generation.mock_generate``. The model name picks the oracle
config: ``mock`` is the plain oracle, ``mock-c3`` adds confusion threshold 3
(the document-count sweep).

Every reply leaves a fixed service time (``SERVICE_MS``) after its request arrived. A
seeded share of distinct (model, prompt) pairs fails its first attempt, with
a 503 or a dropped connection; which pairs fail depends only on the seed and
sha256 of the pair, never on request order. ``GET /stats`` reports successful requests,
injected faults and the whitespace tokens of successful prompts;
``POST /reset`` zeroes them and forgets earlier attempts.

Usage: python3 stub.py --src SRC --corpus-dir DIR --seed N --fault-rate 0.01
It prints ``PORT <n>`` on stdout once it accepts requests, and exits on SIGTERM.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

SERVICE_MS = 2.0  # every reply leaves this long after its request arrived
SERVICE_S = SERVICE_MS / 1000.0
MODELS = {"mock": None, "mock-c3": 3}  # model name -> confusion threshold


class Backend:
    """Oracle lookup, fault schedule and counters shared by all connections."""

    def __init__(self, examples, closed_book_ids, seed: int, fault_rate: float):
        from ragtrim.generation import MockOracleConfig, mock_generate

        self._mock_generate = mock_generate
        self.configs = {
            name: MockOracleConfig(confusion_threshold=threshold, seed=seed)
            for name, threshold in MODELS.items()
        }
        self.by_query = {ex.query: ex for ex in examples}
        self.closed_book_ids = frozenset(closed_book_ids)
        self.seed = seed
        self.fault_rate = fault_rate
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.attempts: dict[bytes, int] = {}
            self.stats = {"requests": 0, "prompt_tokens": 0, "faults_503": 0, "faults_drop": 0}

    def fault(self, model: str, prompt: str) -> str | None:
        """'503', 'drop' or None for this attempt of (model, prompt)."""
        digest = hashlib.sha256(f"{self.seed}|{model}|{prompt}".encode("utf-8")).digest()
        with self.lock:
            attempt = self.attempts.get(digest, 0) + 1
            self.attempts[digest] = attempt
        if attempt > 1 or int.from_bytes(digest[:8], "big") / 2**64 >= self.fault_rate:
            return None
        kind = "503" if digest[8] % 2 else "drop"
        with self.lock:
            self.stats[f"faults_{kind}"] += 1
        return kind

    def answer(self, model: str, prompt_text: str) -> str:
        from ragtrim.generation import Prompt

        config = self.configs.get(model)
        if config is None:
            raise ValueError(f"unknown model {model!r}")
        docs, query = [], None
        for line in prompt_text.split("\n"):
            if line.startswith("Document "):
                docs.append(line.split(": ", 1)[1])
            elif line.startswith("Question: "):
                query = line[len("Question: "):]
        example = self.by_query.get(query)
        if example is None:
            raise ValueError(f"no example for question {query!r}")
        prompt = Prompt(
            query_id=example.id,
            query=query,
            context_docs=tuple(docs),
            template_id="qa_default",
            text=prompt_text,
        )
        text = self._mock_generate(
            config, prompt, example.gold_answers, example.id in self.closed_book_ids
        )
        with self.lock:
            self.stats["requests"] += 1
            self.stats["prompt_tokens"] += len(prompt_text.split())
        return text


class Handler(BaseHTTPRequestHandler):
    """Routes of the stub; one thread per keep-alive connection."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # no reply waits on a delayed ACK
    backend: Backend  # set by main()

    def log_message(self, *args) -> None:  # no line per request on stderr
        pass

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._reply(404, {"error": f"no route GET {self.path}"})
            return
        with self.backend.lock:
            stats = dict(self.backend.stats)
        stats["faults"] = stats["faults_503"] + stats["faults_drop"]
        self._reply(200, stats)

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            self.backend.reset()
            self._reply(200, {"reset": True})
        elif self.path == "/":
            self._generate(body)
        else:
            self._reply(404, {"error": f"no route POST {self.path}"})

    def _generate(self, body: bytes) -> None:
        """Answer one generation request, or drop the connection when a fault says so.

        The reply leaves one service time after the request arrived, so the
        stub's own parsing and answering are part of that time, not added to it.
        """
        due = time.perf_counter() + SERVICE_S
        try:
            request = json.loads(body)
            model, prompt = request["model"], request["prompt"]
        except (ValueError, KeyError, TypeError) as exc:
            self._reply(400, {"error": f"bad request: {exc}"})
            return
        fault = self.backend.fault(model, prompt)
        if fault == "drop":
            self.close_connection = True
            return
        if fault == "503":
            status, payload = 503, {"error": "injected fault"}
        else:
            try:
                status, payload = 200, {"text": self.backend.answer(model, prompt)}
            except ValueError as exc:
                status, payload = 400, {"error": str(exc)}
        time.sleep(max(0.0, due - time.perf_counter()))
        self._reply(status, payload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the ragtrim package")
    parser.add_argument("--corpus-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--fault-rate", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from ragtrim.data import load_examples
    from ragtrim.synth import load_plan

    corpus = Path(args.corpus_dir)
    closed_book = [e.example_id for e in load_plan(corpus / "plan.jsonl") if e.closed_book]
    backend = Backend(
        load_examples(corpus / "examples.jsonl"),
        closed_book,
        seed=args.seed,
        fault_rate=args.fault_rate,
    )
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    Handler.backend = backend
    with ThreadingHTTPServer(("127.0.0.1", 0), Handler) as server:
        print(f"PORT {server.server_address[1]}", flush=True)
        server.serve_forever()


if __name__ == "__main__":
    raise SystemExit(main())
