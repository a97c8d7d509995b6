"""Generator abstraction: one client over a mock-oracle or an HTTP endpoint backend.

A GeneratorClient turns a prompt into an answer string through its backend,
counting lookups and keeping the disk cache, and reports the backend's stable
fingerprint. The mock oracle answers from normalized-substring evidence in the
context documents, with optional confusion (too many irrelevant documents break
generation) and seeded noise, so corpus-scale behavior is fully deterministic.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import logging
import os
import select
import ssl
import threading
import time
import urllib.request
import weakref
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from json import dumps as json_dumps
from pathlib import Path
from typing import TYPE_CHECKING, Generator, Iterable, Mapping, Sequence
from urllib.parse import urlsplit, urlunsplit

from .data import DataError
from .metrics import normalize_answer, token_f1

if TYPE_CHECKING:
    from .predictor import RemotePredictorConfig

logger = logging.getLogger(__name__)

UNKNOWN_ANSWER = "UNKNOWN"
CACHE_LOG = "answers.jsonl"  # a cache_dir's answers: one {"key", "text"} object per line
DEFAULT_PORTS = {"http": 80, "https": 443}


class TransportError(RuntimeError):
    """Endpoint unreachable or timed out after all retries."""


class ProtocolError(RuntimeError):
    """Endpoint responded, but not with a usable answer."""


@dataclass(frozen=True)
class Prompt:
    """A generation request: ranked context document texts plus the query.

    ``text`` is the fully rendered prompt (see compress.assemble_prompt);
    clients send it verbatim, so caching and mock noise key on it.
    """

    query_id: str
    query: str
    context_docs: tuple[str, ...]
    template_id: str
    text: str


class GeneratorClient:
    """Answers prompts through a backend, with the counters, a disk cache and prefetching.

    A backend has ``fetch(prompt) -> str`` and ``fingerprint()``, and
    ``cache_key(prompt)`` (the key of a cached answer) for a ``cache_dir`` or a
    width above 1. ``calls`` counts every lookup, cache hits included. The cache
    is one append-only log per ``cache_dir`` (``CACHE_LOG``), read into a dict
    when the client is built; each answer fetched is added to the dict and
    appended to the log as one line, so a client built later sees it.
    ``prefetch`` starts the fetches of prompts that ``generate`` will be asked
    for next on a pool of threads; at width 1 it does nothing. Only the fetch
    and its retries run there. ``generate`` counts, reads and writes the cache,
    and takes a pending answer or fetches one inline, all on the caller's
    thread, so the requests, retries and counters of a run are those of a
    serial run. The pool's fetches and an inline one share ``max_in_flight``
    slots, so no more requests than that are under way at once. ``take_turns``
    prefetches, and calls ``cancel_prefetch`` once done, after an error too.
    """

    def __init__(self, backend, cache_dir: str | None = None, max_in_flight: int = 1):
        self.backend = backend
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.max_in_flight = max_in_flight
        self.calls = 0
        self.cache_hits = 0
        self._counter_lock = threading.Lock()
        self._pending: dict[str, Future[str]] = {}  # cache key -> its prefetched answer
        self._failed = 0  # prefetches of _pending that failed and generate has not raised
        self._raised = 0  # failures generate has raised; a prefetch queued before one is dropped
        self._slots = threading.Semaphore(max_in_flight)
        self._pool: ThreadPoolExecutor | None = None
        self._answers: dict[str, str] = {}  # cache key -> answer: the log's and this client's
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            log = self.cache_dir / CACHE_LOG
            self._log = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            weakref.finalize(self, os.close, self._log)  # closed when the client is collected
            self._answers, torn = _read_log(log)
            if torn:  # end the line an append left cut short, so the next one is whole
                os.write(self._log, b"\n")

    @property
    def session(self):
        """The backend's HTTP session; an AttributeError for a backend without one."""
        return self.backend.session

    @session.setter
    def session(self, session) -> None:
        self.backend.session = session

    def fingerprint(self) -> str:
        return self.backend.fingerprint()

    def prefetch(self, prompts: Iterable[Prompt]) -> None:
        """Start fetching each prompt that has no cache entry and is not already pending;
        at width 1, nothing."""
        if self.max_in_flight == 1:
            return
        for prompt in prompts:
            key = self.backend.cache_key(prompt)
            if key in self._pending or key in self._answers:
                continue
            if self._pool is None:
                self._pool = ThreadPoolExecutor(self.max_in_flight, "ragtrim-post")
            self._pending[key] = self._pool.submit(
                self._prefetched, self._pending, self._raised, prompt)

    def _prefetched(self, pending: dict, raised: int, prompt: Prompt) -> str | None:
        """The fetch of a prefetch; or None, with no fetch, once cancel_prefetch has
        dropped ``pending``, while a failed prefetch's error waits for ``generate``, or
        once ``generate`` has raised a failure since this prefetch was queued (it had
        ``raised`` failures then). So when an error reaches the caller, only the
        fetches already under way on the other threads (at most ``max_in_flight - 1``)
        are left, and the prompts queued before it are fetched inline in their turn."""
        with self._counter_lock:
            if pending is not self._pending or self._failed or raised != self._raised:
                return None
        try:
            with self._slots:
                return self.backend.fetch(prompt)
        except Exception:
            with self._counter_lock:
                if pending is self._pending:
                    self._failed += 1
            raise

    def cancel_prefetch(self) -> None:
        """Wait for the fetches under way; no prefetch starts once this is called. With a
        cache, the answer of each prefetch that finished but was never taken by
        ``generate`` is appended to it: it was paid for."""
        with self._counter_lock:
            pending, self._pending, self._failed = self._pending, {}, 0
        wait(pending.values())
        if self.cache_dir is not None:
            for key, future in pending.items():
                text = None if future.exception() else future.result()
                if text is not None:
                    self._keep(key, text)

    def generate(self, prompt: Prompt) -> str:
        with self._counter_lock:
            self.calls += 1
        if self.cache_dir is None and not self._pending:  # nothing to read: no key needed
            return self.backend.fetch(prompt)
        key = self.backend.cache_key(prompt)
        cached = self._answers.get(key)
        if cached is not None:
            with self._counter_lock:
                self.cache_hits += 1
            return cached

        future = self._pending.pop(key, None)
        try:
            text = None if future is None else future.result()
            if text is None:  # not prefetched, or dropped or held by a failure
                with self._slots:
                    text = self.backend.fetch(prompt)
        except Exception:
            with self._counter_lock:
                self._raised += 1
                if future is not None and future.exception() is not None:
                    self._failed -= 1
            raise
        if self.cache_dir is not None:
            self._keep(key, text)
        return text

    def _keep(self, key: str, text: str) -> None:
        """Cache ``text``: in the dict, and as one line appended to the log."""
        line = json_dumps({"key": key, "text": text}).encode("utf-8") + b"\n"
        with self._counter_lock:
            self._answers[key] = text
            view = memoryview(line)
            while view:  # a short write leaves the rest to write
                view = view[os.write(self._log, view):]


# Searches that take turns per POST slot of a client at max_in_flight > 1. Each holds
# one prefetched prompt, so while one prompt sleeps a retry's backoff (0.25 s) and
# generate waits for it, the other slots work through the later searches' prompts.
# Traced http-flaky-400 annotation on 2 vCPUs took 3.1-3.4 s at 16 per slot,
# 2.4-3.0 s at 32 and 2.2-2.7 s at 64 (three rounds each).
SEARCHES_PER_SLOT = 64

# A search yields one prompt at a time and is sent (output, cache hits of its generate).
Search = Generator[Prompt, tuple[str, int], object]


def take_turns(client: GeneratorClient, searches: Iterable[Search]) -> None:
    """Generate the prompts of ``searches``, which take turns in a fixed order.

    Up to ``SEARCHES_PER_SLOT * max_in_flight`` searches (one at width 1, the
    mock's) are alive, drawn in order. Each prompt a search yields is prefetched
    and queued at the back of the line; the prompt at the head is generated, on
    this thread, and its search is sent the output with the cache hits of that
    one ``generate`` call. So the ``generate`` calls come in the same order at
    every width; only the pool's progress depends on timing. A TransportError or
    ProtocolError of ``generate`` is thrown into its search, which may catch it;
    a search closed while it waits in line loses its turn.
    """
    window = SEARCHES_PER_SLOT * client.max_in_flight if client.max_in_flight > 1 else 1
    searches = iter(searches)
    line: deque[tuple[Search, Prompt]] = deque()

    def advance(search: Search, resume, value) -> None:
        """Resume ``search`` with ``value``; queue and prefetch the prompt it yields next."""
        try:
            prompt = resume(value)
        except StopIteration:
            return
        client.prefetch([prompt])
        line.append((search, prompt))

    try:
        while True:
            while len(line) < window and (search := next(searches, None)) is not None:
                advance(search, search.send, None)
            if not line:
                return
            search, prompt = line.popleft()
            if search.gi_frame is None:  # closed while it waited
                continue
            hits = client.cache_hits
            try:
                output = client.generate(prompt)
            except (TransportError, ProtocolError) as exc:
                advance(search, search.throw, exc)
                continue
            advance(search, search.send, (output, client.cache_hits - hits))
    finally:
        client.cancel_prefetch()


@dataclass(frozen=True)
class JudgeMode:
    """How generator output is judged against gold answers.

    ``em`` is normalized exact match; ``f1`` accepts any output whose best
    token-F1 against a gold reaches the threshold (for free-form answers).
    """

    kind: str = "em"
    threshold: float = 0.6

    def __post_init__(self) -> None:
        if self.kind not in ("em", "f1"):
            raise ValueError(f"unknown judge mode {self.kind!r}")
        if self.kind == "f1" and not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"f1 threshold must be in (0, 1], got {self.threshold}")

    @classmethod
    def parse(cls, spec: str) -> "JudgeMode":
        """Parse ``"em"``, ``"f1"``, or ``"f1:0.6"``."""
        if spec == "em":
            return cls(kind="em")
        if spec == "f1":
            return cls(kind="f1")
        if spec.startswith("f1:"):
            return cls(kind="f1", threshold=float(spec.split(":", 1)[1]))
        raise ValueError(f"unknown judge mode spec {spec!r}")

    def __str__(self) -> str:
        return self.kind if self.kind == "em" else f"f1:{self.threshold}"


def judge_correct(output: str, golds: Sequence[str], mode: JudgeMode = JudgeMode()) -> bool:
    """Decide whether a generated answer counts as correct. In ``em`` mode the golds
    are normalized once per example (see _normalized_golds), not once per probe."""
    if not golds:
        raise ValueError("judge_correct requires at least one gold answer")
    if mode.kind == "em":
        return normalize_answer(output) in _normalized_golds(tuple(golds))
    return token_f1(output, golds) >= mode.threshold


# ---------------------------------------------------------------------------
# Mock oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MockOracleConfig:
    """Behavior knobs for the deterministic mock generator.

    confusion_threshold: if set, generation fails whenever the number of
        context documents containing no gold answer reaches it, so extra
        context can hurt (needed to reproduce rise-then-fall sweeps).
    noise_rate: probability of flipping a correct answer to a wrong token,
        derived per-prompt from the seed, hence order-independent.
    """

    confusion_threshold: int | None = None
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError(f"noise_rate must be in [0, 1), got {self.noise_rate}")


def _stable_unit(seed: int, key: str) -> float:
    """Uniform [0, 1) value derived from (seed, key); stable across runs and platforms."""
    digest = hashlib.sha256(f"{seed}|{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@functools.lru_cache(maxsize=256)
def _doc_has_evidence(doc_text: str, norm_golds: tuple[str, ...]) -> bool:
    # Bounded memo: the prompts of one example repeat its documents, and
    # examples are evaluated one after another, so recent documents recur.
    norm_doc = normalize_answer(doc_text)
    return any(g and g in norm_doc for g in norm_golds)


@functools.lru_cache(maxsize=256)
def _normalized_golds(golds: tuple[str, ...]) -> tuple[str, ...]:
    # Bounded memo, as above: an example's prompts are generated one after another,
    # so its golds are normalized once, not on every call.
    return tuple(normalize_answer(g) for g in golds)


def mock_generate(
    config: MockOracleConfig,
    prompt: Prompt,
    golds: Sequence[str],
    closed_book_known: bool = False,
) -> str:
    """Deterministic stand-in for a real generator.

    Answers with the first gold when some context document contains a gold
    answer (normalized substring), or when the context is empty and the
    example is flagged closed-book-known. The confusion threshold and noise
    flip are applied after that base decision.
    """
    if not golds:
        raise ValueError("mock_generate requires at least one gold answer")
    norm_golds = _normalized_golds(tuple(golds))

    if prompt.context_docs:
        evidence = [_doc_has_evidence(doc, norm_golds) for doc in prompt.context_docs]
        answered = any(evidence)
        if answered and config.confusion_threshold is not None:
            distractors = sum(1 for has in evidence if not has)
            if distractors >= config.confusion_threshold:
                answered = False
    else:
        answered = closed_book_known

    if answered and config.noise_rate > 0.0:
        key = f"{prompt.query_id}|{prompt.text}"
        if _stable_unit(config.seed, key) < config.noise_rate:
            digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:6]
            return f"noise-{digest}"

    return golds[0] if answered else UNKNOWN_ANSWER


class MockOracleBackend:
    """Generator backend over mock_generate, bound to a corpus's gold answers.

    ``closed_book_ids`` lists the examples the simulated model can answer
    with no context at all (label-0 candidates).
    """

    def __init__(
        self,
        config: MockOracleConfig,
        golds_by_id: Mapping[str, Sequence[str]],
        closed_book_ids: Sequence[str] = (),
    ):
        self.config = config
        self.golds_by_id = {k: tuple(v) for k, v in golds_by_id.items()}
        self.closed_book_ids = frozenset(closed_book_ids)

    def fetch(self, prompt: Prompt) -> str:
        golds = self.golds_by_id.get(prompt.query_id)
        if golds is None:
            raise DataError(f"mock oracle has no gold answers for query {prompt.query_id!r}")
        return mock_generate(
            self.config,
            prompt,
            golds,
            closed_book_known=prompt.query_id in self.closed_book_ids,
        )

    def fingerprint(self) -> str:
        corpus = hashlib.sha256()
        for qid in sorted(self.golds_by_id):
            closed = qid in self.closed_book_ids
            corpus.update(f"{qid}|{self.golds_by_id[qid]}|{closed}\n".encode("utf-8"))
        # The matching rule is part of the fingerprint, so it names it.
        cfg = (
            f"normalized-substring|{self.config.confusion_threshold}"
            f"|{self.config.noise_rate}|{self.config.seed}"
        )
        corpus.update(cfg.encode("utf-8"))
        return f"mock:{corpus.hexdigest()[:12]}"


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HttpGeneratorConfig:
    """Connection settings for a plain JSON-over-POST generation endpoint.

    Request shape: {"model", "prompt", "temperature", "max_tokens"} -> {"text"}.
    Responses are cached in cache_dir's log (see GeneratorClient), keyed by
    hash(endpoint, request payload).
    ``max_in_flight`` bounds the POSTs that prefetching keeps in flight; it
    changes no answer, so it is in neither the cache key nor the fingerprint.
    """

    endpoint_url: str
    model_name: str = "default"
    temperature: float = 0.0
    max_tokens: int = 256
    timeout_ms: int = 30000
    max_retries: int = 3
    api_key_env_var: str | None = None
    cache_dir: str | None = None
    backoff_base_s: float = 0.25
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        check_endpoint_settings(self)
        if self.max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {self.max_in_flight}")


def check_endpoint_settings(config: HttpGeneratorConfig | RemotePredictorConfig) -> None:
    """Checks on the settings post_json reads, shared by both endpoint configs: ranges,
    an http(s) URL, and a proxy for it that HttpSession can use."""
    for name, least in (("max_retries", 0), ("timeout_ms", 1), ("backoff_base_s", 0)):
        if getattr(config, name) < least:
            raise ValueError(f"{name} must be >= {least}, got {getattr(config, name)}")
    url = urlsplit(config.endpoint_url)
    if url.scheme not in DEFAULT_PORTS or not url.hostname:
        raise ValueError(f"endpoint_url must be an http:// or https:// URL, got {url.geturl()!r}")
    proxy_for(url.scheme, url.hostname, urllib.request.getproxies())


def proxy_for(scheme: str, host: str, proxies: Mapping[str, str]) -> tuple[str, int] | None:
    """(host, port) of the proxy that ``proxies`` (urllib.request.getproxies) names for ``host``.

    None means connect directly: no ``scheme`` or ``all`` proxy is set, or ``host``
    matches no_proxy. Only a plain ``http://host[:port]`` proxy is supported; any
    other (credentials, socks, https) is a ValueError, so none is ignored silently.
    """
    proxy = proxies.get(scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(host):
        return None
    parts = urlsplit(proxy)
    if (parts.scheme != "http" or not parts.hostname or parts.username is not None
            or parts.path not in ("", "/") or parts.query):
        raise ValueError(f"unsupported proxy {proxy!r} for {scheme}://{host}: "
                         "only http://host:port proxies are supported")
    return parts.hostname, parts.port or DEFAULT_PORTS["http"]


@dataclass(frozen=True)
class HttpResponse:
    """What HttpSession.post returns: the status code and the raw body."""

    status_code: int
    content: bytes

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")

    def json(self):
        return json.loads(self.content)


class HttpSession:
    """Keep-alive HTTP/1.1 connections for JSON POSTs, pooled per (scheme, host, port).

    Each POST in flight holds its own connection; the caller bounds how many
    there are (GeneratorClient: ``max_in_flight``). The proxy settings are
    read once, here, and each host's route once (see proxy_for): a plain HTTP
    proxy gets an absolute-form target for ``http`` and a CONNECT tunnel for
    ``https``. TLS uses ssl.create_default_context(). ``post`` sends its request
    once; a failure raises OSError or http.client.HTTPException, and the
    caller decides whether to send it again.
    """

    def __init__(self):
        self._proxies = urllib.request.getproxies()
        self._routes: dict[tuple, tuple[str, int] | None] = {}
        self._idle: dict[tuple, list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()
        self._tls: ssl.SSLContext | None = None

    def post(self, url: str, json, headers: Mapping[str, str] | None = None,
             timeout: float | None = None) -> HttpResponse:
        parts = urlsplit(url)
        key = (parts.scheme, parts.hostname, parts.port or DEFAULT_PORTS[parts.scheme])
        body = json_dumps(json).encode("utf-8")
        conn, proxy = self._checkout(key)
        absolute = proxy is not None and parts.scheme == "http"
        target = url if absolute else urlunsplit(("", "", parts.path or "/", parts.query, ""))
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        try:
            conn.request("POST", target, body,
                         {"Content-Type": "application/json", **(headers or {})})
            response = conn.getresponse()
            content = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.setdefault(key, []).append(conn)
        return HttpResponse(response.status, content)

    def close(self) -> None:
        """Close the idle connections; a later ``post`` opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()

    def _checkout(self, key: tuple) -> tuple[http.client.HTTPConnection, tuple[str, int] | None]:
        """An idle connection to ``key`` that the server has not closed, else a new one."""
        with self._lock:
            if key not in self._routes:
                self._routes[key] = proxy_for(key[0], key[1], self._proxies)
            idle = self._idle.get(key, [])
            while idle:
                conn = idle.pop()
                # An idle socket is readable only once the server closed it (or broke protocol).
                if conn.sock is not None and not select.select([conn.sock], [], [], 0)[0]:
                    return conn, self._routes[key]
                conn.close()
            proxy = self._routes[key]
            if key[0] == "https" and self._tls is None:
                self._tls = ssl.create_default_context()
        scheme, host, port = key
        if scheme == "http":
            return http.client.HTTPConnection(*(proxy or (host, port))), proxy
        conn = http.client.HTTPSConnection(*(proxy or (host, port)), context=self._tls)
        if proxy is not None:
            conn.set_tunnel(host, port)
        return conn, proxy


def _request_payload(config: HttpGeneratorConfig, prompt: Prompt) -> dict:
    return {
        "model": config.model_name,
        "prompt": prompt.text,
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
    }


def post_json(
    session: HttpSession,
    config: HttpGeneratorConfig | RemotePredictorConfig,
    payload: dict,
    headers: Mapping[str, str] | None = None,
) -> dict:
    """POST ``payload`` as JSON and return the JSON object the endpoint answers.

    The one failure policy of both HTTP clients. Socket errors (timeouts,
    refused, reset and dropped connections: OSError), broken HTTP replies
    (http.client.HTTPException) and 5xx are retried ``max_retries`` times with
    exponential backoff, then raise TransportError; a 4xx, or a 2xx body that
    is not a JSON object, raises ProtocolError at once.
    """
    attempts = config.max_retries + 1
    error: Exception | None = None
    for attempt in range(attempts):
        if attempt > 0:
            time.sleep(config.backoff_base_s * 2 ** (attempt - 1))
        try:
            resp = session.post(config.endpoint_url, json=payload, headers=headers,
                                timeout=config.timeout_ms / 1000.0)
        except (OSError, http.client.HTTPException) as exc:
            error = exc
        else:
            if not 500 <= resp.status_code < 600:
                break  # an answer to judge below; only transport errors and 5xx are retried
            error = ProtocolError(f"status {resp.status_code}: {resp.text[:200]}")
        logger.warning("attempt %d/%d to %s failed: %s", attempt + 1, attempts,
                       config.endpoint_url, error)
    else:
        raise TransportError(
            f"endpoint {config.endpoint_url} failed after {attempts} attempts: {error}"
        )
    if not 200 <= resp.status_code < 300:
        reason = "unauthorized" if resp.status_code == 401 else "request rejected"
        raise ProtocolError(f"{reason}: status {resp.status_code}: {resp.text[:200]}")
    try:
        body = resp.json()
    except ValueError as exc:
        raise ProtocolError(f"non-JSON response: {resp.text[:200]}") from exc
    if not isinstance(body, dict):
        raise ProtocolError(f"response is not a JSON object: {str(body)[:200]}")
    return body


class HttpGeneratorBackend:
    """Generator backend speaking plain JSON over HTTP POST, with retries (see post_json)."""

    def __init__(self, config: HttpGeneratorConfig, session: HttpSession | None = None):
        self.config = config
        self.session = session or HttpSession()

    def cache_key(self, prompt: Prompt) -> str:
        """A hash of the endpoint and every payload field of ``prompt``'s request."""
        request = json.dumps([self.config.endpoint_url, _request_payload(self.config, prompt)],
                             sort_keys=True)
        return hashlib.sha256(request.encode("utf-8")).hexdigest()

    def fetch(self, prompt: Prompt) -> str:
        headers = {}
        if self.config.api_key_env_var:
            key = os.environ.get(self.config.api_key_env_var)
            if key:
                headers["Authorization"] = f"Bearer {key}"
        body = post_json(self.session, self.config, _request_payload(self.config, prompt), headers)
        if "text" not in body:
            raise ProtocolError(f"response missing 'text' field: {str(body)[:200]}")
        return str(body["text"])

    def fingerprint(self) -> str:
        c = self.config
        return (
            f"http:{c.model_name}@{c.endpoint_url}"
            f"|temperature={c.temperature}|max_tokens={c.max_tokens}"
        )


def _read_log(path: Path) -> tuple[dict[str, str], bool]:
    """The answers of the cache log at ``path`` by key, and whether its last line is torn
    (has no newline). A line that does not parse, or has no ``key`` or a ``text`` that
    is not a string, is logged and skipped, so its prompt is a miss; of two lines with
    one key, the later wins."""
    data = path.read_bytes()
    answers = {}
    for number, line in enumerate(data.split(b"\n"), 1):
        if not line:
            continue
        try:
            entry = json.loads(line)
            key, text = entry["key"], entry["text"]
            if not isinstance(key, str) or not isinstance(text, str):
                raise TypeError("key and text must be strings")
        except (ValueError, KeyError, TypeError) as exc:
            logger.warning("unreadable cache line %s:%d (%s); refetching", path, number, exc)
            continue
        answers[key] = text
    return answers, bool(data) and not data.endswith(b"\n")
