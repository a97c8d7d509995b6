"""Generator abstraction: mock oracle for desk-scale runs, HTTP client for real endpoints.

A generator client turns a prompt into an answer string and reports a stable
fingerprint identifying the system that produced it. The mock oracle answers
from normalized-substring evidence in the context documents, with optional
confusion (too many irrelevant documents break generation) and seeded noise,
so corpus-scale behavior is fully deterministic and replayable.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, ContextManager, Mapping, Protocol, Sequence

import requests

from .metrics import exact_match, normalize_answer, token_f1

if TYPE_CHECKING:
    from .predictor import RemotePredictorConfig

logger = logging.getLogger(__name__)

UNKNOWN_ANSWER = "UNKNOWN"
# POSTs one HttpGeneratorClient has in flight at once (annotate --workers runs threads).
MAX_IN_FLIGHT = 4


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


class GeneratorClient(Protocol):
    def generate(self, prompt: Prompt) -> str: ...

    def fingerprint(self) -> str: ...


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
    """Decide whether a generated answer counts as correct."""
    if not golds:
        raise ValueError("judge_correct requires at least one gold answer")
    if mode.kind == "em":
        return bool(exact_match(output, golds))
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
    norm_golds = tuple(normalize_answer(g) for g in golds)

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


class MockOracleClient:
    """GeneratorClient over mock_generate, bound to a corpus's gold answers.

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
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, prompt: Prompt) -> str:
        golds = self.golds_by_id.get(prompt.query_id)
        if golds is None:
            raise KeyError(f"mock oracle has no gold answers for query {prompt.query_id!r}")
        with self._lock:
            self.calls += 1
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
    Responses are cached under cache_dir keyed by hash(endpoint, request payload).
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

    def __post_init__(self) -> None:
        check_endpoint_settings(self)


def check_endpoint_settings(config: HttpGeneratorConfig | RemotePredictorConfig) -> None:
    """Range checks on the settings post_json reads, shared by both endpoint configs."""
    for name, least in (("max_retries", 0), ("timeout_ms", 1), ("backoff_base_s", 0)):
        if getattr(config, name) < least:
            raise ValueError(f"{name} must be >= {least}, got {getattr(config, name)}")


def _request_payload(config: HttpGeneratorConfig, prompt: Prompt) -> dict:
    return {
        "model": config.model_name,
        "prompt": prompt.text,
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
    }


def post_json(
    session: requests.Session,
    config: HttpGeneratorConfig | RemotePredictorConfig,
    payload: dict,
    headers: Mapping[str, str] | None = None,
    gate: ContextManager = contextlib.nullcontext(),
) -> dict:
    """POST ``payload`` as JSON and return the JSON object the endpoint answers.

    The one failure policy of both HTTP clients. Timeouts, dropped connections
    and 5xx are retried ``max_retries`` times with exponential backoff, then
    raise TransportError; a 4xx, or a 2xx body that is not a JSON object,
    raises ProtocolError at once. ``gate`` is held around each POST only.
    """
    attempts = config.max_retries + 1
    error: Exception | None = None
    for attempt in range(attempts):
        if attempt > 0:
            time.sleep(config.backoff_base_s * 2 ** (attempt - 1))
        try:
            with gate:
                resp = session.post(config.endpoint_url, json=payload, headers=headers,
                                    timeout=config.timeout_ms / 1000.0)
        except (requests.Timeout, requests.ConnectionError) as exc:
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


class HttpGeneratorClient:
    """GeneratorClient speaking plain JSON over HTTP POST, with retries and a disk cache."""

    def __init__(self, config: HttpGeneratorConfig, session: requests.Session | None = None):
        self.config = config
        self.session = session or requests.Session()
        self.calls = 0
        self.cache_hits = 0
        self._in_flight = threading.Semaphore(MAX_IN_FLIGHT)
        self._counter_lock = threading.Lock()
        if config.cache_dir:
            Path(config.cache_dir).mkdir(parents=True, exist_ok=True)

    def _cache_path(self, payload: dict) -> Path | None:
        """Cache entry for a request: keyed on the endpoint and every payload field."""
        if not self.config.cache_dir:
            return None
        request = json.dumps([self.config.endpoint_url, payload], sort_keys=True)
        key = hashlib.sha256(request.encode("utf-8")).hexdigest()
        return Path(self.config.cache_dir) / f"{key}.json"

    def generate(self, prompt: Prompt) -> str:
        with self._counter_lock:
            self.calls += 1
        payload = _request_payload(self.config, prompt)
        cache_path = self._cache_path(payload)
        cached = _read_cache_entry(cache_path) if cache_path is not None else None
        if cached is not None:
            with self._counter_lock:
                self.cache_hits += 1
            return cached

        text = self._fetch(payload)
        if cache_path is not None:
            _write_cache_entry(cache_path, text)
        return text

    def _fetch(self, payload: dict) -> str:
        headers = {"Content-Type": "application/json"}
        if self.config.api_key_env_var:
            key = os.environ.get(self.config.api_key_env_var)
            if key:
                headers["Authorization"] = f"Bearer {key}"
        body = post_json(self.session, self.config, payload, headers, gate=self._in_flight)
        if "text" not in body:
            raise ProtocolError(f"response missing 'text' field: {str(body)[:200]}")
        return str(body["text"])

    def fingerprint(self) -> str:
        c = self.config
        return (
            f"http:{c.model_name}@{c.endpoint_url}"
            f"|temperature={c.temperature}|max_tokens={c.max_tokens}"
        )


def _read_cache_entry(path: Path) -> str | None:
    """The cached text, or None when the entry is missing or unreadable (a miss)."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))["text"]
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError) as exc:
        logger.warning("unreadable cache entry %s (%s); refetching", path, exc)
        return None


def _write_cache_entry(path: Path, text: str) -> None:
    """Write through a temp file unique to this writer, then rename it into place."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"text": text}, fh, ensure_ascii=False)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
