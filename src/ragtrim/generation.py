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
import heapq
import http.client
import json
import logging
import math
import os
import select
import socket
import ssl
import threading
import time
import urllib.request
import weakref
from collections import Counter, deque
from dataclasses import dataclass
from json import dumps as json_dumps
from pathlib import Path
from typing import BinaryIO, Callable, Generator, Iterable, Mapping, Sequence
from urllib.parse import urlsplit, urlunsplit

from .data import ConfigError, DataError
from .metrics import _normalized_golds, normalize_answer, token_f1

logger = logging.getLogger(__name__)

UNKNOWN_ANSWER = "UNKNOWN"
CACHE_LOG = "answers.jsonl"  # a cache_dir's answers: one {"key", "text"} object per line
DEFAULT_PORTS = {"http": 80, "https": 443}
MAX_LINE, MAX_HEADERS = 65536, 100  # http.client's caps: bytes in a line, headers in a reply
MAX_BODY = 16 * 2**20  # bytes in a reply body; a {"text"} answer needs far fewer


class TransportError(RuntimeError):
    """Endpoint unreachable or timed out after all retries."""


class ProtocolError(RuntimeError):
    """Endpoint responded, but not with a usable answer."""


@dataclass(frozen=True)
class Prompt:
    """A generation request: ranked context document texts plus the query.

    ``text`` is the fully rendered prompt (see compress.assemble_prompt);
    clients send it verbatim, so caching and mock noise key on it.
    ``template_id`` names the layout rendered; nothing reads it.
    """

    query_id: str
    query: str
    context_docs: tuple[str, ...]
    template_id: str
    text: str


class _Prefetch:
    """A queued prompt's outcome, set once under the client's lock by its ``_land``:
    ``done``, then its answer (None if no POST was made) or its error; no lock of its own."""

    __slots__ = ("done", "text", "error")

    def __init__(self):
        self.done, self.text, self.error = False, None, None


class GeneratorClient:
    """Answers prompts through a backend, with the counters, a disk cache and prefetching.

    A backend has ``fingerprint()`` and either ``fetch(prompt) -> str``, called by
    ``generate`` on the caller's thread, or ``attempts(prompt)`` (see post_attempts),
    which a width above 1 needs; for a ``cache_dir`` or a width above 1, also
    ``cache_key(prompt)``. ``calls`` counts every lookup, cache hits included, and
    ``retries`` every retry. The cache is one append-only log per ``cache_dir``
    (``CACHE_LOG``), read into a dict when the client is built; each answer fetched goes
    into both. ``_work`` makes every attempt of an ``attempts`` backend; ``prefetch``
    queues jobs for it on up to ``max_in_flight`` threads, at width 1 none. ``generate``
    counts, reads and writes the cache, and takes a pending answer, or queues its prompt
    first and waits for it, running ``_work`` itself if no worker runs (so always at
    width 1). ``take_turns`` prefetches, has generate run searches ahead while it waits
    (``meanwhile``), and calls ``cancel_prefetch`` once done, after an error too.
    """

    def __init__(self, backend, cache_dir: str | None = None, max_in_flight: int = 1):
        self.backend = backend
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.max_in_flight = max_in_flight
        self.calls = 0
        self.cache_hits = 0
        self.retries = 0
        lock = threading.RLock()
        self._cond = threading.Condition(lock)  # guards the counters, the jobs and the log
        self._landing = threading.Condition(lock)  # notified (all) as a job lands
        self.landed: deque[_Prefetch] = deque()  # finished prefetches, for take_turns
        self._meanwhile: Callable[[], bool] | None = None
        self._pending: dict[str, _Prefetch] = {}  # cache key -> its prefetched answer
        self._failed = 0  # jobs that failed and whose failure generate has not raised
        self._raised = 0  # failures generate has raised; a prefetch queued before one is dropped
        self._streak = 0  # attempts failed since the last answer came; at max_in_flight, hold
        self._queue: deque[tuple] = deque()  # first attempts: (entry, prompt, pending, raised)
        self._timers: list[tuple] = []  # a heap of retries: (due, id, entry, pending, attempts)
        self._workers = 0
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

    def prefetch(self, prompts: Sequence[Prompt]) -> list[_Prefetch | None]:
        """Queue the first attempt of each prompt that has no cache entry and is not already
        pending; at width 1, nothing. Returns, for each prompt, the ``_Prefetch`` queued for
        it, or None where none was: that prompt's ``generate`` will take the answer the
        ``_Prefetch`` gets, unless an earlier ``generate`` of the same key does."""
        owned: list[_Prefetch | None] = [None] * len(prompts)
        if self.max_in_flight == 1:
            return owned
        with self._cond:
            for i, prompt in enumerate(prompts):
                key = self.backend.cache_key(prompt)
                if key in self._pending or key in self._answers:
                    continue
                self._pending[key] = owned[i] = entry = _Prefetch()
                self._enqueue((entry, prompt, self._pending, self._raised))
        return owned

    def _enqueue(self, job: tuple, first: bool = False) -> None:
        """Queue ``job`` (first, if ``first``); start a worker if fewer than max_in_flight run."""
        with self._cond:
            (self._queue.appendleft if first else self._queue.append)(job)
            self._cond.notify()
            caller = first and not self._workers  # generate's, and no worker: run it here
            start = self._workers < self.max_in_flight
            self._workers += start
        if caller:
            try:
                self._work()
            except BaseException:  # interrupted: the job goes; the next generate runs the loop
                with self._cond:
                    self._workers -= 1
                    if job in self._queue:
                        self._queue.remove(job)
                    for timer in [timer for timer in self._timers if timer[2] is job[0]]:
                        self._timers.remove(timer)  # its retry, parked
                        timer[4].close()
                    heapq.heapify(self._timers)
                raise
        elif start:
            threading.Thread(target=self._work, name="ragtrim-post", daemon=True).start()

    def _work(self) -> None:
        """The one attempt loop, run by each worker and by generate when none runs: one
        attempt at a time, a due retry first, until no job is queued or parked. A
        prefetch lands with no POST once cancel_prefetch has dropped its ``pending``,
        while a failure waits for generate to raise it, once generate has raised one since
        it was queued, or while the last ``max_in_flight`` attempts all failed. Generate's
        own job (``pending`` None) is never held."""
        while True:
            with self._cond:
                while not self._queue and not self._due():
                    if not self._timers:
                        self._workers -= 1
                        return
                    self._cond.wait(self._timers[0][0] - time.monotonic())
                if self._due():
                    _, _, entry, pending, attempts = heapq.heappop(self._timers)
                else:
                    entry, prompt, pending, raised = self._queue.popleft()
                    if pending is not None and (
                            pending is not self._pending or self._failed
                            or raised != self._raised or self._streak >= self.max_in_flight):
                        self._land(entry, pending)
                        continue
                    attempts = self.backend.attempts(prompt)
            try:
                delay = next(attempts)
            except StopIteration as done:
                self._land(entry, pending, done.value)
            except Exception as exc:
                self._land(entry, pending, error=exc)
            else:
                with self._cond:  # id: a tie-break, as entries do not compare
                    self._streak += 1
                    self.retries += 1
                    heapq.heappush(self._timers, (time.monotonic() + delay, id(entry), entry,
                                                  pending, attempts))

    def _land(self, entry: _Prefetch, pending: dict | None, text: str | None = None,
              error: Exception | None = None) -> None:
        """Finish ``entry``, count its outcome for the hold rules, add a prefetch's to
        ``landed`` and wake every caller waiting."""
        with self._cond:
            entry.done, entry.text, entry.error = True, text, error
            if text is not None or error is not None:  # a POST was made
                self._streak = 0 if error is None else self._streak + 1
                self._failed += error is not None
            if pending is not None:
                self.landed.append(entry)
            self._landing.notify_all()

    def _due(self) -> bool:
        return bool(self._timers) and self._timers[0][0] <= time.monotonic()

    def _wait(self, entry: _Prefetch | None) -> None:
        with self._cond:
            while entry is not None and not entry.done:
                self._landing.wait()

    def cancel_prefetch(self) -> None:
        """Wait for the fetches under way, parked retries included; no first attempt queued
        before this call starts after it. With a cache, the answer of each prefetch that
        finished but was never taken by ``generate`` is appended to it: it was paid for."""
        pending, self._pending = self._pending, {}  # not under the lock the workers contend for
        for entry in pending.values():
            self._wait(entry)
        self._failed = 0  # every failure of ``pending`` is in
        self.landed.clear()
        if self.cache_dir is not None:
            for key, entry in pending.items():
                if entry.text is not None:
                    self._keep(key, entry.text)

    def meanwhile(self, step: Callable[[], bool] | None) -> None:
        """Have ``generate``, while its prompt's prefetch is under way, call ``step`` (None:
        no step). Each time ``step`` returns True, generate waits until a prefetch lands and
        calls it again; once it returns False, generate waits for its own answer alone."""
        self._meanwhile = step

    def generate(self, prompt: Prompt) -> str:
        with self._cond:
            self.calls += 1
        key = entry = None
        if self.cache_dir is not None or self._pending:  # else nothing to read: no key needed
            key = self.backend.cache_key(prompt)
            cached = self._answers.get(key)
            if cached is not None:
                with self._cond:
                    self.cache_hits += 1
                return cached
            entry = self._pending.get(key)
            if entry is not None and self._meanwhile is not None:
                while not entry.done and self._meanwhile():
                    with self._cond:
                        while not self.landed:
                            self._landing.wait()
            self._pending.pop(key, None)  # after the steps: a prefetch they make finds it pending
        try:
            # A backend without attempts (the mock) fetches inline: through _enqueue and
            # _work, width-1 calls took 8-9 us more each (medians of 6 alternating runs of
            # 63,000 calls over the 4,000-example seed-42 corpus, k = 0..5, on 2 vCPUs),
            # about 0.5 s of a mock-4000 study's 63,464 lookups.
            if not hasattr(self.backend, "attempts"):
                text = self.backend.fetch(prompt)
            else:
                self._wait(entry)
                if entry is None or entry.text is None and entry.error is None:
                    entry = _Prefetch()  # not prefetched, or dropped or held: queued first
                    self._enqueue((entry, prompt, None, None), first=True)
                    self._wait(entry)
                if entry.error is not None:
                    raise entry.error
                text = entry.text
        except Exception:
            with self._cond:
                self._raised += 1
                if entry is not None and entry.error is not None:
                    self._failed -= 1
            raise
        if self.cache_dir is not None:
            self._keep(key, text)
        return text

    def _keep(self, key: str, text: str) -> None:
        """Cache ``text``: in the dict, and as one line appended to the log."""
        line = json_dumps({"key": key, "text": text}).encode("utf-8") + b"\n"
        with self._cond:
            self._answers[key] = text
            view = memoryview(line)
            while view:  # a short write leaves the rest to write
                view = view[os.write(self._log, view):]


# The prompts take_turns queues in its line at max_in_flight > 1: one length at every
# width, so widths above 1 share one turn order and one cache-log order. While generate
# waits for a prompt whose retry waits out its backoff, the workers go on through the
# prompts queued behind it and through those of the searches run ahead of their turn,
# at most as many again. At width 8, 512 requests to a 2 ms endpoint take about 0.21 s,
# less than a first backoff (0.25 s); the prompts run ahead cover the rest. A line of
# 1,024 at width 8 added 1.4-1.7 MB of peak RSS in the 400-example study and was faster
# only against an endpoint that fails 1% of first attempts (by 9%).
PROMPTS_IN_LINE = 512

# A search yields a tuple of prompts and is sent their (output, cache hits of its generate).
Search = Generator[tuple[Prompt, ...], list[tuple[str, int]], object]


class _Yielded:
    """A tuple of prompts a search yielded to take_turns, and what became of it.

    ``entries`` holds each prompt's own prefetch, or None (see prefetch); ``unanswered``
    counts those not yet landed, None if one is missing or landed without an answer.
    ``waits``: in the line, none of its prompts taken yet. ``pairs``: the (output, hits)
    of its generate calls so far. A search resumed ahead of its turn was sent ``sent``,
    and ``after`` is what it did then: its next tuple, held; None, as it ended; or the
    exception it raised.
    """

    __slots__ = ("search", "prompts", "entries", "unanswered", "waits", "pairs", "sent",
                 "after")

    def __init__(self, search: Search, prompts: tuple[Prompt, ...], entries: list):
        self.search, self.prompts, self.entries = search, prompts, entries
        self.unanswered = len(entries) if entries and all(entries) else None
        self.waits = False
        self.pairs: list[tuple[str, int]] = []
        self.sent: list[tuple[str, int]] | None = None
        self.after: _Yielded | Exception | None = None


def take_turns(client: GeneratorClient, searches: Iterable[Search]) -> None:
    """Generate the prompts of ``searches``, which take turns in a fixed order.

    Searches are drawn in order while fewer than ``PROMPTS_IN_LINE`` prompts (one at
    width 1, the mock's) wait in the line. The prompts a search yields are prefetched
    and queued at the back; the head is generated, on this thread, and once the last
    of its tuple is, the search is sent each one's output and cache hits.
    So the turn order depends on what the searches yield, not on timing. A
    TransportError or ProtocolError of ``generate`` drops the rest of its tuple and is
    thrown into its search; a search closed while it waits loses its turns.

    Above width 1, searches run ahead of their turn while generate waits for the head's
    prefetch, each landing prefetch waking it (see ``GeneratorClient.meanwhile``), until
    ``PROMPTS_IN_LINE`` prompts are held ahead. The next search starts ahead while fewer
    than ``PROMPTS_IN_LINE`` searches are alive; the line draws its tuple in its turn. A
    search whose tuple waits in the line is resumed ahead once each prompt's own
    prefetch has landed with an answer and no other prompt in line has its text, so
    that its generate will return (answer, 0): it is sent those pairs, and what it
    yields is held until the tuple's last turn. Then the pairs of generate must equal
    them (a RuntimeError if not), and the held tuple joins the line; an exception the
    search raised ahead is raised then. A held tuple is not resumed ahead, as a prompt
    of its text yielded later could still take its turn, and its answer, first. So the
    generate calls come in the order they would without running ahead.
    """
    window = PROMPTS_IN_LINE if client.max_in_flight > 1 else 1
    searches = iter(searches)
    line: deque[tuple[_Yielded, int]] = deque()  # (tuple, index of the prompt in it)
    started: deque[_Yielded | Exception] = deque()  # first tuples of searches started ahead
    ready: deque[_Yielded] = deque()  # tuples waiting in line whose prefetches all answered
    owners: dict[_Prefetch, _Yielded] = {}  # prefetch not yet landed -> its tuple
    texts: Counter[str] = Counter()  # the text of each prompt in line
    live: set[Search] = set()  # searches started that have not ended
    ahead = 0  # the prompts of the tuples held

    def advance(search: Search, resume, value, early: bool = False):
        """Resume ``search`` with ``value``; the tuple it yields next, prefetched, or None
        once it ends. ``early``: ahead of its turn, so the tuple is held and an exception
        is returned, for its turn."""
        nonlocal ahead
        try:
            prompts = resume(value)
        except StopIteration:
            live.discard(search)
            return None
        except Exception as exc:
            if not early:
                raise
            live.discard(search)
            return exc
        held = _Yielded(search, prompts, client.prefetch(prompts))
        if held.unanswered:
            owners.update((entry, held) for entry in held.entries)
        ahead += len(prompts) if early else 0
        return held

    def queue(held: _Yielded) -> None:
        line.extend((held, i) for i in range(len(held.prompts)))
        held.waits = True
        if window > 1:
            texts.update(prompt.text for prompt in held.prompts)
            if held.unanswered == 0:
                ready.append(held)

    def take() -> tuple[_Yielded, int]:
        held, index = line.popleft()
        held.waits = False
        if window > 1:
            text = held.prompts[index].text
            texts[text] -= 1
            if not texts[text]:
                del texts[text]
        return held, index

    def land() -> None:
        """Count each prefetch landed against its tuple; a tuple in line whose
        prefetches have all answered is ready to run ahead."""
        while client.landed:
            entry = client.landed.popleft()
            held = owners.pop(entry, None)
            if held is not None and held.unanswered is not None:
                held.unanswered = held.unanswered - 1 if entry.text is not None else None
                if held.unanswered == 0 and held.waits:
                    ready.append(held)
        while ready and not ready[0].waits:
            ready.popleft()

    def draw() -> None:
        """Let searches join the line, those started ahead first, while it is short."""
        nonlocal ahead
        while len(line) < window:
            if started:
                first = started.popleft()
                if isinstance(first, Exception):
                    raise first
                ahead -= len(first.prompts)
                if first.search.gi_frame is None:  # closed while it was held
                    live.discard(first.search)
                    continue
            elif (search := next(searches, None)) is not None:
                live.add(search)
                first = advance(search, search.send, None)
            else:
                return
            if first is not None:
                queue(first)

    def step() -> bool:
        """Run searches ahead as far as the landed prefetches allow; whether a later
        landing could let more run ahead."""
        land()
        while ahead < window:
            if ready:
                held = ready.popleft()
                if (held.waits and held.sent is None and held.search.gi_frame is not None
                        and all(texts[prompt.text] == 1 for prompt in held.prompts)):
                    held.sent = [(entry.text, 0) for entry in held.entries]
                    held.after = advance(held.search, held.search.send, held.sent, True)
            elif len(live) < window and (search := next(searches, None)) is not None:
                live.add(search)
                if (first := advance(search, search.send, None, True)) is not None:
                    started.append(first)
            else:
                break
        return ahead < window and bool(owners)

    def turn_ends(held: _Yielded) -> None:
        """Send the search of ``held`` its pairs, or check that it was sent them ahead;
        queue what it yields next."""
        nonlocal ahead
        after = held.after
        if held.sent is None:
            after = advance(held.search, held.search.send, held.pairs)
        elif held.pairs != held.sent:
            raise RuntimeError("generate did not return the answers that a search was sent "
                               "ahead of its turn")
        elif isinstance(after, Exception):
            raise after
        elif after is not None:
            ahead -= len(after.prompts)
        if after is not None:
            queue(after)

    if window > 1:
        client.meanwhile(step)
    try:
        while True:
            draw()
            if not line:
                return
            if window > 1:
                land()
            held, index = take()
            search, prompt = held.search, held.prompts[index]
            left = len(held.prompts) - 1 - index
            if search.gi_frame is None and (held.sent is None
                                            or isinstance(held.after, _Yielded)):
                live.discard(search)  # closed while it waited
                if not left and held.sent is not None:
                    ahead -= len(held.after.prompts)
                continue
            hits = client.cache_hits
            try:
                output = client.generate(prompt)
            except (TransportError, ProtocolError) as exc:
                if held.sent is not None:
                    raise RuntimeError("generate failed for a prompt whose answer a search "
                                       "was sent ahead of its turn") from exc
                for _ in range(left):
                    take()
                if (after := advance(search, search.throw, exc)) is not None:
                    queue(after)
                continue
            held.pairs.append((output, client.cache_hits - hits))
            if not left:
                turn_ends(held)
    finally:
        client.meanwhile(None)
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
        if spec in ("em", "f1"):
            return cls(kind=spec)
        if spec.startswith("f1:"):
            return cls(kind="f1", threshold=float(spec.split(":", 1)[1]))
        raise ValueError(f"unknown judge mode spec {spec!r}")


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
    max_in_flight: int = 8

    def __post_init__(self) -> None:
        """Ranges, an http(s) URL, and the host, port and proxy that HttpSession would POST
        it through."""
        for name, least in (("temperature", 0), ("max_tokens", 1), ("timeout_ms", 1),
                            ("max_retries", 0), ("backoff_base_s", 0), ("max_in_flight", 1)):
            if not least <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        url = urlsplit(self.endpoint_url)
        if url.scheme not in DEFAULT_PORTS or not url.hostname:
            raise ValueError("endpoint_url must be an http:// or https:// URL, "
                             f"got {url.geturl()!r}")
        HttpSession()._route(self.endpoint_url)


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
    """What HttpSession.post returns: the status code, the raw body and the seconds of a
    Retry-After header, if it gave a whole number."""

    status_code: int
    content: bytes
    retry_after: int | None = None

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")

    def json(self):
        return json.loads(self.content)


class HttpSession:
    """Keep-alive HTTP/1.1 connections for JSON POSTs, pooled per (scheme, host, port).

    Each POST in flight holds its own connection, a TCP_NODELAY socket and one buffered
    reader. A request is one ``sendall``, its reply is parsed by _read_reply, and a failure
    raises OSError or http.client.HTTPException. Proxies are read once, here (see _route).
    """

    def __init__(self):
        self._proxies = urllib.request.getproxies()
        self._routes: dict[str, tuple] = {}  # url -> (pool key, proxy, head, host:port)
        self._idle: dict[tuple, list[tuple[socket.socket, BinaryIO]]] = {}
        self._lock = threading.Lock()
        self._tls: ssl.SSLContext | None = None

    def post(self, url: str, json, headers: Mapping[str, str] | None = None,
             timeout: float | None = None) -> HttpResponse:
        key, proxy, head, authority = self._routes.get(url) or self._route(url)
        if any(set(f"{k}{v}") & {"\r", "\n"} for k, v in (headers or {}).items()):
            raise ValueError("a header name or value holds a CR or LF")
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items()).encode("latin-1")
        body = json_dumps(json).encode("utf-8")
        sock, reader = conn = self._checkout(key, proxy, authority, timeout)
        try:
            sock.settimeout(timeout)
            sock.sendall(b"%s%sContent-Length: %d\r\n\r\n%s" % (head, extra, len(body), body))
            response, keep = _read_reply(reader)
        except BaseException:
            _close(conn)
            raise
        if keep:
            with self._lock:
                self._idle.setdefault(key, []).append(conn)
        else:
            _close(conn)
        return response

    def close(self) -> None:
        """Close the idle connections; a later ``post`` opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                _close(conn)

    def _route(self, url: str) -> tuple:
        parts = urlsplit(url)
        scheme, name = parts.scheme, parts.hostname
        try:
            if parts.port == 0:  # parts.port: a ValueError for a port not a number in 0-65535
                raise ValueError("port 0 names no server")
            port = parts.port or DEFAULT_PORTS[scheme]
            host = f"[{name}]" if ":" in name else name.encode("idna").decode()  # IPv6 or a name
        except ValueError as exc:  # a UnicodeError too
            raise ValueError(f"endpoint_url {url!r} has no usable host and port: {exc}")
        proxy = proxy_for(scheme, name, self._proxies)
        target = (url if proxy and scheme == "http"  # an http proxy takes the whole URL
                  else urlunsplit(("", "", parts.path or "/", parts.query, "")))
        head = (f"POST {target} HTTP/1.1\r\nHost: {host}"
                f"{'' if port == DEFAULT_PORTS[scheme] else f':{port}'}\r\n"
                "Content-Type: application/json\r\nAccept-Encoding: identity\r\n").encode("ascii")
        return self._routes.setdefault(url, ((scheme, name, port), proxy, head, f"{host}:{port}"))

    def _checkout(self, key: tuple, proxy: tuple[str, int] | None, authority: str,
                  timeout: float | None) -> tuple[socket.socket, BinaryIO]:
        """An idle connection to ``key`` whose socket is unreadable (open), else a new one."""
        with self._lock:
            idle = self._idle.get(key, [])
            while idle:
                conn = idle.pop()
                poller = select.poll()
                poller.register(conn[0], select.POLLIN)
                if not poller.poll(0):
                    return conn
                _close(conn)
            if key[0] == "https" and self._tls is None:
                self._tls = ssl.create_default_context()
        sock = socket.create_connection(proxy or key[1:], timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if key[0] == "https" and proxy is not None:
                sock.sendall(f"CONNECT {authority} HTTP/1.1\r\nHost: {authority}\r\n\r\n".encode())
                with sock.makefile("rb") as reader:
                    if (status := _read_head(reader)[1]) != 200:
                        raise OSError(f"tunnel to {authority} failed: status {status}")
            if key[0] == "https":
                sock = self._tls.wrap_socket(sock, server_hostname=key[1])
        except BaseException:
            sock.close()
            raise
        return sock, sock.makefile("rb")


def _close(conn: tuple[socket.socket, BinaryIO]) -> None:
    conn[1].close()
    conn[0].close()


def _line(reader: BinaryIO, what: str) -> bytes:
    if len(line := reader.readline(MAX_LINE + 1)) > MAX_LINE:
        raise http.client.LineTooLong(what)
    return line


def _exactly(reader: BinaryIO, n: int) -> bytes:
    if len(data := reader.read(n)) < n:
        raise http.client.IncompleteRead(data, n - len(data))
    return data


def _body_size(digits: bytes, base: int, so_far: int = 0) -> int:
    """The size that ``digits`` give in ``base``, if it and ``so_far`` fit in MAX_BODY."""
    digits = digits.lstrip(b"0")
    if len(digits) > 8 or (size := int(digits or b"0", base)) + so_far > MAX_BODY:
        raise http.client.HTTPException(f"a reply body over {MAX_BODY} bytes")
    return size


def _read_head(reader: BinaryIO) -> tuple[bytes, int, dict[bytes, bytes]]:
    """The version, status and header fields (names lower-cased) of the next reply not 1xx."""
    while True:
        if not (line := _line(reader, "status line")):
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        version, code = (line.split(None, 2) + [b"", b""])[:2]
        if not (version.startswith(b"HTTP/") and len(code) == 3 and code.isdigit()):
            raise http.client.BadStatusLine(repr(line))
        lines = []
        while (line := _line(reader, "header line")) not in (b"\r\n", b"\n", b""):
            if len(lines) == MAX_HEADERS:
                raise http.client.HTTPException(f"got more than {MAX_HEADERS} headers")
            lines.append(line.partition(b":"))
        fields = {name.strip().lower(): value.strip() for name, _, value in lines}
        if not code.startswith(b"1"):
            return version, int(code), fields


def _read_reply(reader: BinaryIO) -> tuple[HttpResponse, bool]:
    """The reply (its body chunked, of a valid Content-Length, or else read to the close),
    and whether the connection may be reused: HTTP/1.1 and no close. A body over MAX_BODY
    is an error before it is read."""
    version, status, fields = _read_head(reader)
    keep = version == b"HTTP/1.1" and b"close" not in fields.get(b"connection", b"").lower()
    if status in (204, 304):
        body = b""
    elif b"chunked" in fields.get(b"transfer-encoding", b"").lower():
        parts, total = [], 0
        while True:
            size = _line(reader, "chunk size").split(b";", 1)[0].strip()
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise http.client.IncompleteRead(b"".join(parts))
            if not (size := _body_size(size, 16, total)):
                break
            total += size
            parts.append(_exactly(reader, size + 2)[:size])  # the data, then its CRLF
        while _line(reader, "trailer line") not in (b"\r\n", b"\n", b""):
            pass
        body = b"".join(parts)
    elif not (length := fields.get(b"content-length", b"")).isdigit():
        body, keep = reader.read(MAX_BODY + 1), False  # a byte over the cap, if there is one
        _body_size(b"%d" % len(body), 10)
    else:
        body = _exactly(reader, _body_size(length, 10))
    # Retry-After in whole seconds, of at most 9 digits (a wait a timer can hold); an
    # HTTP-date or anything else is ignored.
    wait = fields.get(b"retry-after", b"")
    seconds = int(wait) if wait.isdigit() and len(wait) < 10 else None
    return HttpResponse(status, body, seconds), keep


def _request_payload(config: HttpGeneratorConfig, prompt: Prompt) -> dict:
    return {
        "model": config.model_name,
        "prompt": prompt.text,
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
    }


def post_attempts(
    session: HttpSession,
    config: HttpGeneratorConfig,
    payload: dict,
    headers: Mapping[str, str] | None = None,
) -> Generator[float, None, dict]:
    """POST ``payload`` as JSON, one attempt per ``next``; return the JSON object answered.

    The one failure policy of the HTTP client. Socket errors (timeouts,
    refused, reset and dropped connections: OSError), broken HTTP replies
    (http.client.HTTPException), 5xx and 429 (Too Many Requests) are retried
    ``max_retries`` times with exponential backoff, then raise TransportError;
    any other 4xx, or a 2xx body that is not a JSON object, raises ProtocolError
    at once. Before each retry the generator yields its backoff in seconds, which
    the caller waits out: no less than the Retry-After of a 5xx or 429 before it.
    """
    attempts = config.max_retries + 1
    error: Exception | None = None
    asked = 0  # the seconds the last failed reply's Retry-After asked for
    for attempt in range(attempts):
        if attempt > 0:
            yield max(config.backoff_base_s * 2 ** (attempt - 1), asked)
            asked = 0
        try:
            resp = session.post(config.endpoint_url, json=payload, headers=headers,
                                timeout=config.timeout_ms / 1000.0)
        except (OSError, http.client.HTTPException) as exc:
            error = exc
        else:
            if not (500 <= resp.status_code < 600 or resp.status_code == 429):
                break  # an answer to judge below; only transport errors, 5xx and 429 retry
            error = ProtocolError(f"status {resp.status_code}: {resp.text[:200]}")
            asked = resp.retry_after or 0
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
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ProtocolError(f"non-JSON response: {resp.text[:200]}") from exc
    if not isinstance(body, dict):
        raise ProtocolError(f"response is not a JSON object: {str(body)[:200]}")
    return body


class HttpGeneratorBackend:
    """Generator backend speaking plain JSON over HTTP POST, with retries (see post_attempts)."""

    def __init__(self, config: HttpGeneratorConfig, session: HttpSession | None = None):
        """A ConfigError if ``api_key_env_var`` names a variable that is unset or empty."""
        self.config = config
        self.session = session or HttpSession()
        self._headers = None
        if config.api_key_env_var:
            if not (key := os.environ.get(config.api_key_env_var)):
                raise ConfigError(f"generator.api_key_env_var names {config.api_key_env_var}, "
                                  "which is unset or empty")
            self._headers = {"Authorization": f"Bearer {key}"}

    def cache_key(self, prompt: Prompt) -> str:
        """A hash of the endpoint and every payload field of ``prompt``'s request."""
        request = json.dumps([self.config.endpoint_url, _request_payload(self.config, prompt)],
                             sort_keys=True)
        return hashlib.sha256(request.encode("utf-8")).hexdigest()

    def attempts(self, prompt: Prompt) -> Generator[float, None, str]:
        """The fetch of ``prompt``, one POST per ``next`` (see post_attempts)."""
        payload = _request_payload(self.config, prompt)
        body = yield from post_attempts(self.session, self.config, payload, self._headers)
        if not isinstance(body.get("text"), str):
            raise ProtocolError(f"response 'text' missing or not a string: {str(body)[:200]}")
        return body["text"]

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
