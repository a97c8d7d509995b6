"""Label each example with the smallest rank-prefix the generator needs to answer.

The search walks k upward (optionally probing the empty closed-book context
first) and stops at the first prefix the judge accepts, so easy queries cost
one generator call. Only rank prefixes are ever evaluated.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Generator

from .compress import assemble_prompt, select_top_k
from .data import AnnotatedTriplet, CompressionLabel, JoinedDataset, QAExample, RetrievalSet
from .generation import (
    GeneratorClient,
    JudgeMode,
    Prompt,
    ProtocolError,
    TransportError,
    judge_correct,
)

__all__ = [
    "AnnotationAborted",
    "AnnotationOptions",
    "AnnotationStats",
    "annotate_dataset",
    "find_optimal_k",
    "select_top_k",
]

logger = logging.getLogger(__name__)


class AnnotationAborted(RuntimeError):
    """Too many per-example failures; carries the partial results."""

    def __init__(self, message: str, triplets: list[AnnotatedTriplet], stats: "AnnotationStats"):
        super().__init__(message)
        self.triplets = triplets
        self.stats = stats


@dataclass(frozen=True)
class AnnotationOptions:
    judge_mode: JudgeMode = JudgeMode()
    include_k0: bool = True
    template_id: str = "qa_default"
    failure_limit: float = 0.10


@dataclass
class AnnotationStats:
    total_examples: int = 0
    annotated: int = 0
    failed: int = 0
    label_histogram: dict[str, int] = field(default_factory=dict)
    unanswerable_count: int = 0
    generator_calls: int = 0
    cache_hits: int = 0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.generator_calls + self.cache_hits
        return self.cache_hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "total_examples": self.total_examples,
            "annotated": self.annotated,
            "failed": self.failed,
            "label_histogram": dict(sorted(self.label_histogram.items())),
            "unanswerable_count": self.unanswerable_count,
            "generator_calls": self.generator_calls,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
        }


def find_optimal_k(
    example: QAExample,
    retrieval: RetrievalSet,
    judge_mode: JudgeMode = JudgeMode(),
    include_k0: bool = True,
    template_id: str = "qa_default",
) -> Generator[Prompt, str, CompressionLabel]:
    """Search for the smallest k whose rank-prefix yields a judged-correct answer.

    Yields one probe prompt at a time and takes the generator's output for it
    through ``send``. Probes k=0 (closed book) first when enabled, then
    k=1..N ascending with early exit. Returns (as ``StopIteration.value``) the
    first accepted k, or the unanswerable label when no prefix works.
    """
    ks = range(0 if include_k0 else 1, retrieval.n + 1)
    for k in ks:
        output = yield assemble_prompt(example, select_top_k(retrieval, k), template_id)
        if judge_correct(output, example.gold_answers, judge_mode):
            return CompressionLabel.keep(k)
    return CompressionLabel.unanswerable()


def _advance(search: Generator[Prompt, str, CompressionLabel], output: str | None):
    """Send ``output`` to ``search``: its next probe, or its label once it has one."""
    try:
        return search.send(output)
    except StopIteration as done:
        return done.value


def _histogram_key(label: CompressionLabel) -> str:
    return "unanswerable" if label.is_unanswerable else str(label.k)


def annotate_dataset(
    dataset: JoinedDataset,
    client: GeneratorClient,
    options: AnnotationOptions = AnnotationOptions(),
) -> tuple[list[AnnotatedTriplet], AnnotationStats]:
    """Annotate every example in the dataset; returns triplets sorted by example id.

    The searches of the client's ``max_in_flight`` examples take turns, and
    each search's next probe is prefetched while the others are generated;
    every ``generate`` call runs on this thread. Generator failures skip the
    example and are logged. When failures exceed ``failure_limit`` of the
    dataset, the run aborts with partial results attached to the exception,
    and no probe is sent after that but the prefetches already started.
    ``cache_hits`` is how far the client's ``cache_hits`` counter rose, and
    ``generator_calls`` is the rise in its ``calls`` less those hits: the
    requests that reached the backend.
    """
    fingerprint = client.fingerprint()
    stats = AnnotationStats(total_examples=len(dataset))
    calls_before, hits_before = client.calls, client.cache_hits
    triplets: list[AnnotatedTriplet] = []
    # (example id, its search, the probe it waits on), in turn order.
    searches: deque[tuple[str, Generator, Prompt]] = deque()

    def step(example_id: str, search: Generator, output: str | None = None) -> None:
        """Give ``search`` its output: queue and prefetch its next probe, or record its label."""
        probe = _advance(search, output)
        if isinstance(probe, Prompt):
            client.prefetch([probe])
            searches.append((example_id, search, probe))
            return
        stats.annotated += 1
        key = _histogram_key(probe)
        stats.label_histogram[key] = stats.label_histogram.get(key, 0) + 1
        if probe.is_unanswerable:
            stats.unanswerable_count += 1
        triplets.append(AnnotatedTriplet(example_id, example_id, probe, fingerprint))

    pairs, width = iter(dataset.pairs), client.max_in_flight
    try:
        while True:
            while len(searches) < width and (pair := next(pairs, None)) is not None:
                example, retrieval = pair
                step(example.id, find_optimal_k(example, retrieval, options.judge_mode,
                                                 options.include_k0, options.template_id))
            if not searches:
                break
            example_id, search, probe = searches.popleft()
            try:
                output = client.generate(probe)
            except (TransportError, ProtocolError) as exc:
                stats.failed += 1
                logger.warning("generator failed for example %s: %s", example_id, exc)
                if stats.failed / stats.total_examples > options.failure_limit:
                    raise AnnotationAborted(
                        f"aborting: {stats.failed}/{stats.total_examples} examples failed "
                        f"(limit {options.failure_limit:.0%})",
                        triplets,
                        stats,
                    )
                continue
            step(example_id, search, output)
    finally:
        client.cancel_prefetch()
        # Also on abort: the exception carries these same objects.
        triplets.sort(key=lambda t: t.example_id)
        stats.cache_hits = client.cache_hits - hits_before
        stats.generator_calls = client.calls - calls_before - stats.cache_hits
    return triplets, stats
