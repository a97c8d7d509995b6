"""Label each example with the smallest rank-prefix the generator needs to answer.

The search walks k upward (optionally probing the empty closed-book context
first) and stops at the first prefix the judge accepts, so easy queries cost
one generator call. Only rank prefixes are ever evaluated.
"""

from __future__ import annotations

import logging
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .compress import assemble_prompt, select_top_k
from .data import AnnotatedTriplet, CompressionLabel, JoinedDataset, QAExample, RetrievalSet
from .generation import (
    GeneratorClient,
    JudgeMode,
    ProtocolError,
    TransportError,
    judge_correct,
)

__all__ = [
    "AnnotationError",
    "AnnotationAborted",
    "AnnotationOptions",
    "AnnotationStats",
    "annotate_dataset",
    "find_optimal_k",
    "select_top_k",
]

logger = logging.getLogger(__name__)


class AnnotationError(RuntimeError):
    """A single example could not be annotated (generator failure)."""


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
    workers: int = 1


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
    client: GeneratorClient,
    judge_mode: JudgeMode = JudgeMode(),
    include_k0: bool = True,
    template_id: str = "qa_default",
) -> CompressionLabel:
    """Smallest k whose rank-prefix yields a judged-correct answer.

    Probes k=0 (closed book) first when enabled, then k=1..N ascending with
    early exit. Returns the unanswerable label when no prefix works.
    """
    ks = range(0 if include_k0 else 1, retrieval.n + 1)
    for k in ks:
        prompt = assemble_prompt(example, select_top_k(retrieval, k), template_id)
        output = client.generate(prompt)
        if judge_correct(output, example.gold_answers, judge_mode):
            return CompressionLabel.keep(k)
    return CompressionLabel.unanswerable()


def _histogram_key(label: CompressionLabel) -> str:
    return "unanswerable" if label.is_unanswerable else str(label.k)


def _in_order(pool: ThreadPoolExecutor, fn: Callable, items: Iterable, window: int) -> Iterator:
    """``pool.map`` with at most ``window`` tasks submitted and not yet consumed.

    ``pool.map`` submits every item up front, so a consumer that stops early
    (an abort) would still wait for all of them when the pool shuts down; here
    it waits for at most ``window - 1``.
    """
    pending: deque[Future] = deque()
    for item in items:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


def annotate_dataset(
    dataset: JoinedDataset,
    client: GeneratorClient,
    options: AnnotationOptions = AnnotationOptions(),
) -> tuple[list[AnnotatedTriplet], AnnotationStats]:
    """Annotate every example in the dataset; returns triplets sorted by example id.

    Generator failures skip the example and are logged. When failures exceed
    ``failure_limit`` of the dataset, the run aborts with partial results
    attached to the exception. ``cache_hits`` is how far the client's own
    ``cache_hits`` counter rose, and ``generator_calls`` is the rise in its
    ``calls`` less those hits: the requests that reached the backend. A
    counter the client does not have reads as 0.
    """
    fingerprint = client.fingerprint()
    stats = AnnotationStats(total_examples=len(dataset))
    calls_before = getattr(client, "calls", 0)
    hits_before = getattr(client, "cache_hits", 0)

    def annotate_one(
        pair: tuple[QAExample, RetrievalSet],
    ) -> tuple[str, CompressionLabel] | AnnotationError:
        example, retrieval = pair
        try:
            label = find_optimal_k(
                example,
                retrieval,
                client,
                judge_mode=options.judge_mode,
                include_k0=options.include_k0,
                template_id=options.template_id,
            )
        except (TransportError, ProtocolError) as exc:
            return AnnotationError(f"generator failed for example {example.id}: {exc}")
        return example.id, label

    triplets: list[AnnotatedTriplet] = []
    try:
        # An executor starts threads only on submit, so workers=1 runs in this thread.
        with ThreadPoolExecutor(max_workers=max(1, options.workers)) as pool:
            if options.workers > 1:
                outcomes = _in_order(pool, annotate_one, dataset.pairs, options.workers)
            else:
                outcomes = map(annotate_one, dataset.pairs)
            for outcome in outcomes:
                if isinstance(outcome, AnnotationError):
                    stats.failed += 1
                    logger.warning("%s", outcome)
                    if stats.failed / stats.total_examples > options.failure_limit:
                        raise AnnotationAborted(
                            f"aborting: {stats.failed}/{stats.total_examples} examples failed "
                            f"(limit {options.failure_limit:.0%})",
                            triplets,
                            stats,
                        )
                    continue
                example_id, label = outcome
                stats.annotated += 1
                key = _histogram_key(label)
                stats.label_histogram[key] = stats.label_histogram.get(key, 0) + 1
                if label.is_unanswerable:
                    stats.unanswerable_count += 1
                triplets.append(AnnotatedTriplet(example_id, example_id, label, fingerprint))
    finally:
        # Also on abort: the exception carries these same objects.
        triplets.sort(key=lambda t: t.example_id)
        stats.cache_hits = getattr(client, "cache_hits", 0) - hits_before
        stats.generator_calls = getattr(client, "calls", 0) - calls_before - stats.cache_hits
    return triplets, stats
