"""Label each example with the smallest rank-prefix the generator needs to answer.

The search walks k upward (optionally probing the empty closed-book context
first) and stops at the first prefix the judge accepts, so easy queries cost
one generator call. Only rank prefixes are ever evaluated.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Generator, Iterator

from .compress import assemble_prompt, select_top_k
from .data import AnnotatedTriplet, CompressionLabel, JoinedDataset, QAExample, RetrievalSet
from .generation import (
    GeneratorClient,
    JudgeMode,
    Prompt,
    ProtocolError,
    Search,
    TransportError,
    judge_correct,
    take_turns,
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
    failure_limit: float = 0.10

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_limit <= 1.0:  # NaN too
            raise ValueError(f"failure_limit must be in [0, 1], got {self.failure_limit}")


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
) -> Generator[Prompt, str, CompressionLabel]:
    """Search for the smallest k whose rank-prefix yields a judged-correct answer.

    Yields one probe prompt at a time and takes the generator's output for it
    through ``send``. Probes k=0 (closed book) first when enabled, then
    k=1..N ascending with early exit. Returns (as ``StopIteration.value``) the
    first accepted k, or the unanswerable label when no prefix works.
    """
    ks = range(0 if include_k0 else 1, retrieval.n + 1)
    for k in ks:
        output = yield assemble_prompt(example, select_top_k(retrieval, k))
        if judge_correct(output, example.gold_answers, judge_mode):
            return CompressionLabel.keep(k)
    return CompressionLabel.unanswerable()


def _abort_point(failed: list[int], total: int, failure_limit: float) -> int:
    """The position of the failed example at which annotating one example at a time
    would abort, given the failed positions known so far; ``total`` if there is none."""
    for count, position in enumerate(sorted(failed), 1):
        if count / total > failure_limit:
            return position
    return total


def annotate_dataset(
    dataset: JoinedDataset,
    client: GeneratorClient,
    options: AnnotationOptions = AnnotationOptions(),
) -> tuple[list[AnnotatedTriplet], AnnotationStats]:
    """Annotate every example in the dataset; returns triplets sorted by example id.

    The examples' label searches take turns in ``generation.take_turns``.
    Generator failures skip the example and are logged. When failures exceed
    ``failure_limit`` of the dataset, the run aborts where annotating one
    example at a time would: at the first failed example, in dataset order,
    past the limit. No example after it starts and the searches after it are
    closed; those before it finish, and then the exception carries their
    triplets and stats, width 1's but for the counts of requests. ``cache_hits``
    is how far the client's ``cache_hits`` counter rose, and ``generator_calls``
    is the rise in its ``calls`` less those hits: the requests that reached the
    backend.
    """
    fingerprint = client.fingerprint()
    calls_before, hits_before = client.calls, client.cache_hits
    labels: dict[int, tuple[str, CompressionLabel]] = {}  # position -> (example id, label)
    failed: list[int] = []  # positions of the examples whose search failed
    end = len(dataset)  # the abort point, once failures past the limit show one
    searching: dict[int, Search] = {}  # position -> its search, while it goes on

    def search(position: int, example: QAExample, retrieval: RetrievalSet) -> Search:
        """``find_optimal_k`` for one example, keeping its label or counting its failure."""
        nonlocal end
        probes = find_optimal_k(example, retrieval, options.judge_mode, options.include_k0)
        try:
            probe = next(probes)
            while True:
                [(output, _)] = yield (probe,)
                probe = probes.send(output)
        except StopIteration as done:
            labels[position] = (example.id, done.value)
        except (TransportError, ProtocolError) as exc:
            logger.warning("generator failed for example %s: %s", example.id, exc)
            failed.append(position)
            end = _abort_point(failed, len(dataset), options.failure_limit)
            for later in [s for p, s in searching.items() if p > end]:
                later.close()
        finally:
            del searching[position]

    def searches() -> Iterator[Search]:
        for position, pair in enumerate(dataset.pairs):
            if position >= end:
                return
            yield searching.setdefault(position, search(position, *pair))

    take_turns(client, searches())
    kept = sorted((pair for position, pair in labels.items() if position < end),
                  key=lambda pair: pair[0])
    triplets = [AnnotatedTriplet(id_, id_, label, fingerprint) for id_, label in kept]
    histogram = Counter(str(label.to_json()) for _, label in kept)
    cache_hits = client.cache_hits - hits_before
    stats = AnnotationStats(
        total_examples=len(dataset),
        annotated=len(triplets),
        failed=sum(position <= end for position in failed),
        label_histogram=dict(histogram),
        unanswerable_count=histogram["unanswerable"],
        generator_calls=client.calls - calls_before - cache_hits,
        cache_hits=cache_hits,
    )
    if end < len(dataset):
        raise AnnotationAborted(
            f"aborting: {stats.failed}/{stats.total_examples} examples failed "
            f"(limit {options.failure_limit:.0%})",
            triplets,
            stats,
        )
    return triplets, stats
