"""Seeded synthetic QA corpora with known evidence placement.

Every example gets a unique codeword answer planted in exactly one ranked
document (its evidence depth), in no document (unanswerable), or in none
while the closed-book mock knows it (depth 0). Retrieval scores follow a
depth-keyed profile (high until the evidence rank, low after), so the
intended label is recoverable from score features. The emitted plan file
records the intended label for every example, which makes annotation output
checkable exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .data import (
    CompressionLabel,
    QAExample,
    RankedDocument,
    RetrievalSet,
    iter_jsonl,
    parse_row,
    save_examples,
    save_retrievals,
)
from .generation import GeneratorClient, MockOracleBackend, MockOracleConfig

NONE_DEPTH = "none"

_WH_CYCLE = ("what", "who", "where", "when", "how", "why")
_FILLER = (
    "Some passages ramble about unrelated archives.",
    "The register lists several unrelated entries.",
    "Nothing here addresses the catalogue in question.",
    "A long digression follows about storage shelves.",
    "Curators disagree about the provenance of this page.",
)


def default_depth_weights(n_docs: int = 5) -> dict[str, float]:
    """Uniform over evidence depths 1..N plus 10% unanswerable mass."""
    weights = {str(d): 0.9 / n_docs for d in range(1, n_docs + 1)}
    weights[NONE_DEPTH] = 0.1
    return weights


@dataclass(frozen=True)
class CorpusSpec:
    """Size and evidence-depth distribution of a synthetic corpus.

    depth_weights keys are "0".."N" (rank of the first evidence document,
    0 = closed-book-known) or "none" (no document suffices). Left out, they
    are ``default_depth_weights(n_docs)``.
    """

    size: int
    n_docs: int = 5
    depth_weights: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.n_docs < 1:
            raise ValueError(f"n_docs must be >= 1, got {self.n_docs}")
        if self.depth_weights is None:
            object.__setattr__(self, "depth_weights", default_depth_weights(self.n_docs))
        total = 0.0
        for key, weight in self.depth_weights.items():
            if key != NONE_DEPTH and not 0 <= int(key) <= self.n_docs:
                raise ValueError(f"depth key {key!r} out of range 0..{self.n_docs}")
            if weight < 0:
                raise ValueError(f"negative weight {weight} for depth {key!r}")
            total += weight
        if total <= 0:
            raise ValueError("depth_weights must carry positive total mass")


@dataclass(frozen=True)
class PlanEntry:
    """Ground truth for one synthetic example."""

    example_id: str
    intended_label: CompressionLabel = field(metadata={"json": "label"})
    evidence_rank: int | None = None
    closed_book: bool = False


@dataclass
class SyntheticCorpus:
    examples: list[QAExample]
    retrievals: dict[str, RetrievalSet]
    plan: list[PlanEntry]

    def golds_by_id(self) -> dict[str, tuple[str, ...]]:
        return {ex.id: ex.gold_answers for ex in self.examples}

    def closed_book_ids(self) -> list[str]:
        return [entry.example_id for entry in self.plan if entry.closed_book]

    def intended_labels(self) -> dict[str, CompressionLabel]:
        return {entry.example_id: entry.intended_label for entry in self.plan}

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "examples": out / "examples.jsonl",
            "retrievals": out / "retrievals.jsonl",
            "plan": out / "plan.jsonl",
        }
        save_examples(paths["examples"], self.examples)
        save_retrievals(paths["retrievals"], self.retrievals)
        save_plan(paths["plan"], self.plan)
        return paths


def save_plan(path: str | Path, plan: Sequence[PlanEntry]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for entry in plan:
            row = {
                "example_id": entry.example_id,
                "label": entry.intended_label.to_json(),
                "evidence_rank": entry.evidence_rank,
                "closed_book": entry.closed_book,
            }
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def load_plan(path: str | Path) -> list[PlanEntry]:
    return [parse_row(PlanEntry, row, where) for where, row in iter_jsonl(path)]


def _score_profile(rng: random.Random, n_docs: int, depth: str) -> list[float]:
    # Jitter stays under half the profile step so listed order remains score-sorted.
    def jitter() -> float:
        return rng.uniform(-0.005, 0.005)

    if depth == NONE_DEPTH:
        return [round(0.55 - 0.02 * i + jitter(), 6) for i in range(n_docs)]
    d = int(depth)
    if d == 0:
        return [round(0.15 - 0.02 * i + jitter(), 6) for i in range(n_docs)]
    scores = []
    for i in range(n_docs):
        base = 0.95 - 0.03 * i if i < d else 0.35 - 0.03 * i
        scores.append(round(base + jitter(), 6))
    return scores


def make_synthetic_corpus(spec: CorpusSpec, seed: int) -> SyntheticCorpus:
    """Deterministic corpus: same spec and seed always produce identical files."""
    rng = random.Random(seed)
    depth_keys = sorted(spec.depth_weights, key=lambda k: (k == NONE_DEPTH, k))
    weights = [spec.depth_weights[k] for k in depth_keys]

    examples: list[QAExample] = []
    retrievals: dict[str, RetrievalSet] = {}
    plan: list[PlanEntry] = []

    for i in range(spec.size):
        depth = rng.choices(depth_keys, weights=weights, k=1)[0]
        example_id = f"q{i:04d}"
        topic = f"topic{i:04d}"
        gold = f"cw{i:04d}x"
        wh = _WH_CYCLE[i % len(_WH_CYCLE)]
        query = f"{wh} is the codeword for {topic}"
        answers = (gold,) if i % 7 else (gold, f"the {gold}")

        evidence_rank = int(depth) if depth not in (NONE_DEPTH, "0") else None
        texts = []
        for rank in range(1, spec.n_docs + 1):
            if rank == evidence_rank:
                texts.append(
                    f"Notes on {topic}. The codeword is {gold}. "
                    f"{_FILLER[rng.randrange(len(_FILLER))]}"
                )
            else:
                decoy = f"dk{i:04d}r{rank}"
                texts.append(
                    f"Background about topic{(i + rank) % spec.size:04d}. "
                    f"It mentions {decoy} instead. "
                    f"{_FILLER[rng.randrange(len(_FILLER))]}"
                )
        scores = _score_profile(rng, spec.n_docs, depth)
        docs = tuple(
            RankedDocument(doc_id=f"{example_id}-d{rank}", text=text, score=score, rank=rank)
            for rank, (text, score) in enumerate(zip(texts, scores), 1)
        )

        examples.append(QAExample(id=example_id, query=query, gold_answers=answers))
        retrievals[example_id] = RetrievalSet(query_id=example_id, docs=docs)

        if depth == NONE_DEPTH:
            label = CompressionLabel.unanswerable()
        else:
            label = CompressionLabel.keep(int(depth))
        plan.append(
            PlanEntry(
                example_id=example_id,
                intended_label=label,
                evidence_rank=evidence_rank,
                closed_book=depth == "0",
            )
        )

    return SyntheticCorpus(examples=examples, retrievals=retrievals, plan=plan)


def mock_client_for(
    corpus: SyntheticCorpus, config: MockOracleConfig = MockOracleConfig()
) -> GeneratorClient:
    """Mock generator wired to the corpus's gold answers and closed-book set."""
    return GeneratorClient(MockOracleBackend(
        config, golds_by_id=corpus.golds_by_id(), closed_book_ids=corpus.closed_book_ids()
    ))
