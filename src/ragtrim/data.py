"""Domain types and JSONL persistence for QA examples, retrievals, and annotation triplets.

File formats (one UTF-8 JSON object per line):

- examples:   {"id": str, "query": str, "answers": [str, ...], "history": [[role, text], ...]?}
- retrievals: {"query_id": str, "docs": [{"doc_id": str, "text": str, "score": float}, ...]}
- triplets:   {"example_id": str, "query_id": str, "label": int | "unanswerable", "generator": str}

Retrieval files are trusted on document order: rank is assigned by list
position. A score increase with rank is logged as a warning, not rejected,
because real retriever dumps contain ties and re-scored lists.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

logger = logging.getLogger(__name__)

UNANSWERABLE_TOKEN = "unanswerable"


class DataError(ValueError):
    """Raised for malformed or inconsistent dataset files."""


@dataclass(frozen=True)
class QAExample:
    """A query with its gold answers (alias list) and optional dialogue history."""

    id: str
    query: str
    gold_answers: tuple[str, ...]
    history: tuple[tuple[str, str], ...] | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("example id must be non-empty")
        if not self.query.strip():
            raise DataError(f"query empty for example {self.id}")
        if not self.gold_answers:
            raise DataError(f"gold_answers empty for example {self.id}")


@dataclass(frozen=True)
class RankedDocument:
    doc_id: str
    text: str
    score: float
    rank: int

    def __post_init__(self) -> None:
        if not self.text:
            raise DataError(f"document {self.doc_id} has empty text")
        if self.rank < 1:
            raise DataError(f"document {self.doc_id} has rank {self.rank} < 1")


@dataclass(frozen=True)
class RetrievalSet:
    """The ranked top-N documents for one query, ranks contiguous from 1."""

    query_id: str
    docs: tuple[RankedDocument, ...]

    def __post_init__(self) -> None:
        if not self.docs:
            raise DataError(f"empty retrieval set for query {self.query_id}")
        ranks = [d.rank for d in self.docs]
        if ranks != list(range(1, len(self.docs) + 1)):
            raise DataError(
                f"ranks must be contiguous 1..N for query {self.query_id}, got {ranks}"
            )

    @property
    def n(self) -> int:
        return len(self.docs)


@dataclass(frozen=True)
class CompressionLabel:
    """Minimal prefix size needed to answer, or unanswerable (no prefix suffices).

    ``k=0`` means the generator answers correctly with no documents at all.
    """

    k: int | None

    def __post_init__(self) -> None:
        if self.k is not None and self.k < 0:
            raise DataError(f"label k must be >= 0, got {self.k}")

    @classmethod
    def keep(cls, k: int) -> "CompressionLabel":
        return cls(k=k)

    @classmethod
    def unanswerable(cls) -> "CompressionLabel":
        return cls(k=None)

    @property
    def is_unanswerable(self) -> bool:
        return self.k is None

    def to_json(self) -> int | str:
        return UNANSWERABLE_TOKEN if self.k is None else self.k

    @classmethod
    def from_json(cls, value: object) -> "CompressionLabel":
        if value == UNANSWERABLE_TOKEN:
            return cls.unanswerable()
        if isinstance(value, bool) or not isinstance(value, int):
            raise DataError(f"unknown label token {value!r}")
        return cls.keep(value)

    def __str__(self) -> str:
        return UNANSWERABLE_TOKEN if self.k is None else f"k={self.k}"


@dataclass(frozen=True)
class AnnotatedTriplet:
    """One predictor training row: example, its retrieval set, and the annotated label."""

    example_id: str
    query_id: str
    label: CompressionLabel
    generator_fingerprint: str


@dataclass
class JoinedDataset:
    """Examples paired with their retrieval sets, in example-file order."""

    pairs: list[tuple[QAExample, RetrievalSet]]
    dropped_ids: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[QAExample, RetrievalSet]]:
        return iter(self.pairs)

    def index(self) -> dict[str, tuple[QAExample, RetrievalSet]]:
        return {example.id: (example, retrieval) for example, retrieval in self.pairs}


def _iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    path = Path(path)
    try:
        fh = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    with fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"malformed JSON at line {line_no} in {path}: {exc}") from exc
            if not isinstance(obj, dict):
                raise DataError(f"expected a JSON object at line {line_no} in {path}")
            yield line_no, obj


def _require(obj: dict, key: str, line_no: int) -> object:
    if key not in obj:
        raise DataError(f"missing required field '{key}' at line {line_no}")
    return obj[key]


def _require_label(obj: dict, line_no: int) -> CompressionLabel:
    value = _require(obj, "label", line_no)
    try:
        return CompressionLabel.from_json(value)
    except DataError as exc:
        raise DataError(f"{exc} at line {line_no}") from exc


def load_examples(path: str | Path, format: str = "qa") -> list[QAExample]:
    """Load QA examples from JSONL, validating ids, queries, and answer lists.

    ``format="qa"`` ignores any history field; ``format="conversational"``
    parses it into (role, utterance) pairs.
    """
    if format not in ("qa", "conversational"):
        raise DataError(f"unknown example format {format!r}")
    examples: list[QAExample] = []
    seen: set[str] = set()
    for line_no, obj in _iter_jsonl(path):
        example_id = str(_require(obj, "id", line_no))
        query = str(_require(obj, "query", line_no))
        answers = _require(obj, "answers", line_no)
        if not isinstance(answers, list) or not all(isinstance(a, str) for a in answers):
            raise DataError(f"field 'answers' must be a list of strings at line {line_no}")
        if not answers:
            raise DataError(f"gold_answers empty at line {line_no}")
        if not query.strip():
            raise DataError(f"query empty at line {line_no}")
        if example_id in seen:
            raise DataError(f"duplicate id {example_id} at line {line_no}")
        seen.add(example_id)
        history = None
        if format == "conversational":
            raw_history = obj.get("history") or []
            try:
                history = tuple((str(role), str(text)) for role, text in raw_history)
            except (TypeError, ValueError) as exc:
                raise DataError(f"malformed history at line {line_no}: {exc}") from exc
        examples.append(
            QAExample(id=example_id, query=query, gold_answers=tuple(answers), history=history)
        )
    return examples


def save_examples(path: str | Path, examples: Iterable[QAExample]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for ex in examples:
            row: dict = {"id": ex.id, "query": ex.query, "answers": list(ex.gold_answers)}
            if ex.history is not None:
                row["history"] = [list(turn) for turn in ex.history]
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _ranked_document(obj: object, rank: int, line_no: int) -> RankedDocument:
    if not isinstance(obj, dict):
        raise DataError(f"document {rank} must be a JSON object at line {line_no}")
    doc_id = str(_require(obj, "doc_id", line_no))
    text, score = _require(obj, "text", line_no), _require(obj, "score", line_no)
    if not isinstance(text, str):
        raise DataError(f"field 'text' of document {rank} must be a string at line {line_no}")
    if isinstance(score, bool) or not isinstance(score, (int, float)):
        raise DataError(f"field 'score' of document {rank} must be a number at line {line_no}")
    return RankedDocument(doc_id=doc_id, text=text, score=float(score), rank=rank)


def load_retrievals(path: str | Path) -> dict[str, RetrievalSet]:
    """Load retrieval sets from JSONL; list position becomes rank 1..N."""
    retrievals: dict[str, RetrievalSet] = {}
    for line_no, obj in _iter_jsonl(path):
        query_id = str(_require(obj, "query_id", line_no))
        raw_docs = _require(obj, "docs", line_no)
        if not isinstance(raw_docs, list):
            raise DataError(f"field 'docs' must be a list at line {line_no}")
        if not raw_docs:
            raise DataError(f"empty retrieval set for query {query_id} at line {line_no}")
        if query_id in retrievals:
            raise DataError(f"duplicate query_id {query_id} at line {line_no}")
        docs = tuple(_ranked_document(d, rank, line_no) for rank, d in enumerate(raw_docs, 1))
        scores = [d.score for d in docs]
        if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
            logger.warning(
                "retrieval scores increase with rank for query %s (line %d); "
                "keeping listed order",
                query_id,
                line_no,
            )
        retrievals[query_id] = RetrievalSet(query_id=query_id, docs=docs)
    return retrievals


def save_retrievals(path: str | Path, retrievals: Mapping[str, RetrievalSet]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for retrieval in retrievals.values():
            row = {
                "query_id": retrieval.query_id,
                "docs": [
                    {"doc_id": d.doc_id, "text": d.text, "score": d.score}
                    for d in retrieval.docs
                ],
            }
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def join_dataset(
    examples: Sequence[QAExample], retrievals: Mapping[str, RetrievalSet]
) -> JoinedDataset:
    """Pair each example with its retrieval set; report and drop unmatched examples."""
    pairs: list[tuple[QAExample, RetrievalSet]] = []
    dropped: list[str] = []
    for example in examples:
        retrieval = retrievals.get(example.id)
        if retrieval is None:
            dropped.append(example.id)
        else:
            pairs.append((example, retrieval))
    if not pairs:
        raise DataError("no joinable examples")
    if dropped:
        logger.warning("dropped %d examples without retrievals: %s", len(dropped), dropped[:10])
    return JoinedDataset(pairs=pairs, dropped_ids=dropped)


def save_triplets(path: str | Path, triplets: Iterable[AnnotatedTriplet]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for t in triplets:
            row = {
                "example_id": t.example_id,
                "query_id": t.query_id,
                "label": t.label.to_json(),
                "generator": t.generator_fingerprint,
            }
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def load_triplets(
    path: str | Path, retrievals: Mapping[str, RetrievalSet] | None = None
) -> list[AnnotatedTriplet]:
    """Load annotation triplets; when retrievals are given, labels are range-checked."""
    triplets: list[AnnotatedTriplet] = []
    for line_no, obj in _iter_jsonl(path):
        example_id = str(_require(obj, "example_id", line_no))
        query_id = str(_require(obj, "query_id", line_no))
        label = _require_label(obj, line_no)
        if retrievals is not None and not label.is_unanswerable:
            retrieval = retrievals.get(query_id)
            if retrieval is not None and label.k > retrieval.n:
                raise DataError(
                    f"label exceeds N: k={label.k} > N={retrieval.n} "
                    f"for query {query_id} at line {line_no}"
                )
        triplets.append(
            AnnotatedTriplet(
                example_id=example_id,
                query_id=query_id,
                label=label,
                generator_fingerprint=str(obj.get("generator", "")),
            )
        )
    return triplets
