"""Domain types, JSONL persistence, and the one type checker for every file ragtrim reads.

File formats (one UTF-8 JSON object per line; keys not listed are ignored):

- examples:   {"id": str, "query": str, "answers": [str, ...], "history": [[role, text], ...]?}
- retrievals: {"query_id": str, "docs": [{"doc_id": str, "text": str, "score": float}, ...]}
- triplets:   {"example_id": str, "query_id": str, "label": int | "unanswerable", "generator": str}

Each line becomes its dataclass through ``parse_row``, which checks every
value with the one field-type checker that ``parse_config`` applies to the run
config: a wrong type is a DataError naming the file, the line and the key (in a
config, a ConfigError naming the key path).

Retrieval files are trusted on document order: rank is assigned by list
position. A score increase with rank is logged as a warning, not rejected,
because real retriever dumps contain ties and re-scored lists.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import types
import typing
from collections import abc
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

logger = logging.getLogger(__name__)

UNANSWERABLE_TOKEN = "unanswerable"


class ConfigError(ValueError):
    """Bad or incomplete run configuration, raised before any generation call."""


class DataError(ValueError):
    """Raised for malformed or inconsistent dataset files."""


@dataclass(frozen=True)
class QAExample:
    """A query with its gold answers (alias list) and optional dialogue history."""

    id: str
    query: str
    gold_answers: tuple[str, ...] = field(metadata={"json": "answers"})
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
    generator_fingerprint: str = field(default="", metadata={"json": "generator"})


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


def parse_config(cls, raw, where: str):
    """Build the config dataclass ``cls`` from the JSON object ``raw`` at key path ``where``.

    An unknown or missing key, a wrong JSON type, a float that is not finite (NaN or
    Infinity, which Python's json reads) or a failed ``__post_init__`` check is a
    ConfigError naming the key path (``generator.max_retries``). An int for a float
    field becomes that float, so hashes and cache keys stay put.
    A field's JSON key is its name, unless its metadata names one under ``"json"``.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {raw!r}")
    prefix = f"{where}." if where else ""
    known = {key for _, key, _, _ in _schema(cls)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown key {prefix}{key}")
    try:
        return _build(cls, raw, prefix)
    except ConfigError:
        raise
    except ValueError as exc:  # a failed __post_init__ check
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def parse_row(cls, row: dict, where: str):
    """``cls`` from the JSON object ``row`` of a data file, checked as ``parse_config`` checks.

    Keys that name no field are ignored, as real retriever dumps carry extra
    fields. A bad value is a DataError naming ``where`` (the file and line).
    """
    try:
        return _build(cls, row, "")
    except ValueError as exc:  # a wrong type (a ConfigError) or a failed __post_init__ check
        raise DataError(f"{where}: {exc}") from exc


def _build(cls, raw: dict, prefix: str):
    """``cls`` from the values that ``raw`` holds under its fields' JSON keys, each checked."""
    values = {}
    for name, key, hint, required in _schema(cls):
        value = raw.get(key, MISSING)
        if value is MISSING:
            if required:
                raise ConfigError(f"missing key {prefix}{key}")
        else:  # the exact-type case builds no key path: data files run this per value
            values[name] = value if _exact(value, hint) else _typed(value, hint, prefix + key)
    return cls(**values)


@functools.cache
def _schema(cls) -> tuple[tuple[str, str, object, bool], ...]:
    """(name, JSON key, type, whether required) of each field of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.metadata.get("json", f.name), hints[f.name],
                  f.default is MISSING and f.default_factory is MISSING) for f in fields(cls))


def _exact(value, hint) -> bool:
    """Whether ``value`` needs no check against ``hint``: it is of that exact class and, if
    a float, finite."""
    return type(value) is hint and (hint is not float or math.isfinite(value))


def _typed(value, hint, path: str):
    """``value`` checked against the field type ``hint``, with ints widened to float and
    a float that is not finite refused.

    A JSON array is read as a ``list[T]``, a ``tuple[T, ...]`` or a fixed-length
    ``tuple[A, B]``, and an int-keyed mapping from a JSON object whose keys are
    decimal digits. The key path is built for an item only when it is not of its
    type's exact class or is a float that is not finite, so a file of well-typed
    values builds none.
    """
    if _exact(value, hint):
        return value
    base, args = _shape(hint)
    if base in (typing.Union, types.UnionType):
        if type(value) in args and type(value) is not float:
            return value
        arms = [arm for arm in args if arm is not type(None)]
        if len(arms) == 1:  # an optional value that is not null has its own type's message
            return _typed(value, arms[0], path)
        for arm in arms:
            try:
                return _typed(value, arm, path)
            except ConfigError:
                pass
    elif hint is CompressionLabel:
        try:
            return CompressionLabel.from_json(value)
        except DataError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    elif base is float and type(value) in (int, float):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the largest float
            pass
        raise ConfigError(f"{path} must be a finite float, got {json.dumps(value)}")
    elif base in (list, tuple) and type(value) is list:
        arms = args if base is tuple and args[-1] is not Ellipsis else args[:1] * len(value)
        if len(arms) == len(value):
            items = [v if _exact(v, arm) else _typed(v, arm, f"{path}[{i}]")
                     for i, (v, arm) in enumerate(zip(value, arms))]
            return items if base is list else tuple(items)
    elif base in (dict, abc.Mapping) and type(value) is dict:
        key_type, value_type = args
        if key_type is int and not all(key.isdecimal() for key in value):
            raise ConfigError(f"{path} keys must be int, got {json.dumps(list(value))[:40]}")
        return {(int(k) if key_type is int else k):
                v if _exact(v, value_type) else _typed(v, value_type, f"{path}.{k}")
                for k, v in value.items()}
    elif isinstance(value, base) and (base is bool or not isinstance(value, bool)):
        return value
    name = "list" if base is tuple else getattr(hint, "__name__", hint)
    raise ConfigError(f"{path} must be {name}, got {json.dumps(value)}")


@functools.cache
def _shape(hint) -> tuple[object, tuple]:
    """The origin of the type ``hint`` (the hint itself for a plain class) and its arguments."""
    return typing.get_origin(hint) or hint, typing.get_args(hint)


def read_json_object(path: str | Path) -> dict:
    """The JSON object in the file at ``path``; anything else is a ConfigError naming the file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must hold a JSON object, got {json.dumps(raw)[:40]}")
    return raw


def iter_jsonl(path: str | Path) -> Iterator[tuple[str, dict]]:
    """(``"<path> line <n>"``, object) for each non-blank line of the JSONL file at ``path``."""
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
            where = f"{path} line {line_no}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where} is not valid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{where} must hold a JSON object, got {line[:40]}")
            yield where, obj


def load_examples(path: str | Path, format: str = "qa") -> list[QAExample]:
    """Load QA examples from JSONL, validating ids, queries, and answer lists.

    ``format="qa"`` ignores any history field; ``format="conversational"``
    parses it into (role, utterance) pairs.
    """
    if format not in ("qa", "conversational"):
        raise DataError(f"unknown example format {format!r}")
    examples: dict[str, QAExample] = {}
    for where, obj in iter_jsonl(path):
        if format == "qa":
            obj.pop("history", None)
        example = parse_row(QAExample, obj, where)
        if example.id in examples:
            raise DataError(f"{where}: duplicate id {example.id}")
        examples[example.id] = example
    return list(examples.values())


def save_examples(path: str | Path, examples: Iterable[QAExample]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for ex in examples:
            row: dict = {"id": ex.id, "query": ex.query, "answers": list(ex.gold_answers)}
            if ex.history is not None:
                row["history"] = [list(turn) for turn in ex.history]
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


@dataclass
class _RetrievalRow:
    """A retrievals line, before its documents are ranked."""

    query_id: str
    docs: list[dict]


def load_retrievals(path: str | Path) -> dict[str, RetrievalSet]:
    """Load retrieval sets from JSONL; list position becomes rank 1..N."""
    retrievals: dict[str, RetrievalSet] = {}
    for where, obj in iter_jsonl(path):
        row = parse_row(_RetrievalRow, obj, where)
        if row.query_id in retrievals:
            raise DataError(f"{where}: duplicate query_id {row.query_id}")
        try:
            docs = tuple(_build(RankedDocument, {**doc, "rank": rank}, f"docs[{rank - 1}].")
                         for rank, doc in enumerate(row.docs, 1))
            retrievals[row.query_id] = RetrievalSet(query_id=row.query_id, docs=docs)
        except ValueError as exc:  # a wrong type (a ConfigError) or a failed __post_init__ check
            raise DataError(f"{where}: {exc}") from exc
        if any(doc.score < next_doc.score for doc, next_doc in zip(docs, docs[1:])):
            logger.warning("%s: retrieval scores increase with rank for query %s; "
                           "keeping listed order", where, row.query_id)
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
    retrievals = retrievals or {}
    for where, obj in iter_jsonl(path):
        triplet = parse_row(AnnotatedTriplet, obj, where)
        retrieval = retrievals.get(triplet.query_id)
        if retrieval is not None and not triplet.label.is_unanswerable \
                and triplet.label.k > retrieval.n:
            raise DataError(f"{where}: label exceeds N: k={triplet.label.k} > N={retrieval.n} "
                            f"for query {triplet.query_id}")
        triplets.append(triplet)
    return triplets
