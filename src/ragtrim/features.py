"""Hand-crafted features describing query complexity and retrieval quality.

The feature vector has a fixed layout for a given maximum document count:

    [query_token_count,
     wh one-hot (who/what/when/where/why/how/other),
     n_docs,
     scores s_1..s_M (zero-padded),
     adjacent gaps s_i - s_{i+1} over the padded scores,
     max/min/mean score (actual documents only),
     per-doc lexical overlap with the query (zero-padded),
     per-doc token length / 512 (zero-padded),
     bias 1.0]

Dialogue history, when present, is flattened into the query text for the
count and overlap features; the wh type is read from the final question.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .data import QAExample, RetrievalSet
from .metrics import tokenize

WH_WORDS = ("who", "what", "when", "where", "why", "how")
DOC_LENGTH_SCALE = 512.0
FEATURE_LAYOUT_VERSION = 1


@dataclass(frozen=True)
class FeatureSpec:
    """Pins the feature layout; a model file saved under another layout is refused on load."""

    max_docs: int = 5

    def __post_init__(self) -> None:
        if self.max_docs < 1:
            raise ValueError(f"max_docs must be >= 1, got {self.max_docs}")

    @property
    def dim(self) -> int:
        # count + 7 wh + n_docs + M scores + (M-1) gaps + 3 stats + M overlaps + M lengths + bias
        return 12 + 4 * self.max_docs

    def spec_hash(self) -> str:
        payload = json.dumps(
            {"version": FEATURE_LAYOUT_VERSION, "max_docs": self.max_docs}, sort_keys=True
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def full_query_text(example: QAExample) -> str:
    """Query text used for lexical features; prepends flattened dialogue history."""
    if example.history:
        turns = " ".join(utterance for _, utterance in example.history)
        return f"{turns} {example.query}"
    return example.query


def _wh_one_hot(query: str) -> list[float]:
    hot = [0.0] * (len(WH_WORDS) + 1)
    tokens = tokenize(query)
    for token in tokens:
        if token in WH_WORDS:
            hot[WH_WORDS.index(token)] = 1.0
            return hot
    hot[-1] = 1.0  # "other"
    return hot


def extract_features(
    example: QAExample, retrieval: RetrievalSet, spec: FeatureSpec = FeatureSpec()
) -> np.ndarray:
    """Deterministic feature vector for one (example, retrieval) pair."""
    if retrieval.n > spec.max_docs:
        raise ValueError(
            f"retrieval has {retrieval.n} docs but feature spec allows {spec.max_docs}"
        )
    m = spec.max_docs
    query_text = full_query_text(example)
    query_tokens = tokenize(query_text)
    query_token_set = set(query_tokens)

    scores = [d.score for d in retrieval.docs]
    padded = scores + [0.0] * (m - len(scores))
    gaps = [padded[i] - padded[i + 1] for i in range(m - 1)]

    overlaps = []
    lengths = []
    for doc in retrieval.docs:
        doc_tokens = tokenize(doc.text)
        if query_token_set:
            overlaps.append(len(set(doc_tokens) & query_token_set) / len(query_token_set))
        else:
            overlaps.append(0.0)
        lengths.append(len(doc_tokens) / DOC_LENGTH_SCALE)
    overlaps += [0.0] * (m - len(overlaps))
    lengths += [0.0] * (m - len(lengths))

    return np.array(
        [float(len(query_tokens))]
        + _wh_one_hot(example.query)
        + [float(retrieval.n)]
        + padded
        + gaps
        + [max(scores), min(scores), sum(scores) / len(scores)]
        + overlaps
        + lengths
        + [1.0],
        dtype=np.float64,
    )
