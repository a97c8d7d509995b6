"""Apply a compression-rate label: truncate the ranked list and assemble the prompt.

Truncation always keeps a rank prefix; the single-document baseline
(only_doc_select) is the one selector here allowed to return a non-prefix
document. Token counts are whitespace-token counts of the assembled prompt,
so cost comparisons are tokenizer-free and reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .data import CompressionLabel, QAExample, RankedDocument, RetrievalSet
from .generation import Prompt
from .metrics import tokenize

FALLBACK_TO_N = "to_N"
FALLBACK_TO_ZERO = "to_zero"


def count_tokens(text: str) -> int:
    """Number of maximal non-whitespace runs."""
    return len(text.split())


def assemble_prompt(example: QAExample, kept_docs: Sequence[RankedDocument]) -> Prompt:
    """Render the generation prompt for an example over the kept documents: the
    example's dialogue history when it has one, then the numbered documents, then
    the question.

    Output bytes are a pure function of the inputs; identical inputs always
    produce identical prompts.
    """
    doc_texts = tuple(d.text for d in kept_docs)
    lines = [f"{role}: {utterance}" for role, utterance in example.history or ()]
    if lines:
        lines.append("")
    lines += [f"Document {i}: {text}" for i, text in enumerate(doc_texts, 1)]
    if doc_texts:
        lines.append("")
        lines.append("Answer the question based on the documents above.")
    else:
        lines.append("Answer the question using your own knowledge.")
    lines.append(f"Question: {example.query}")
    lines.append("Answer:")
    return Prompt(
        query_id=example.id,
        query=example.query,
        context_docs=doc_texts,
        template_id="conversational" if example.history else "qa_default",
        text="\n".join(lines),
    )


def select_top_k(retrieval: RetrievalSet, k: int) -> list[RankedDocument]:
    """The rank-prefix of length k (k=0 gives the empty, closed-book context)."""
    if not 0 <= k <= retrieval.n:
        raise ValueError(f"k={k} out of range 0..{retrieval.n} for query {retrieval.query_id}")
    return list(retrieval.docs[:k])


@dataclass(frozen=True)
class CompressedContext:
    """The documents kept for generation plus the assembled prompt and its cost."""

    query_id: str
    kept_docs: tuple[RankedDocument, ...]
    k: int
    prompt: Prompt
    token_count: int


def _compressed(
    example: QAExample, retrieval: RetrievalSet, kept: Sequence[RankedDocument]
) -> CompressedContext:
    prompt = assemble_prompt(example, kept)
    return CompressedContext(
        query_id=retrieval.query_id,
        kept_docs=tuple(kept),
        k=len(kept),
        prompt=prompt,
        token_count=count_tokens(prompt.text),
    )


def compress(
    example: QAExample,
    retrieval: RetrievalSet,
    label: CompressionLabel,
    fallback: str = FALLBACK_TO_N,
) -> CompressedContext:
    """Truncate the ranked list per the label and assemble the prompt.

    Unanswerable labels fall back per policy: ``to_N`` keeps every document
    (the conservative default), ``to_zero`` goes closed-book.
    """
    if label.is_unanswerable:
        if fallback == FALLBACK_TO_N:
            k = retrieval.n
        elif fallback == FALLBACK_TO_ZERO:
            k = 0
        else:
            raise ValueError(f"unknown fallback policy {fallback!r}")
    else:
        k = label.k
    return _compressed(example, retrieval, select_top_k(retrieval, k))


_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> list[str]:
    """Split on '.', '!', '?' followed by whitespace."""
    return [s for s in _SENTENCE_RE.split(text.strip()) if s]


def _overlap_with_query(sentence: str, query_tokens: frozenset[str]) -> float:
    if not query_tokens:
        return 0.0
    sentence_tokens = set(tokenize(sentence))
    return len(sentence_tokens & query_tokens) / len(query_tokens)


def only_doc_select(example: QAExample, retrieval: RetrievalSet) -> CompressedContext:
    """Keep only the document containing the sentence most relevant to the query.

    Sentences are scored by normalized token overlap with the query; ties go
    to the lower-ranked document, so an all-zero query keeps rank 1. The
    chosen document may sit anywhere in the ranking.
    """
    query_tokens = frozenset(tokenize(example.query))
    best_doc = retrieval.docs[0]
    best_score = -1.0
    for doc in retrieval.docs:
        for sentence in split_sentences(doc.text) or [doc.text]:
            score = _overlap_with_query(sentence, query_tokens)
            if score > best_score:
                best_score = score
                best_doc = doc
    return _compressed(example, retrieval, [best_doc])

