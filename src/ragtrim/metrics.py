"""Answer-quality metrics: exact match, token F1, ROUGE-1/2/L, and report aggregation.

All metrics operate on a shared lexical tokenizer (lowercase, split on
non-alphanumeric runs). Exact match additionally applies answer
normalization (punctuation and English articles stripped), the usual
convention for open-domain QA scoring.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple, Sequence

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_RE = re.compile(r"[^\w\s]|_")
_TOKEN_RE = re.compile(r"[^\W_]+")


def normalize_answer(s: str) -> str:
    """Lowercase, replace punctuation with spaces, drop articles, collapse whitespace."""
    s = s.lower()
    s = _PUNCT_RE.sub(" ", s)
    s = _ARTICLE_RE.sub(" ", s)
    return " ".join(s.split())


@functools.lru_cache(maxsize=256)
def _normalized_golds(golds: tuple[str, ...]) -> tuple[str, ...]:
    # Bounded memo: an example's prompts are generated, judged and scored one after
    # another, so its golds are normalized once, not on every call.
    return tuple(normalize_answer(g) for g in golds)


def tokenize(s: str) -> list[str]:
    """Lowercase tokens split on non-alphanumeric boundaries. Articles are kept."""
    return _TOKEN_RE.findall(s.lower())


def exact_match(pred: str, golds: Sequence[str]) -> int:
    """1 iff the normalized prediction equals any normalized gold answer."""
    if not golds:
        raise ValueError("exact_match requires at least one gold answer")
    norm_pred = normalize_answer(pred)
    return int(any(norm_pred == normalize_answer(g) for g in golds))


def _f1_from_counts(overlap: int, n_pred: int, n_gold: int) -> float:
    if n_pred == 0 and n_gold == 0:
        return 1.0
    if n_pred == 0 or n_gold == 0:
        return 0.0
    if overlap == 0:
        return 0.0
    precision = overlap / n_pred
    recall = overlap / n_gold
    return 2 * precision * recall / (precision + recall)


def token_f1(pred: str, golds: Sequence[str]) -> float:
    """Max over golds of the harmonic mean of token precision/recall.

    Tokens are compared as multisets. Two empty strings score 1.0; exactly
    one empty scores 0.0.
    """
    if not golds:
        raise ValueError("token_f1 requires at least one gold answer")
    pred_tokens = Counter(tokenize(pred))
    best = 0.0
    for gold in golds:
        best = max(best, _counts_f1(pred_tokens, Counter(tokenize(gold))))
    return best


def _counts_f1(pred_tokens: Counter, gold_tokens: Counter) -> float:
    overlap = sum((pred_tokens & gold_tokens).values())
    return _f1_from_counts(overlap, sum(pred_tokens.values()), sum(gold_tokens.values()))


class RougeScore(NamedTuple):
    precision: float
    recall: float
    f: float


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(pred: str, ref: str, n: int) -> RougeScore:
    """N-gram multiset overlap between prediction and reference."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _ngram_rouge(_ngrams(tokenize(pred), n), _ngrams(tokenize(ref), n))


def _ngram_rouge(pred_grams: Counter, ref_grams: Counter) -> RougeScore:
    n_pred = sum(pred_grams.values())
    n_ref = sum(ref_grams.values())
    if n_pred == 0 or n_ref == 0:
        return RougeScore(0.0, 0.0, 0.0)
    return _rouge_score(sum((pred_grams & ref_grams).values()), n_pred, n_ref)


def _rouge_score(overlap: int, n_pred: int, n_ref: int) -> RougeScore:
    """Precision, recall and F from an overlap count and two non-zero lengths."""
    precision = overlap / n_pred
    recall = overlap / n_ref
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return RougeScore(precision, recall, f)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # Single-row DP; O(len(a) * len(b)) time, O(len(b)) space.
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[len(b)]


def rouge_l(pred: str, ref: str) -> RougeScore:
    """Longest-common-subsequence overlap between prediction and reference."""
    return _lcs_rouge(tokenize(pred), tokenize(ref))


def _lcs_rouge(pred_tokens: Sequence[str], ref_tokens: Sequence[str]) -> RougeScore:
    if not pred_tokens or not ref_tokens:
        return RougeScore(0.0, 0.0, 0.0)
    return _rouge_score(_lcs_length(pred_tokens, ref_tokens), len(pred_tokens), len(ref_tokens))


def rouge_n_best(pred: str, golds: Sequence[str], n: int) -> RougeScore:
    """rouge_n against each gold, keeping the highest-F variant."""
    if not golds:
        raise ValueError("rouge_n_best requires at least one gold answer")
    return max((rouge_n(pred, g, n) for g in golds), key=lambda r: r.f)


def rouge_l_best(pred: str, golds: Sequence[str]) -> RougeScore:
    """rouge_l against each gold, keeping the highest-F variant."""
    if not golds:
        raise ValueError("rouge_l_best requires at least one gold answer")
    return max((rouge_l(pred, g) for g in golds), key=lambda r: r.f)


@dataclass(frozen=True, slots=True)
class ExampleResult:
    """Judged outcome for one example under one method."""

    example_id: str
    em: int
    f1: float
    rouge_1: float
    rouge_2: float
    rouge_l: float
    token_count: int
    k: int


@dataclass
class EvalReport:
    """Mean metrics over a result set."""

    n: int
    em: float
    f1: float
    rouge_1: float
    rouge_2: float
    rouge_l: float
    mean_tokens: float
    avg_docs: float

    def to_dict(self) -> dict:
        return asdict(self)


def score_output(
    example_id: str,
    output: str,
    golds: Sequence[str],
    token_count: int,
    k: int,
) -> ExampleResult:
    """Score one generated answer against its gold answers.

    The output and each gold are tokenized once, the golds normalized once per
    example (``_normalized_golds``), and every metric is derived from those;
    each field equals what exact_match, token_f1, rouge_n_best(.., 1/2).f and
    rouge_l_best(..).f return, bit for bit.
    """
    if not golds:
        raise ValueError("score_output requires at least one gold answer")
    em = int(normalize_answer(output) in _normalized_golds(tuple(golds)))
    tokens = tokenize(output)
    unigrams, bigrams = _ngrams(tokens, 1), _ngrams(tokens, 2)
    f1, rouge_1, rouge_2, rouge_l = 0.0, 0.0, 0.0, 0.0
    for gold in golds:
        gold_tokens = tokenize(gold)
        gold_unigrams = _ngrams(gold_tokens, 1)
        f1 = max(f1, _counts_f1(unigrams, gold_unigrams))
        rouge_1 = max(rouge_1, _ngram_rouge(unigrams, gold_unigrams).f)
        rouge_2 = max(rouge_2, _ngram_rouge(bigrams, _ngrams(gold_tokens, 2)).f)
        rouge_l = max(rouge_l, _lcs_rouge(tokens, gold_tokens).f)
    return ExampleResult(example_id, em, f1, rouge_1, rouge_2, rouge_l, token_count, k)


def aggregate(results: Iterable[ExampleResult]) -> EvalReport:
    """Mean every metric over the result set."""
    rows = list(results)
    if not rows:
        raise ValueError("aggregate requires a non-empty result set")
    n = len(rows)
    return EvalReport(
        n=n,
        em=sum(r.em for r in rows) / n,
        f1=sum(r.f1 for r in rows) / n,
        rouge_1=sum(r.rouge_1 for r in rows) / n,
        rouge_2=sum(r.rouge_2 for r in rows) / n,
        rouge_l=sum(r.rouge_l for r in rows) / n,
        mean_tokens=sum(r.token_count for r in rows) / n,
        avg_docs=sum(r.k for r in rows) / n,
    )
