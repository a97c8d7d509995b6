"""Metric fixtures (hand-computed) and properties, plus brute-force cross-checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragtrim.metrics import (
    ExampleResult,
    aggregate,
    exact_match,
    normalize_answer,
    rouge_l,
    rouge_l_best,
    rouge_n,
    rouge_n_best,
    score_output,
    token_f1,
    tokenize,
)

# Word pools for property tests. SAFE_WORDS excludes the articles that exact
# match normalizes away but the F1 tokenizer keeps, so dominance holds.
SAFE_WORDS = ["cat", "sat", "down", "tower", "paris", "blue", "run", "x1", "42"]
ALL_WORDS = SAFE_WORDS + ["the", "a", "an"]

phrases = st.lists(st.sampled_from(ALL_WORDS), min_size=0, max_size=8).map(" ".join)
nonempty_phrases = st.lists(st.sampled_from(ALL_WORDS), min_size=1, max_size=8).map(" ".join)
safe_phrases = st.lists(st.sampled_from(SAFE_WORDS), min_size=0, max_size=8).map(" ".join)


class TestNormalize:
    def test_strips_articles_punct_case(self):
        assert normalize_answer("The Eiffel Tower!") == "eiffel tower"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_punctuation_becomes_boundary(self):
        assert normalize_answer("Paris, France") == "paris france"

    @given(st.text(max_size=40))
    def test_idempotent(self, s):
        assert normalize_answer(normalize_answer(s)) == normalize_answer(s)


class TestExactMatch:
    def test_identical(self):
        assert exact_match("Paris", ["Paris"]) == 1

    def test_extra_content_fails(self):
        assert exact_match("Paris, France", ["Paris"]) == 0

    def test_article_dropped(self):
        assert exact_match("the Shakespeare", ["Shakespeare"]) == 1

    def test_requires_golds(self):
        with pytest.raises(ValueError):
            exact_match("x", [])

    @given(nonempty_phrases)
    def test_self_match(self, s):
        assert exact_match(s, [s]) == 1


class TestTokenF1:
    def test_hand_example(self):
        # pred {the, cat, sat} vs gold {cat, sat, down}: P = R = 2/3.
        assert token_f1("the cat sat", ["cat sat down"]) == pytest.approx(2 / 3, abs=1e-9)

    def test_identical(self):
        assert token_f1("green ideas sleep", ["green ideas sleep"]) == 1.0

    def test_disjoint(self):
        assert token_f1("alpha beta", ["gamma delta"]) == 0.0

    def test_both_empty(self):
        assert token_f1("", [""]) == 1.0

    def test_one_empty(self):
        assert token_f1("", ["word"]) == 0.0
        assert token_f1("word", [""]) == 0.0

    def test_max_over_golds(self):
        assert token_f1("cat", ["dog", "cat"]) == 1.0

    @given(phrases, nonempty_phrases)
    def test_bounded(self, pred, gold):
        assert 0.0 <= token_f1(pred, [gold]) <= 1.0

    @given(safe_phrases, st.lists(safe_phrases, min_size=1, max_size=3))
    def test_dominates_exact_match_on_article_free_text(self, pred, golds):
        assert token_f1(pred, golds) >= exact_match(pred, golds)


class TestRougeN:
    def test_unigram_hand_example(self):
        p, r, f = rouge_n("a b c", "a b d", 1)
        assert (p, r, f) == pytest.approx((2 / 3, 2 / 3, 2 / 3), abs=1e-9)

    def test_bigram_hand_example(self):
        p, r, f = rouge_n("a b c", "a b d", 2)
        assert (p, r, f) == pytest.approx((1 / 2, 1 / 2, 1 / 2), abs=1e-9)

    def test_ref_too_short(self):
        assert rouge_n("a b c", "a", 2) == (0.0, 0.0, 0.0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            rouge_n("a", "a", 0)

    def test_multiset_counting(self):
        # "a a" vs "a": overlap is one unigram, pred has two.
        p, r, f = rouge_n("a a", "a", 1)
        assert (p, r) == (0.5, 1.0)


class TestRougeL:
    def test_hand_example(self):
        p, r, f = rouge_l("a b c d", "a c d")
        assert (p, r) == (3 / 4, 1.0)
        assert f == pytest.approx(6 / 7, abs=1e-9)

    def test_identical(self):
        assert rouge_l("x y z", "x y z") == (1.0, 1.0, 1.0)

    def test_empty_pred(self):
        assert rouge_l("", "a b") == (0.0, 0.0, 0.0)

    @given(nonempty_phrases)
    def test_self_is_perfect(self, s):
        assert rouge_l(s, s) == (1.0, 1.0, 1.0)

    @given(phrases, phrases)
    def test_bounded(self, a, b):
        p, r, f = rouge_l(a, b)
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f <= 1.0


# ---------------------------------------------------------------------------
# Independent brute-force implementations (kept deliberately naive).
# ---------------------------------------------------------------------------


def brute_ngram_overlap(pred_tokens, ref_tokens, n):
    pred_grams = [tuple(pred_tokens[i : i + n]) for i in range(len(pred_tokens) - n + 1)]
    ref_grams = [tuple(ref_tokens[i : i + n]) for i in range(len(ref_tokens) - n + 1)]
    remaining = list(ref_grams)
    overlap = 0
    for gram in pred_grams:
        if gram in remaining:
            remaining.remove(gram)
            overlap += 1
    return overlap, len(pred_grams), len(ref_grams)


def brute_rouge_n(pred, ref, n):
    overlap, n_pred, n_ref = brute_ngram_overlap(tokenize(pred), tokenize(ref), n)
    if n_pred == 0 or n_ref == 0:
        return (0.0, 0.0, 0.0)
    precision = overlap / n_pred
    recall = overlap / n_ref
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return (precision, recall, f)


def brute_lcs(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def brute_rouge_l(pred, ref):
    a, b = tokenize(pred), tokenize(ref)
    if not a or not b:
        return (0.0, 0.0, 0.0)
    lcs = brute_lcs(a, b)
    precision = lcs / len(a)
    recall = lcs / len(b)
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return (precision, recall, f)


class TestBruteForceAgreement:
    @settings(max_examples=200)
    @given(phrases, phrases, st.integers(min_value=1, max_value=3))
    def test_rouge_n_matches_oracle(self, pred, ref, n):
        assert tuple(rouge_n(pred, ref, n)) == brute_rouge_n(pred, ref, n)

    @settings(max_examples=200)
    @given(phrases, phrases)
    def test_rouge_l_matches_oracle(self, pred, ref):
        assert tuple(rouge_l(pred, ref)) == brute_rouge_l(pred, ref)


# Outputs and golds with punctuation, case and underscores, which normalization
# and tokenization treat differently.
messy_phrases = st.lists(
    st.sampled_from(ALL_WORDS + ["Paris!", "THE", "x_y", "a-b", "cat.", "42,"]), max_size=8
).map(" ".join)
gold_lists = st.lists(messy_phrases, min_size=1, max_size=4)


class TestScoreOutput:
    @settings(max_examples=300)
    @given(st.one_of(messy_phrases, st.text(max_size=30)), gold_lists)
    def test_fields_equal_the_standalone_metrics_bit_for_bit(self, output, golds):
        result = score_output("q1", output, golds, token_count=7, k=2)
        expected = (
            token_f1(output, golds),
            rouge_n_best(output, golds, 1).f,
            rouge_n_best(output, golds, 2).f,
            rouge_l_best(output, golds).f,
        )
        assert result.em == exact_match(output, golds)
        assert [f.hex() for f in (result.f1, result.rouge_1, result.rouge_2, result.rouge_l)] == [
            f.hex() for f in expected
        ]
        assert (result.example_id, result.token_count, result.k) == ("q1", 7, 2)

    def test_each_examples_golds_are_normalized_once_over_its_rows(self, monkeypatch):
        """Scoring several rows of one example normalizes each gold once, not once per row."""
        import ragtrim.metrics

        normalized = []
        normalize = ragtrim.metrics.normalize_answer
        monkeypatch.setattr(ragtrim.metrics, "normalize_answer",
                            lambda text: normalized.append(text) or normalize(text))
        golds = ("Oslo of the Fjord", "Christiania")
        outputs = ("Oslo", "the Christiania", "Bergen")
        assert [score_output("q1", output, golds, 1, 1).em for output in outputs] == [0, 1, 0]
        assert [normalized.count(text) for text in (*golds, *outputs)] == [1] * 5

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError):
            score_output("q1", "paris", [], token_count=1, k=1)


def _result(example_id, em, k, tokens=10):
    return ExampleResult(
        example_id=example_id,
        em=em,
        f1=float(em),
        rouge_1=float(em),
        rouge_2=float(em),
        rouge_l=float(em),
        token_count=tokens,
        k=k,
    )


class TestAggregate:
    def test_mean_em(self):
        report = aggregate([_result("a", 1, 1), _result("b", 0, 5)])
        assert report.em == 0.5

    def test_avg_docs(self):
        report = aggregate([_result("a", 1, 1), _result("b", 0, 5)])
        assert report.avg_docs == 3.0

    def test_report_schema_has_table_columns(self):
        report = aggregate([_result("a", 1, 2, tokens=40)])
        d = report.to_dict()
        for column in ("mean_tokens", "em", "f1", "rouge_1", "rouge_2", "rouge_l", "avg_docs"):
            assert column in d

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            aggregate([])
