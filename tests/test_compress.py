"""Truncation semantics, prompt assembly, the single-document baseline, token costs."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ragtrim.compress import (
    assemble_prompt,
    compress,
    count_tokens,
    only_doc_select,
    split_sentences,
)
from ragtrim.data import CompressionLabel
from helpers import make_example, make_retrieval

LABEL_UNANSWERABLE = CompressionLabel.unanswerable()


@pytest.fixture
def five_docs():
    return make_retrieval(texts=[f"text of document number {i}" for i in range(1, 6)])


class TestCompress:
    def test_prefix_of_three(self, five_docs):
        ctx = compress(make_example(), five_docs, CompressionLabel.keep(3))
        assert [d.rank for d in ctx.kept_docs] == [1, 2, 3]
        assert ctx.k == 3

    def test_zero_is_closed_book(self, five_docs):
        ctx = compress(make_example(), five_docs, CompressionLabel.keep(0))
        assert ctx.kept_docs == ()
        assert "Document" not in ctx.prompt.text

    def test_unanswerable_falls_back_to_all_docs(self, five_docs):
        ctx = compress(make_example(), five_docs, LABEL_UNANSWERABLE, fallback="to_N")
        assert ctx.k == 5
        assert len(ctx.kept_docs) == 5

    def test_unanswerable_to_zero_fallback(self, five_docs):
        ctx = compress(make_example(), five_docs, LABEL_UNANSWERABLE, fallback="to_zero")
        assert ctx.k == 0

    def test_unknown_fallback_rejected(self, five_docs):
        with pytest.raises(ValueError, match="fallback"):
            compress(make_example(), five_docs, LABEL_UNANSWERABLE, fallback="to_half")

    def test_label_beyond_n_rejected(self, five_docs):
        with pytest.raises(ValueError, match="out of range"):
            compress(make_example(), five_docs, CompressionLabel.keep(6))

    def test_monotone_token_cost(self, five_docs):
        counts = [
            compress(make_example(), five_docs, CompressionLabel.keep(k)).token_count
            for k in range(0, 6)
        ]
        assert counts == sorted(counts)

    @given(st.integers(min_value=0, max_value=5))
    def test_kept_docs_always_a_rank_prefix(self, k):
        retrieval = make_retrieval(texts=[f"doc number {i}" for i in range(5)])
        ctx = compress(make_example(), retrieval, CompressionLabel.keep(k))
        assert ctx.kept_docs == retrieval.docs[:k]


class TestAssemblePrompt:
    def test_block_order(self, five_docs):
        prompt = assemble_prompt(make_example(query="who did it"), five_docs.docs[:2])
        text = prompt.text
        assert text.index("Document 1:") < text.index("Document 2:") < text.index("Question:")
        assert text.rstrip().endswith("Answer:")

    def test_no_docs_no_blocks(self):
        prompt = assemble_prompt(make_example(), [])
        assert "Document" not in prompt.text
        assert "Question: who wrote Hamlet" in prompt.text

    def test_byte_determinism(self, five_docs):
        a = assemble_prompt(make_example(), five_docs.docs[:3])
        b = assemble_prompt(make_example(), five_docs.docs[:3])
        assert a.text.encode() == b.text.encode()

    @pytest.mark.parametrize("history, k, text", [
        (None, 2, "Document 1: Hamlet was written by William Shakespeare.\n"
                  "Document 2: It is a tragedy.\n\n"
                  "Answer the question based on the documents above.\n"
                  "Question: who wrote Hamlet\nAnswer:"),
        ((("user", "tell me about the play"), ("assistant", "it is Danish")), 1,
         "user: tell me about the play\nassistant: it is Danish\n\n"
         "Document 1: Hamlet was written by William Shakespeare.\n\n"
         "Answer the question based on the documents above.\n"
         "Question: who wrote Hamlet\nAnswer:"),
    ], ids=["qa", "conversational"])
    def test_prompt_bytes_are_pinned(self, history, k, text):
        docs = make_retrieval(texts=["Hamlet was written by William Shakespeare.",
                                     "It is a tragedy."]).docs
        assert assemble_prompt(make_example(history=history), docs[:k]).text == text

    def test_conversational_prepends_history(self, five_docs):
        example = make_example(
            query="and when did it sink",
            history=(("user", "tell me about the Titanic"), ("assistant", "a famous ship")),
        )
        prompt = assemble_prompt(example, five_docs.docs[:1])
        text = prompt.text
        assert text.index("user: tell me about the Titanic") < text.index("Document 1:")
        assert "assistant: a famous ship" in text


class TestOnlyDoc:
    def test_picks_doc_with_best_sentence(self):
        example = make_example(query="capital of France", answers=("Paris",))
        retrieval = make_retrieval(
            texts=[
                "A treatise on alpine weather. Snow falls often.",
                "History of cities. Paris is the capital of France. It grew around the Seine.",
                "Naval logistics in the Atlantic.",
            ]
        )
        ctx = only_doc_select(example, retrieval)
        assert ctx.kept_docs[0].rank == 2
        assert ctx.k == 1

    def test_zero_overlap_ties_break_to_rank_one(self):
        example = make_example(query="zzz qqq")
        retrieval = make_retrieval(texts=["alpha beta.", "gamma delta.", "epsilon zeta."])
        ctx = only_doc_select(example, retrieval)
        assert ctx.kept_docs[0].rank == 1

    def test_best_sentence_deep_in_ranking(self):
        example = make_example(query="highest volcano on the island")
        retrieval = make_retrieval(
            texts=[
                "Ferries run daily. Tickets are cheap.",
                "Goats graze the foothills.",
                "Rain falls in winter.",
                "Geology survey. The highest volcano on the island is Mount Kea. It last erupted long ago.",
                "Harbors and trade routes.",
            ]
        )
        assert only_doc_select(example, retrieval).kept_docs[0].rank == 4

    def test_sentence_splitting_rule(self):
        assert split_sentences("One sentence. Two! Three? Four") == [
            "One sentence.",
            "Two!",
            "Three?",
            "Four",
        ]
        assert split_sentences("No trailing split.") == ["No trailing split."]


class TestCountTokens:
    def test_spec_examples(self):
        assert count_tokens("What is RAG ?") == 4
        assert count_tokens("") == 0

    @given(
        st.lists(st.sampled_from(["a", "bb", "ccc"]), min_size=1, max_size=5).map(" ".join),
        st.lists(st.sampled_from(["a", "bb", "ccc"]), min_size=1, max_size=5).map(" ".join),
    )
    def test_concatenation_additive(self, a, b):
        assert count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)


def test_oracle_containment_replays_annotation_guarantee():
    """Compressing with an annotated label reproduces a judged-correct answer."""
    from ragtrim.annotate import annotate_dataset
    from ragtrim.data import join_dataset
    from ragtrim.generation import judge_correct
    from ragtrim.synth import CorpusSpec, make_synthetic_corpus, mock_client_for

    corpus = make_synthetic_corpus(CorpusSpec(size=40), seed=13)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    client = mock_client_for(corpus)
    triplets, _ = annotate_dataset(dataset, client)
    index = dataset.index()
    for t in triplets:
        if t.label.is_unanswerable:
            continue
        example, retrieval = index[t.example_id]
        ctx = compress(example, retrieval, t.label)
        assert judge_correct(client.generate(ctx.prompt), example.gold_answers)

