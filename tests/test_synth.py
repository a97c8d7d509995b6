"""Synthetic corpus determinism and plan fidelity."""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from ragtrim.annotate import annotate_dataset
from ragtrim.data import DataError, join_dataset, load_retrievals
from ragtrim.generation import MockOracleConfig
from ragtrim.synth import (
    CorpusSpec,
    default_depth_weights,
    load_plan,
    make_synthetic_corpus,
    mock_client_for,
    save_plan,
)


class TestCorpusSpec:
    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative weight"):
            CorpusSpec(size=10, depth_weights={"1": 0.5, "2": -0.1})

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="positive total mass"):
            CorpusSpec(size=10, depth_weights={"1": 0.0})

    def test_depth_key_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CorpusSpec(size=10, n_docs=3, depth_weights={"4": 1.0})

    def test_default_weights_sum_to_one(self):
        weights = default_depth_weights(5)
        assert sum(weights.values()) == pytest.approx(1.0)
        assert weights["none"] == pytest.approx(0.1)

    @pytest.mark.parametrize("n_docs", [3, 7])
    def test_default_weights_follow_n_docs(self, n_docs):
        corpus = make_synthetic_corpus(CorpusSpec(size=200, n_docs=n_docs), seed=1)
        assert {entry.intended_label.to_json() for entry in corpus.plan} == {
            *range(1, n_docs + 1), "unanswerable"
        }
        assert {retrieval.n for retrieval in corpus.retrievals.values()} == {n_docs}


class TestDeterminism:
    def test_same_seed_identical_files(self, tmp_path):
        spec = CorpusSpec(size=50)
        for name in ("a", "b"):
            make_synthetic_corpus(spec, seed=123).write(tmp_path / name)
        for fname in ("examples.jsonl", "retrievals.jsonl", "plan.jsonl"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_default_corpus_files_unchanged(self, tmp_path):
        """A default 5-document corpus keeps the bytes it had when its weights were fixed."""
        paths = make_synthetic_corpus(CorpusSpec(size=50), seed=7).write(tmp_path)
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for name, path in paths.items()}
        assert digests == {
            "examples": "cddfa111471ac8a33e6995cf905ed0fd925916745fc81a426f82c9137cb2a542",
            "plan": "30f0eda63d29f0b18d378ce2b17a0175fa68cf46096000d661806f1afe3f9d14",
            "retrievals": "74d59cf63cbf8b581e17b17e91b0742b4e48ac02e1569e7f9ac0b61e18248201",
        }

    def test_different_seed_differs(self):
        spec = CorpusSpec(size=50)
        a = make_synthetic_corpus(spec, seed=1)
        b = make_synthetic_corpus(spec, seed=2)
        assert a.intended_labels() != b.intended_labels()


class TestCorpusShape:
    def test_scores_load_without_monotonicity_warnings(self, tmp_path, caplog):
        corpus = make_synthetic_corpus(CorpusSpec(size=40), seed=3)
        paths = corpus.write(tmp_path)
        with caplog.at_level("WARNING"):
            load_retrievals(paths["retrievals"])
        assert not caplog.records

    def test_unanswerable_mass_near_expectation(self):
        corpus = make_synthetic_corpus(CorpusSpec(size=200), seed=11)
        unanswerable = sum(1 for e in corpus.plan if e.intended_label.is_unanswerable)
        # 10% mass on "none": the seeded draw should land near 20 of 200.
        assert 8 <= unanswerable <= 35

    def test_plan_roundtrip(self, tmp_path):
        corpus = make_synthetic_corpus(CorpusSpec(size=30), seed=5)
        path = tmp_path / "plan.jsonl"
        save_plan(path, corpus.plan)
        assert load_plan(path) == corpus.plan

    @pytest.mark.parametrize("change, message", [
        ({"closed_book": "false"}, 'closed_book must be bool, got "false"'),
        ({"evidence_rank": "3"}, 'evidence_rank must be int, got "3"'),
        ({"example_id": 5}, "example_id must be str, got 5"),
    ], ids=["closed-book-a-string", "evidence-rank-a-string", "example-id-an-int"])
    def test_plan_value_of_the_wrong_type_is_a_data_error(self, tmp_path, change, message):
        """A plan value is rejected, never converted: "false" would read as True."""
        path = tmp_path / "plan.jsonl"
        row = {"example_id": "q1", "label": 3, "evidence_rank": 3, "closed_book": False}
        path.write_text(json.dumps(row) + "\n" + json.dumps({**row, **change}) + "\n")
        with pytest.raises(DataError, match=re.escape(f"plan.jsonl line 2: {message}")):
            load_plan(path)

    def test_closed_book_depth_supported(self):
        weights = {"0": 0.5, "1": 0.5}
        corpus = make_synthetic_corpus(CorpusSpec(size=40, depth_weights=weights), seed=2)
        closed = corpus.closed_book_ids()
        assert closed
        for entry in corpus.plan:
            if entry.closed_book:
                assert entry.intended_label.k == 0
                assert entry.evidence_rank is None

    def test_evidence_placed_at_planned_rank_only(self):
        corpus = make_synthetic_corpus(CorpusSpec(size=60), seed=8)
        golds = corpus.golds_by_id()
        for entry in corpus.plan:
            retrieval = corpus.retrievals[entry.example_id]
            gold = golds[entry.example_id][0]
            hits = [d.rank for d in retrieval.docs if gold in d.text]
            if entry.evidence_rank is None:
                assert hits == []
            else:
                assert hits == [entry.evidence_rank]


class TestAnnotationAgainstPlan:
    def test_annotation_reproduces_plan(self):
        weights = {"0": 0.15, "1": 0.25, "2": 0.2, "3": 0.15, "4": 0.1, "5": 0.05, "none": 0.1}
        corpus = make_synthetic_corpus(CorpusSpec(size=80, depth_weights=weights), seed=21)
        dataset = join_dataset(corpus.examples, corpus.retrievals)
        triplets, _ = annotate_dataset(dataset, mock_client_for(corpus))
        intended = corpus.intended_labels()
        mismatches = [t.example_id for t in triplets if t.label != intended[t.example_id]]
        assert mismatches == []

    def test_confusion_threshold_changes_annotations(self):
        corpus = make_synthetic_corpus(CorpusSpec(size=40), seed=4)
        dataset = join_dataset(corpus.examples, corpus.retrievals)
        client = mock_client_for(corpus, MockOracleConfig(confusion_threshold=2))
        triplets, _ = annotate_dataset(dataset, client)
        # Deep evidence (rank > 2) can no longer be used: 2+ distractors break generation.
        for t in triplets:
            if not t.label.is_unanswerable:
                assert t.label.k <= 2
