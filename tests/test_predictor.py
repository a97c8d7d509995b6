"""Feature extraction, softmax classifier training and baselines."""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragtrim.data import (
    AnnotatedTriplet,
    CompressionLabel,
    DataError,
    JoinedDataset,
    QAExample,
    RankedDocument,
    RetrievalSet,
)
from ragtrim.features import FeatureSpec, extract_features
from ragtrim.predictor import (
    FeatureSpecMismatch,
    FixedKPredictor,
    PredictorModel,
    RandomKPredictor,
    TrainConfig,
    build_class_list,
    evaluate_predictor,
    load_model,
    loss_and_grad,
    predict_k,
    save_model,
    softmax,
    train,
)
from helpers import make_example, make_retrieval

SPEC5 = FeatureSpec(max_docs=5)


class TestFeatures:
    def test_wh_one_hot_and_token_count(self):
        x = extract_features(make_example(query="who wrote Hamlet"), make_retrieval(), SPEC5)
        assert x[0] == 3.0  # query token count
        assert list(x[1:8]) == [1, 0, 0, 0, 0, 0, 0]  # who

    def test_non_wh_query_maps_to_other(self):
        x = extract_features(make_example(query="name the author"), make_retrieval(), SPEC5)
        assert list(x[1:8]) == [0, 0, 0, 0, 0, 0, 1]

    def test_score_block_arithmetic(self):
        retrieval = make_retrieval(
            texts=[f"doc {i}" for i in range(5)], scores=[0.9, 0.7, 0.5, 0.3, 0.1]
        )
        x = extract_features(make_example(), retrieval, SPEC5)
        n_idx = 8
        assert x[n_idx] == 5.0
        scores = list(x[n_idx + 1 : n_idx + 6])
        gaps = list(x[n_idx + 6 : n_idx + 10])
        stats = list(x[n_idx + 10 : n_idx + 13])
        assert scores == pytest.approx([0.9, 0.7, 0.5, 0.3, 0.1])
        assert gaps == pytest.approx([0.2, 0.2, 0.2, 0.2])
        assert stats == pytest.approx([0.9, 0.1, 0.5])

    def test_padding_below_max_docs(self):
        retrieval = make_retrieval(texts=["a b", "c d", "e f"], scores=[0.9, 0.8, 0.7])
        x = extract_features(make_example(), retrieval, SPEC5)
        scores = list(x[9:14])
        assert scores == pytest.approx([0.9, 0.8, 0.7, 0.0, 0.0])
        overlaps = list(x[21:26])
        lengths = list(x[26:31])
        assert overlaps[3:] == [0.0, 0.0]
        assert lengths[3:] == [0.0, 0.0]

    def test_dimensions_and_finiteness(self):
        assert SPEC5.dim == 32
        x = extract_features(make_example(), make_retrieval(), SPEC5)
        assert x.shape == (32,)
        assert np.all(np.isfinite(x))
        assert x[-1] == 1.0  # bias

    def test_history_flattened_into_lexical_features(self):
        bare = make_example(query="and when")
        chatty = make_example(
            query="and when", history=(("user", "tell me about the tall tower"),)
        )
        retrieval = make_retrieval()
        x_bare = extract_features(bare, retrieval, SPEC5)
        x_chatty = extract_features(chatty, retrieval, SPEC5)
        assert x_chatty[0] > x_bare[0]

    def test_too_many_docs_rejected(self):
        retrieval = make_retrieval(texts=[f"doc {i}" for i in range(5)])
        with pytest.raises(ValueError, match="feature spec"):
            extract_features(make_example(), retrieval, FeatureSpec(max_docs=3))

    def test_spec_hash_changes_with_max_docs(self):
        assert FeatureSpec(4).spec_hash() != FeatureSpec(5).spec_hash()


def model_with_bias_logits(bias_logits, policy="drop"):
    """Model whose logits equal bias_logits for every input (only the bias column set)."""
    class_list = build_class_list(SPEC5, policy)
    assert len(bias_logits) == len(class_list)
    weights = np.zeros((len(class_list), SPEC5.dim))
    weights[:, -1] = bias_logits
    return PredictorModel(
        weights=weights, class_list=class_list, feature_spec=SPEC5, unanswerable_policy=policy
    )


def model_probs(model):
    """The class distribution predict_k takes its argmax over."""
    return softmax(model.weights @ extract_features(make_example(), make_retrieval(), SPEC5))


class TestSoftmaxPredict:
    def test_zero_weights_give_uniform(self):
        model = model_with_bias_logits([0.0] * 6)
        assert model_probs(model) == pytest.approx([1 / 6] * 6, abs=1e-12)
        assert predict_k(model, make_example(), make_retrieval()) == CompressionLabel.keep(0)

    def test_peaked_logits(self):
        model = model_with_bias_logits([10.0, 0, 0, 0, 0, 0])
        probs = model_probs(model)
        assert int(np.argmax(probs)) == 0
        assert probs[0] > 0.99
        assert predict_k(model, make_example(), make_retrieval()) == CompressionLabel.keep(0)

    @settings(max_examples=100)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8))
    def test_distribution_normalized(self, logits):
        probs = softmax(np.array(logits))
        assert abs(float(np.sum(probs)) - 1.0) <= 1e-9
        assert np.all(probs >= 0)

    @settings(max_examples=100)
    @given(
        st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8),
        st.floats(min_value=-100, max_value=100),
    )
    def test_shift_invariance(self, logits, c):
        base = softmax(np.array(logits))
        shifted = softmax(np.array(logits) + c)
        assert np.max(np.abs(base - shifted)) <= 1e-12


class TestPredictK:
    def test_peaked_class(self):
        model = model_with_bias_logits([0, 0, 9.0, 0, 0, 0])
        label = predict_k(model, make_example(), make_retrieval())
        assert label == CompressionLabel.keep(2)

    def test_exact_tie_prefers_smaller_k(self):
        model = model_with_bias_logits([-50.0, 5.0, -50.0, -50.0, 5.0, -50.0])
        label = predict_k(model, make_example(), make_retrieval())
        assert label == CompressionLabel.keep(1)

    def test_unanswerable_class_argmax(self):
        model = model_with_bias_logits([0, 0, 0, 0, 0, 0, 8.0], policy="own_class")
        label = predict_k(model, make_example(), make_retrieval())
        assert label.is_unanswerable


class TestLossAndGradient:
    def test_uniform_init_loss_is_log_classes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 7))
        y = rng.integers(0, 6, size=12)
        loss, _ = loss_and_grad(np.zeros((6, 7)), x, y, l2_penalty=0.0)
        assert loss == pytest.approx(math.log(6), abs=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(10):
            n_classes = int(rng.integers(2, 7))
            n_features = int(rng.integers(2, 11))
            batch = int(rng.integers(1, 9))
            weights = rng.normal(scale=0.5, size=(n_classes, n_features))
            x = rng.normal(size=(batch, n_features))
            y = rng.integers(0, n_classes, size=batch)
            l2 = float(rng.uniform(0, 1e-3))
            _, grad = loss_and_grad(weights, x, y, l2)
            numeric = np.zeros_like(weights)
            for i in range(n_classes):
                for j in range(n_features):
                    bump = np.zeros_like(weights)
                    bump[i, j] = h
                    up, _ = loss_and_grad(weights + bump, x, y, l2)
                    down, _ = loss_and_grad(weights - bump, x, y, l2)
                    numeric[i, j] = (up - down) / (2 * h)
            rel = np.linalg.norm(grad - numeric) / max(
                np.linalg.norm(grad), np.linalg.norm(numeric), 1e-12
            )
            assert rel < 1e-6


def bucketed_dataset(seed=42, n=240, n_classes=6, jitter=0.005):
    """Triplets whose label is the bucket of the rank-1 score (margin-separated)."""
    rng = random.Random(seed)
    pairs, triplets = [], []
    for i in range(n):
        label = rng.randrange(n_classes)
        center = (2 * label + 1) / (2 * n_classes)
        s1 = center + rng.uniform(-jitter, jitter)
        scores = [s1 * f for f in (1.0, 0.9, 0.8, 0.7, 0.6)]
        docs = tuple(
            RankedDocument(doc_id=f"e{i}-d{r}", text=f"filler {i} {r}", score=s, rank=r)
            for r, s in enumerate(scores, 1)
        )
        ex = QAExample(id=f"e{i:03d}", query=f"what about item {i}", gold_answers=(f"ans{i}",))
        pairs.append((ex, RetrievalSet(query_id=ex.id, docs=docs)))
        triplets.append(AnnotatedTriplet(ex.id, ex.id, CompressionLabel.keep(label), "g"))
    return JoinedDataset(pairs=pairs), triplets


class TestTrain:
    def test_zero_learning_rate_leaves_weights_unchanged(self):
        ds, triplets = bucketed_dataset(n=24)
        model, _ = train(triplets, ds, TrainConfig(learning_rate=0.0, epochs=3))
        assert np.array_equal(model.weights, np.zeros_like(model.weights))

    def test_single_class_rejected(self):
        ds, triplets = bucketed_dataset(n=24)
        same = [
            AnnotatedTriplet(t.example_id, t.query_id, CompressionLabel.keep(2), "g")
            for t in triplets
        ]
        with pytest.raises(ValueError, match="single class"):
            train(same, ds)

    def test_bucketed_scores_reach_95_percent(self):
        ds, triplets = bucketed_dataset()
        config = TrainConfig(learning_rate=0.5, epochs=200, l2_penalty=0.0, seed=0)
        model, report = train(triplets, ds, config)
        assert report.final_train_accuracy >= 0.95
        assert len(report.epoch_losses) == 200

    def test_bit_identical_reruns(self):
        ds, triplets = bucketed_dataset(n=60)
        config = TrainConfig(epochs=20, seed=9)
        a, _ = train(triplets, ds, config)
        b, _ = train(triplets, ds, config)
        assert np.array_equal(a.weights, b.weights)

    def test_nonfinite_loss_aborts_with_diagnostics(self):
        ds, triplets = bucketed_dataset(n=24)
        with pytest.raises(RuntimeError, match="non-finite"):
            train(triplets, ds, TrainConfig(learning_rate=1e12, epochs=5, l2_penalty=0.0))

    def test_unanswerable_rows_dropped_by_default(self):
        ds, triplets = bucketed_dataset(n=30)
        triplets = triplets[:-3] + [
            AnnotatedTriplet(t.example_id, t.query_id, CompressionLabel.unanswerable(), "g")
            for t in triplets[-3:]
        ]
        _, report = train(triplets, ds, TrainConfig(epochs=2))
        assert report.dropped_unanswerable == 3
        assert report.n_rows == 27

    def test_map_to_n_policy_keeps_rows(self):
        ds, triplets = bucketed_dataset(n=30)
        triplets = triplets[:-3] + [
            AnnotatedTriplet(t.example_id, t.query_id, CompressionLabel.unanswerable(), "g")
            for t in triplets[-3:]
        ]
        model, report = train(triplets, ds, TrainConfig(epochs=2), unanswerable_policy="map_to_N")
        assert report.n_rows == 30
        assert evaluate_predictor(model, triplets, ds).per_class["5"]["support"] >= 3


class TestEvaluate:
    def test_perfect_predictor_is_diagonal(self):
        ds, triplets = bucketed_dataset()
        config = TrainConfig(learning_rate=0.5, epochs=200, l2_penalty=0.0, seed=0)
        model, report = train(triplets, ds, config)
        assert report.final_train_accuracy == 1.0
        rep = evaluate_predictor(model, triplets, ds)
        assert rep.accuracy == 1.0
        matrix = np.array(rep.confusion)
        assert matrix.sum() == np.trace(matrix)
        assert rep.margin_fractions == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_confusion_matches_independent_tally(self):
        ds, triplets = bucketed_dataset(n=120, jitter=0.2)  # deliberately noisy
        model, _ = train(triplets, ds, TrainConfig(epochs=30, seed=2))
        rep = evaluate_predictor(model, triplets, ds)
        # Re-count every (true, pred) pair without the report machinery.
        tally = np.zeros((len(rep.class_list), len(rep.class_list)), dtype=int)
        index = ds.index()
        for t in triplets:
            example, retrieval = index[t.example_id]
            pred = model.predict_label(example, retrieval)
            tally[rep.class_list.index(t.label.k), rep.class_list.index(pred.k)] += 1
        assert tally.tolist() == rep.confusion
        assert rep.accuracy == pytest.approx(np.trace(tally) / tally.sum())

    def test_margin_fractions_all_off_by_three(self):
        ds, triplets = bucketed_dataset(n=20)
        always_three = model_with_bias_logits([0, 0, 0, 9.0, 0, 0])
        zeros = [
            AnnotatedTriplet(t.example_id, t.query_id, CompressionLabel.keep(0), "g")
            for t in triplets
        ]
        rep = evaluate_predictor(always_three, zeros, ds)
        assert rep.margin_fractions == {0: 0.0, 1: 0.0, 2: 0.0}

    def test_per_class_precision_recall(self):
        ds, triplets = bucketed_dataset(n=20)
        always_three = model_with_bias_logits([0, 0, 0, 9.0, 0, 0])
        rep = evaluate_predictor(always_three, triplets, ds)
        threes = sum(1 for t in triplets if t.label.k == 3)
        assert rep.per_class["3"]["recall"] == 1.0 if threes else True
        assert rep.per_class["3"]["precision"] == pytest.approx(threes / len(triplets))


class TestBaselines:
    def test_fixed_k_constant(self):
        predictor = FixedKPredictor(5)
        retrieval = make_retrieval(texts=[f"d{i}" for i in range(5)])
        assert predictor.predict_label(make_example(), retrieval) == CompressionLabel.keep(5)

    def test_fixed_k_out_of_range(self):
        with pytest.raises(ValueError):
            FixedKPredictor(-1)
        predictor = FixedKPredictor(6)
        with pytest.raises(ValueError, match="out of range"):
            predictor.predict_label(make_example(), make_retrieval(texts=["a"] * 5))

    def test_random_k_same_seed_same_sequence(self):
        retrieval = make_retrieval(texts=[f"d{i}" for i in range(5)])
        a = RandomKPredictor(seed=7, k_range=range(1, 6))
        b = RandomKPredictor(seed=7, k_range=range(1, 6))
        seq_a = [a.predict_label(make_example(), retrieval).k for _ in range(50)]
        seq_b = [b.predict_label(make_example(), retrieval).k for _ in range(50)]
        assert seq_a == seq_b
        assert set(seq_a) <= {1, 2, 3, 4, 5}

    def test_random_k_range_validated(self):
        with pytest.raises(ValueError):
            RandomKPredictor(seed=1, k_range=[])
        predictor = RandomKPredictor(seed=1, k_range=range(1, 7))
        with pytest.raises(ValueError, match="exceeds N"):
            predictor.predict_label(make_example(), make_retrieval(texts=["a"] * 5))


def model_payload() -> dict:
    """The JSON object save_model writes for an untrained model of the default layout."""
    spec = FeatureSpec()
    classes = list(build_class_list(spec, "drop"))
    return {"feature_spec_hash": spec.spec_hash(), "feature_spec": {"max_docs": spec.max_docs},
            "class_list": classes, "weights": [[0.0] * spec.dim for _ in classes],
            "unanswerable_policy": "drop", "train_config": asdict(TrainConfig()), "metrics": {}}


class TestPersistence:
    def test_round_trip_preserves_predictions(self, tmp_path):
        ds, triplets = bucketed_dataset(n=60)
        model, _ = train(triplets, ds, TrainConfig(epochs=20, seed=1))
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.class_list == model.class_list
        assert loaded.train_config == model.train_config
        for example, retrieval in ds.pairs[:10]:
            assert loaded.predict_label(example, retrieval) == model.predict_label(
                example, retrieval
            )

    def test_tampered_hash_rejected(self, tmp_path):
        ds, triplets = bucketed_dataset(n=24)
        model, _ = train(triplets, ds, TrainConfig(epochs=2))
        path = tmp_path / "model.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        payload["feature_spec_hash"] = "feedfacefeedface"
        path.write_text(json.dumps(payload))
        with pytest.raises(FeatureSpecMismatch):
            load_model(path)

    @pytest.mark.parametrize("change, message", [
        ({"unanswerable_policy": "bogus"}, "unknown unanswerable_policy 'bogus'"),
        ({"unanswerable_policy": "own_class"}, "class_list .* does not match"),
        ({"class_list": [1, 0, 2, 3, 4, 5]}, "class_list .* does not match"),
    ], ids=["unknown-policy", "policy-without-its-class", "reordered-classes"])
    def test_policy_and_class_list_checked(self, tmp_path, change, message):
        ds, triplets = bucketed_dataset(n=24)
        model, _ = train(triplets, ds, TrainConfig(epochs=2))
        path = tmp_path / "model.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        payload.update(change)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=message):
            load_model(path)

    @pytest.mark.parametrize("key, value, message", [
        ("feature_spec", {"max_docs": 5.9},
         "model.json: feature_spec.max_docs must be int, got 5.9"),
        ("train_config", {**asdict(TrainConfig()), "epochs": 3.5},
         "model.json: train_config.epochs must be int, got 3.5"),
    ], ids=["model-max-docs-a-float", "model-epochs-a-float"])
    def test_value_of_the_wrong_type_is_a_data_error(self, tmp_path, key, value, message):
        """A bad model value is rejected, never converted: 5.9 would read as 5."""
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**model_payload(), key: value}))
        with pytest.raises(DataError, match=re.escape(message)):
            load_model(path)

    def test_model_file_schema(self, tmp_path):
        ds, triplets = bucketed_dataset(n=24)
        model, _ = train(triplets, ds, TrainConfig(epochs=2))
        path = tmp_path / "model.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        for key in ("feature_spec_hash", "class_list", "weights", "train_config", "metrics"):
            assert key in payload
