"""Compression-rate predictor: map (query, retrieval set) to a document count.

A multiclass linear softmax classifier over explicit lexical/retrieval
features, trained with minibatch SGD on cross-entropy. Fixed and random
baselines share the same predict interface.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (
    AnnotatedTriplet,
    CompressionLabel,
    ConfigError,
    DataError,
    JoinedDataset,
    QAExample,
    RetrievalSet,
    _typed,
    parse_config,
    read_json_object,
)
from .features import FeatureSpec, extract_features

UNANSWERABLE_CLASS = "unanswerable"

POLICY_DROP = "drop"
POLICY_MAP_TO_N = "map_to_N"
POLICY_OWN_CLASS = "own_class"
UNANSWERABLE_POLICIES = (POLICY_DROP, POLICY_MAP_TO_N, POLICY_OWN_CLASS)


class FeatureSpecMismatch(DataError):
    """A model file was saved under a different feature layout."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    batch_size: int = 8
    epochs: int = 100
    warmup_fraction: float = 0.1
    seed: int = 0
    l2_penalty: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("learning_rate", "l2_penalty"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError(f"warmup_fraction must be in [0, 1], got {self.warmup_fraction}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")


@dataclass
class PredictorModel:
    """Weight matrix over feature vectors, one row per compression-rate class."""

    weights: np.ndarray  # shape (num_classes, feature_dim)
    class_list: tuple  # ints ascending, optionally UNANSWERABLE_CLASS last
    feature_spec: FeatureSpec
    unanswerable_policy: str = POLICY_DROP
    train_config: TrainConfig | None = None
    metrics: dict = field(default_factory=dict)

    @property
    def feature_spec_hash(self) -> str:
        return self.feature_spec.spec_hash()

    def predict_label(self, example: QAExample, retrieval: RetrievalSet) -> CompressionLabel:
        return predict_k(self, example, retrieval)

    def fingerprint(self) -> str:
        digest = hashlib.sha256(self.weights.tobytes())
        digest.update(self.feature_spec_hash.encode("utf-8"))
        return f"model:{digest.hexdigest()[:12]}"


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def predict_k(
    model: PredictorModel, example: QAExample, retrieval: RetrievalSet
) -> CompressionLabel:
    """Argmax class, ties broken toward the smallest k (cheapest context).

    The class list is ordered smallest-k first with the unanswerable class
    last, so the first maximum wins ties.
    """
    probs = softmax(model.weights @ extract_features(example, retrieval, model.feature_spec))
    winner = model.class_list[int(np.argmax(probs))]
    if winner == UNANSWERABLE_CLASS:
        return CompressionLabel.unanswerable()
    return CompressionLabel.keep(int(winner))


def loss_and_grad(
    weights: np.ndarray, x: np.ndarray, y_idx: np.ndarray, l2_penalty: float = 0.0
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy (plus L2 on the weights) and its analytic gradient.

    x has shape (batch, feature_dim); y_idx holds true class indices.
    """
    logits = x @ weights.T
    probs = softmax(logits)
    batch = x.shape[0]
    with np.errstate(divide="ignore"):  # log(0) -> -inf surfaces as a non-finite loss
        nll = -np.mean(np.log(probs[np.arange(batch), y_idx]))
    loss = nll + l2_penalty * float(np.sum(weights**2))
    return float(loss), gradient(weights, x, y_idx, l2_penalty)


def gradient(
    weights: np.ndarray, x: np.ndarray, y_idx: np.ndarray, l2_penalty: float = 0.0
) -> np.ndarray:
    """The gradient of loss_and_grad's loss, without computing the loss (one SGD step)."""
    probs = softmax(x @ weights.T)
    batch = x.shape[0]
    # probs - one_hot(y_idx) in place: subtracting the zeros is exact, so it is skipped.
    probs[np.arange(batch), y_idx] -= 1.0
    return probs.T @ x / batch + 2.0 * l2_penalty * weights


@dataclass
class TrainReport:
    epoch_losses: list[float]
    final_train_accuracy: float
    n_rows: int
    dropped_unanswerable: int = 0


def _class_index(class_list: tuple, label: CompressionLabel, policy: str, n_docs: int) -> int | None:
    """Map a label to its class index under the unanswerable policy; None = drop row."""
    if label.is_unanswerable:
        if policy == POLICY_DROP:
            return None
        if policy == POLICY_MAP_TO_N:
            return class_list.index(n_docs)
        return class_list.index(UNANSWERABLE_CLASS)
    return class_list.index(label.k)


def build_class_list(feature_spec: FeatureSpec, unanswerable_policy: str) -> tuple:
    classes: list = list(range(feature_spec.max_docs + 1))
    if unanswerable_policy == POLICY_OWN_CLASS:
        classes.append(UNANSWERABLE_CLASS)
    return tuple(classes)


def _labelled_rows(
    triplets: Sequence[AnnotatedTriplet], dataset: JoinedDataset, class_list: tuple, policy: str
) -> tuple[list[tuple[QAExample, RetrievalSet, int]], int]:
    """Each kept triplet's (example, retrieval, class index) in triplet order, and
    how many rows the unanswerable policy dropped."""
    index = dataset.index()
    rows = []
    for triplet in triplets:
        if triplet.example_id not in index:
            raise DataError(f"triplet example {triplet.example_id} missing from dataset")
        example, retrieval = index[triplet.example_id]
        y = _class_index(class_list, triplet.label, policy, retrieval.n)
        if y is not None:
            rows.append((example, retrieval, y))
    return rows, len(triplets) - len(rows)


def train(
    triplets: Sequence[AnnotatedTriplet],
    dataset: JoinedDataset,
    config: TrainConfig = TrainConfig(),
    feature_spec: FeatureSpec = FeatureSpec(),
    unanswerable_policy: str = POLICY_DROP,
) -> tuple[PredictorModel, TrainReport]:
    """Minibatch SGD on multiclass cross-entropy with seeded shuffling.

    Weights start at zero (uniform output distribution). The learning rate
    ramps linearly over the warmup fraction of total steps. Training is
    bit-deterministic for a fixed config.
    """
    if unanswerable_policy not in UNANSWERABLE_POLICIES:
        raise ValueError(f"unknown unanswerable_policy {unanswerable_policy!r}")
    class_list = build_class_list(feature_spec, unanswerable_policy)
    rows, dropped = _labelled_rows(triplets, dataset, class_list, unanswerable_policy)
    if not rows:
        raise ValueError("no trainable rows after applying the unanswerable policy")
    x = np.stack([extract_features(example, retrieval, feature_spec)
                  for example, retrieval, _ in rows])
    y = np.array([idx for _, _, idx in rows], dtype=np.int64)
    distinct = np.unique(y)
    if distinct.size < 2:
        raise ValueError(f"training data has a single class ({distinct.tolist()}); need >= 2")

    weights = np.zeros((len(class_list), feature_spec.dim), dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    n = x.shape[0]
    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = max(1, steps_per_epoch * config.epochs)
    warmup_steps = max(1, int(round(config.warmup_fraction * total_steps)))

    epoch_losses: list[float] = []
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            grad = gradient(weights, x[batch], y[batch], config.l2_penalty)
            lr = config.learning_rate * min(1.0, (step + 1) / warmup_steps)
            weights -= lr * grad
            step += 1
        epoch_loss, _ = loss_and_grad(weights, x, y, config.l2_penalty)
        if not np.isfinite(epoch_loss):
            raise RuntimeError(
                f"non-finite loss at epoch {len(epoch_losses) + 1}; "
                f"lr={config.learning_rate}, weight max={np.max(np.abs(weights))}"
            )
        epoch_losses.append(epoch_loss)

    predictions = np.argmax(x @ weights.T, axis=1)
    accuracy = float(np.mean(predictions == y))

    model = PredictorModel(
        weights=weights,
        class_list=class_list,
        feature_spec=feature_spec,
        unanswerable_policy=unanswerable_policy,
        train_config=config,
        metrics={"train_accuracy": accuracy, "n_train": n},
    )
    report = TrainReport(
        epoch_losses=epoch_losses,
        final_train_accuracy=accuracy,
        n_rows=n,
        dropped_unanswerable=dropped,
    )
    return model, report


@dataclass
class PredictorReport:
    """Held-out evaluation: accuracy, per-class precision/recall, confusion, margins."""

    class_list: tuple[int | str, ...]
    confusion: list[list[int]]  # rows = true class, cols = predicted class
    accuracy: float
    margin_fractions: dict[int, float]
    n: int
    per_class: dict[str, dict[str, float]] = field(default_factory=dict)
    n_skipped: int = 0

    def to_dict(self) -> dict:
        return {
            "class_list": list(self.class_list),
            "confusion": self.confusion,
            "accuracy": self.accuracy,
            "per_class": self.per_class,
            "margin_fractions": {str(m): f for m, f in self.margin_fractions.items()},
            "n": self.n,
            "n_skipped": self.n_skipped,
        }


def _margin(true_cls, pred_cls) -> float:
    if true_cls == pred_cls:
        return 0.0
    if true_cls == UNANSWERABLE_CLASS or pred_cls == UNANSWERABLE_CLASS:
        return float("inf")
    return abs(int(true_cls) - int(pred_cls))


def evaluate_predictor(
    model: PredictorModel, triplets: Sequence[AnnotatedTriplet], dataset: JoinedDataset
) -> PredictorReport:
    """Score predictions against held-out labels.

    True labels pass through the model's unanswerable policy so the
    confusion matrix stays on the model's class axes.
    """
    if not triplets:
        raise ValueError("evaluate_predictor requires a non-empty held-out set")
    class_list = model.class_list
    rows, skipped = _labelled_rows(triplets, dataset, class_list, model.unanswerable_policy)
    n = len(rows)
    if n == 0:
        raise ValueError("no evaluable rows after applying the unanswerable policy")
    c = len(class_list)
    confusion = np.zeros((c, c), dtype=np.int64)
    for example, retrieval, true_idx in rows:
        # A predicted label is never dropped: an unanswerable one needs its own class.
        predicted = model.predict_label(example, retrieval)
        confusion[true_idx, _class_index(class_list, predicted, POLICY_OWN_CLASS, retrieval.n)] += 1
    accuracy = float(np.trace(confusion)) / n

    per_class: dict[str, dict[str, float]] = {}
    for i, cls in enumerate(class_list):
        tp = float(confusion[i, i])
        pred_total = float(confusion[:, i].sum())
        true_total = float(confusion[i, :].sum())
        per_class[str(cls)] = {
            "precision": tp / pred_total if pred_total else 0.0,
            "recall": tp / true_total if true_total else 0.0,
            "support": true_total,
        }

    distance = np.array([[_margin(t, p) for p in class_list] for t in class_list])
    margins = {m: int(confusion[distance <= m].sum()) / n for m in (0, 1, 2)}
    return PredictorReport(
        class_list=class_list,
        confusion=confusion.tolist(),
        accuracy=accuracy,
        per_class=per_class,
        margin_fractions=margins,
        n=n,
        n_skipped=skipped,
    )


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


class FixedKPredictor:
    """Always keeps the same number of documents."""

    def __init__(self, k: int):
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        self.k = k

    def predict_label(self, example: QAExample, retrieval: RetrievalSet) -> CompressionLabel:
        if self.k > retrieval.n:
            raise ValueError(f"k={self.k} out of range 0..{retrieval.n}")
        return CompressionLabel.keep(self.k)

    def fingerprint(self) -> str:
        return f"fixed:{self.k}"


class RandomKPredictor:
    """Uniform draw over k_range; the draw sequence is fixed by the seed."""

    def __init__(self, seed: int, k_range: Sequence[int] = range(1, 6)):
        self.k_range = tuple(k_range)
        if not self.k_range or any(k < 1 for k in self.k_range):
            raise ValueError(f"k_range must be a non-empty subset of 1..N, got {self.k_range}")
        self.seed = seed
        self._rng = random.Random(seed)

    def predict_label(self, example: QAExample, retrieval: RetrievalSet) -> CompressionLabel:
        if max(self.k_range) > retrieval.n:
            raise ValueError(f"k_range {self.k_range} exceeds N={retrieval.n}")
        return CompressionLabel.keep(self._rng.choice(self.k_range))

    def fingerprint(self) -> str:
        return f"random:{self.seed}:{self.k_range}"


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_model(path: str | Path, model: PredictorModel) -> None:
    payload = {
        "feature_spec_hash": model.feature_spec_hash,
        "feature_spec": {"max_docs": model.feature_spec.max_docs},
        "class_list": list(model.class_list),
        "weights": model.weights.tolist(),
        "unanswerable_policy": model.unanswerable_policy,
        "train_config": asdict(model.train_config) if model.train_config else None,
        "metrics": model.metrics,
    }
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_model(path: str | Path) -> PredictorModel:
    """The model ``save_model`` wrote; a missing key or a wrong type is a DataError
    naming the file and the key."""
    try:
        payload = read_json_object(path)
        feature_spec = parse_config(FeatureSpec, payload.get("feature_spec"),
                                    f"{path}: feature_spec")
        train_config = payload.get("train_config")
        if train_config is not None:
            train_config = parse_config(TrainConfig, train_config, f"{path}: train_config")
        rows = _typed(payload.get("weights"), list[list[float]], f"{path}: weights")
    except ConfigError as exc:  # a model file is data, not configuration
        raise DataError(str(exc)) from exc
    spec_hash = payload.get("feature_spec_hash")
    if spec_hash != feature_spec.spec_hash():
        raise FeatureSpecMismatch(
            f"model file hash {spec_hash} does not match "
            f"feature layout {feature_spec.spec_hash()}"
        )
    policy = payload.get("unanswerable_policy", POLICY_DROP)
    if policy not in UNANSWERABLE_POLICIES:
        raise DataError(f"model {path}: unknown unanswerable_policy {policy!r}")
    class_list = build_class_list(feature_spec, policy)
    if payload.get("class_list") != list(class_list):
        raise DataError(
            f"model {path}: class_list {payload.get('class_list')} does not match "
            f"max_docs {feature_spec.max_docs} and unanswerable_policy {policy!r}"
        )
    shape = (len(class_list), feature_spec.dim)
    if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
        raise DataError(f"model {path}: weights are not a {shape} matrix")
    return PredictorModel(
        weights=np.array(rows),
        class_list=class_list,
        feature_spec=feature_spec,
        unanswerable_policy=policy,
        train_config=train_config,
        metrics=payload.get("metrics", {}),
    )
