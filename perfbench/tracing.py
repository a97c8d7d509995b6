"""Outside-in instrumentation of a study: generation meters and layer spans.

Nothing here edits ragtrim. ``MeteredClient`` wraps each generator client
the study builds and counts lookups, backend requests, retries and billed
prompt tokens. ``Recorder`` replaces module attributes that the stages look
up at call time with wrappers that record one span per call; spans stay in
memory until the study ends.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

# (module, attribute, span name, index of the argument carrying the example).
# A span's layer is the part of its name before the first dot.
LAYER_SPANS = (
    ("ragtrim.pipeline", "load_examples", "data.load", None),
    ("ragtrim.pipeline", "load_retrievals", "data.load", None),
    ("ragtrim.pipeline", "load_triplets", "data.load", None),
    ("ragtrim.pipeline", "load_plan", "synth.load_plan", None),
    ("ragtrim.pipeline", "build_generator", "pipeline.build_generator", None),
    ("ragtrim.pipeline", "compress", "compress.compress", 0),
    ("ragtrim.pipeline", "only_doc_select", "compress.only_doc", 0),
    ("ragtrim.pipeline", "score_output", "metrics.score", None),
    ("ragtrim.annotate", "assemble_prompt", "compress.assemble", 0),
    ("ragtrim.annotate", "judge_correct", "metrics.judge", None),
    ("ragtrim.predictor", "extract_features", "features.extract", 0),
    ("ragtrim.predictor", "predict_k", "predictor.predict", 1),
)

LAYERS = (
    "synth", "data", "features", "predictor", "compress",
    "generation", "metrics", "annotate", "pipeline",
)


class AttemptCounter:
    """Stands in for an HTTP client's session; counts POST attempts and backoff waits."""

    def __init__(self, session):
        self.session = session
        self.posts = 0
        self.backoff_s = 0.0
        self.last_failure_end: float | None = None

    def post(self, *args, **kwargs):
        start = time.perf_counter()
        if self.last_failure_end is not None:
            self.backoff_s += start - self.last_failure_end
            self.last_failure_end = None
        self.posts += 1
        try:
            response = self.session.post(*args, **kwargs)
        except Exception:
            self.last_failure_end = time.perf_counter()
            raise
        if response.status_code >= 500:
            self.last_failure_end = time.perf_counter()
        return response


class MeteredClient:
    """Generator client wrapper that counts what reached the backend.

    A lookup is a backend request unless the wrapped client's ``cache_hits``
    rose during it; the mock has no cache, so each of its lookups is one.
    Attributes it does not define (``calls``, ``cache_hits``) read through to
    the wrapped client, so run manifests are unchanged.
    """

    def __init__(self, inner, stage: str):
        self.inner = inner
        self.stage = stage
        self.lookups = 0
        self.backend_requests = 0
        self.billed_tokens = 0
        self.failed = 0
        self.attempts = None
        if hasattr(inner, "session"):
            self.attempts = inner.session = AttemptCounter(inner.session)

    def generate(self, prompt):
        hits = getattr(self.inner, "cache_hits", 0)
        if self.attempts is not None:
            self.attempts.last_failure_end = None
        self.lookups += 1
        try:
            text = self.inner.generate(prompt)
        except Exception:
            self.failed += 1
            raise
        if getattr(self.inner, "cache_hits", 0) == hits:
            self.backend_requests += 1
            self.billed_tokens += len(prompt.text.split())
        return text

    def fingerprint(self) -> str:
        return self.inner.fingerprint()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def counters(self) -> dict:
        calls = getattr(self.inner, "calls", 0)
        cache_hits = getattr(self.inner, "cache_hits", 0)
        posts = self.attempts.posts if self.attempts else 0
        return {
            "stage": self.stage,
            "lookups": self.lookups,
            "backend_requests": self.backend_requests,
            "billed_tokens": self.billed_tokens,
            "failed": self.failed,
            "client_calls": calls,
            "client_cache_hits": cache_hits,
            # Each lookup that missed the cache posts once, plus once per retry.
            "retries": posts - (self.lookups - cache_hits) if self.attempts else 0,
            "backoff_s": self.attempts.backoff_s if self.attempts else 0.0,
        }


class NullRecorder:
    """Untraced runs: calls go straight through."""

    def wrap(self, name, fn, example_arg=None):
        return fn


class Recorder:
    """In-memory spans: name, start, end, parent span and example id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.examples: list[str] = []
        self._open: list[int] = []

    def wrap(self, name, fn, example_arg=None):
        """``fn`` recording a span per call; the example id comes from argument
        ``example_arg`` (an object with ``id`` or ``query_id``), else from the parent."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, examples, open_spans = self.parents, self.examples, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else -1
            if example_arg is not None:
                carrier = args[example_arg]
                example = getattr(carrier, "id", None) or carrier.query_id
            else:
                example = examples[parent] if parent >= 0 else ""
            index = len(names)
            names.append(name)
            parents.append(parent)
            examples.append(example)
            ends.append(0.0)
            open_spans.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()

        return traced

    def install_layer_spans(self, sgd_batch_rows: int) -> None:
        import importlib

        import ragtrim.predictor

        for module_name, attr, span, example_arg in LAYER_SPANS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(span, getattr(module, attr), example_arg))

        # train() calls loss_and_grad once per minibatch and once per epoch on all rows.
        loss_and_grad = ragtrim.predictor.loss_and_grad
        step = self.wrap("predictor.sgd_step", loss_and_grad)
        epoch = self.wrap("predictor.epoch_loss", loss_and_grad)

        def by_rows(weights, x, *args, **kwargs):
            return (step if len(x) <= sgd_batch_rows else epoch)(weights, x, *args, **kwargs)

        ragtrim.predictor.loss_and_grad = by_rows

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\texample\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}"
                    f"\t{self.parents[i]}\t{self.examples[i]}\n"
                )

    def summary(self) -> dict:
        """Per-layer metrics from the spans of one study (root span named ``study``)."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[i]
        by_name: dict[str, list[float]] = {}
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.names):
            by_name.setdefault(name, []).append(durations[i])
            if name != "study":
                self_by_layer[name.split(".", 1)[0]] += durations[i] - child_time[i]
        root = self.names.index("study")

        def total(*names: str) -> float:
            return sum(sum(by_name.get(name, ())) for name in names)

        def count(*names: str) -> int:
            return sum(len(by_name.get(name, ())) for name in names)

        sgd_steps = by_name.get("predictor.sgd_step", ())
        generate = sorted(by_name.get("generation.generate", ()))
        quantiles = statistics.quantiles(generate, n=100)
        predict_calls = count("predictor.predict")
        metrics = {
            "metrics.score_s": total("metrics.score"),
            "metrics.score_calls": count("metrics.score"),
            "metrics.judge_s": total("metrics.judge"),
            "predictor.train_s": total("predictor.train"),
            "predictor.sgd_steps": len(sgd_steps),
            "predictor.sgd_step_us": 1e6 * sum(sgd_steps) / len(sgd_steps) if sgd_steps else 0.0,
            "predictor.predict_calls": predict_calls,
            "predictor.predict_us": (
                1e6 * total("predictor.predict") / predict_calls if predict_calls else 0.0
            ),
            "features.extract_calls": count("features.extract"),
            "features.extract_s": total("features.extract"),
            "compress.calls": count("compress.compress", "compress.only_doc", "compress.assemble"),
            "compress.s": total("compress.compress", "compress.only_doc", "compress.assemble"),
            "compress.only_doc_s": total("compress.only_doc"),
            "data.load_s": total("data.load"),
            "generation.lookups": len(generate),
            "generation.s": sum(generate),
            "generation.p50_ms": 1e3 * quantiles[49],
            "generation.p99_ms": 1e3 * quantiles[98],
            "pipeline.annotate_s": total("annotate.dataset"),
            "pipeline.run_s": total("pipeline.run"),
            "pipeline.sweep_s": total("pipeline.sweep"),
            "pipeline.eval_predictor_s": total("predictor.evaluate"),
            "trace.unattributed_s": durations[root] - child_time[root],
            "trace.spans": n,
        }
        for layer, seconds in self_by_layer.items():
            metrics[f"{layer}.self_s"] = seconds
        return metrics
