"""End-to-end runs: method comparison tables, document-count sweeps, confusion reports.

A run is driven by one JSON config with sections {datasets, generator,
predictors, methods, train, output_dir}. Every run writes a manifest (config hash,
seeds, fingerprints, generator-call accounting) alongside its tables so
results are reproducible artifacts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .compress import FALLBACK_TO_N, FALLBACK_TO_ZERO, compress, only_doc_select
from .data import (
    AnnotatedTriplet,
    ConfigError,
    JoinedDataset,
    QAExample,
    RetrievalSet,
    join_dataset,
    load_examples,
    load_retrievals,
    load_triplets,
    _typed,
    parse_config,
    read_json_object,
)
from .features import FeatureSpec
from .generation import (
    GeneratorClient,
    HttpGeneratorBackend,
    HttpGeneratorConfig,
    JudgeMode,
    MockOracleBackend,
    MockOracleConfig,
    Search,
    take_turns,
)
from .metrics import EvalReport, ExampleResult, aggregate, score_output
from .predictor import (
    POLICY_DROP,
    UNANSWERABLE_POLICIES,
    FixedKPredictor,
    PredictorReport,
    RandomKPredictor,
    TrainConfig,
    load_model,
)
from .synth import load_plan

logger = logging.getLogger(__name__)

_TOP_K_RE = re.compile(r"^top_(\d+)$")

METHOD_NO_RETRIEVAL = "no_retrieval"
METHOD_TOP_RANDOM = "top_random"
METHOD_ONLY_DOC = "only_doc"
METHOD_ADAPTIVE = "adaptive"
METHOD_ORACLE = "oracle"


@dataclass
class PipelineConfig:
    examples_path: str = field(metadata={"json": "datasets.examples"})
    retrievals_path: str = field(metadata={"json": "datasets.retrievals"})
    methods: list[str] = field(default_factory=list)
    triplets_path: str | None = field(default=None, metadata={"json": "datasets.triplets"})
    example_format: str = field(default="qa", metadata={"json": "datasets.format"})
    generator: dict = field(default_factory=lambda: {"type": "mock"})
    predictors: list[dict] = field(default_factory=list)
    judge: str = "em"
    fallback: str = FALLBACK_TO_N
    seed: int = 0
    output_dir: str | None = None
    train: dict = field(default_factory=dict)  # read by train_options; not in config_hash

    def __post_init__(self) -> None:
        try:
            JudgeMode.parse(self.judge)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.fallback not in (FALLBACK_TO_N, FALLBACK_TO_ZERO):
            raise ConfigError(f"unknown fallback policy {self.fallback!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """The run config from its JSON form (keys in the README's "Run config")."""
        if not isinstance(raw, dict) or not isinstance(raw.get("datasets", {}), dict):
            raise ConfigError("the config and its datasets section must be JSON objects")
        flat = {f"datasets.{key}": value for key, value in raw.get("datasets", {}).items()}
        flat.update((key, value) for key, value in raw.items() if key != "datasets")
        return parse_config(cls, flat, "")

    def config_hash(self) -> str:
        payload = json.dumps(
            {
                "datasets": {
                    "examples": self.examples_path,
                    "retrievals": self.retrievals_path,
                    "triplets": self.triplets_path,
                    "format": self.example_format,
                },
                # The width of the requests in flight changes no output.
                "generator": {k: v for k, v in self.generator.items() if k != "max_in_flight"},
                "predictors": self.predictors,
                "methods": self.methods,
                "judge": self.judge,
                # The prompt layout follows the format. The entry stays so that every config
                # that is still valid keeps its config_sha256, and so its manifest.json.
                "template": "conversational" if self.example_format == "conversational"
                else "qa_default",
                "fallback": self.fallback,
                "seed": self.seed,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    """The run config in the file at ``path``, its paths taken relative to that file.

    Every key is checked, those of each ``predictors`` entry and of ``train``
    too, but no dataset, triplets or model file is opened: annotation reads
    this config before its triplets and models exist.
    """
    config = PipelineConfig.from_dict(read_json_object(path))
    base = Path(path).parent
    config.examples_path = _resolve(base, config.examples_path, "datasets.examples")
    config.retrievals_path = _resolve(base, config.retrievals_path, "datasets.retrievals")
    if config.triplets_path:
        config.triplets_path = _resolve(base, config.triplets_path, "datasets.triplets")
    for key in ("closed_book_plan", "cache_dir"):
        if config.generator.get(key):
            config.generator[key] = _resolve(base, config.generator[key], f"generator.{key}")
    for i, entry in enumerate(config.predictors):
        if entry.get("type", "model") == "model" and entry.get("path"):
            entry["path"] = _resolve(base, entry["path"], f"predictors[{i}].path")
    if config.output_dir:
        out = Path(config.output_dir)
        config.output_dir = str(out if out.is_absolute() else base / out)
    build_predictors(config)
    train_options(config)
    return config


def _resolve(base: Path, p, where: str) -> str:
    """The path string ``p`` of key ``where``, taken relative to the config's directory."""
    path = Path(_typed(p, str, where))
    return str(path if path.is_absolute() else base / path)


def load_inputs(
    config: PipelineConfig, with_triplets: bool = False
) -> tuple[JoinedDataset, list[AnnotatedTriplet] | None]:
    """The joined dataset of ``config`` and, given ``with_triplets``, its annotated triplets.

    A missing or malformed file is a DataError; triplets asked for while
    ``datasets.triplets`` is unset are a ConfigError.
    """
    if with_triplets and not config.triplets_path:
        raise ConfigError(
            "the oracle method, train-predictor and eval-predictor read datasets.triplets, "
            "which is unset"
        )
    examples = load_examples(config.examples_path, config.example_format)
    retrievals = load_retrievals(config.retrievals_path)
    triplets = load_triplets(config.triplets_path, retrievals) if with_triplets else None
    return join_dataset(examples, retrievals), triplets


def train_options(config: PipelineConfig) -> dict:
    """The ``train`` section as keyword arguments of ``predictor.train``, every key checked.

    It takes the fields of TrainConfig and FeatureSpec and ``unanswerable_policy``.
    """
    raw = dict(config.train)
    policy = raw.pop("unanswerable_policy", POLICY_DROP)
    if policy not in UNANSWERABLE_POLICIES:
        raise ConfigError(f"train.unanswerable_policy must be one of {UNANSWERABLE_POLICIES}")
    spec_keys = {f.name for f in fields(FeatureSpec)}
    return {
        "config": parse_config(TrainConfig, {k: raw[k] for k in raw.keys() - spec_keys}, "train"),
        "feature_spec": parse_config(
            FeatureSpec, {k: raw[k] for k in raw.keys() & spec_keys}, "train"
        ),
        "unanswerable_policy": policy,
    }


def build_generator(config: PipelineConfig, dataset: JoinedDataset) -> GeneratorClient:
    gen = dict(config.generator)
    gen_type = gen.pop("type", "mock")
    if gen_type == "mock":
        plan_path = gen.pop("closed_book_plan", None)
        mock_config = parse_config(MockOracleConfig, {"seed": config.seed, **gen}, "generator")
        golds = {ex.id: ex.gold_answers for ex, _ in dataset}
        plan = load_plan(plan_path) if plan_path else []
        closed_book = [e.example_id for e in plan if e.closed_book]
        return GeneratorClient(MockOracleBackend(mock_config, golds, closed_book))
    if gen_type == "http":
        if not gen.get("endpoint_url"):
            raise ConfigError("http generator requires endpoint_url")
        http = parse_config(HttpGeneratorConfig, gen, "generator")
        return GeneratorClient(HttpGeneratorBackend(http), http.cache_dir, http.max_in_flight)
    raise ConfigError(f"unknown generator type {gen_type!r}")


@dataclass(frozen=True)
class _ModelEntry:
    """The settings of a ``model`` predictor entry."""

    path: str


def build_predictors(config: PipelineConfig, max_n: int | None = None) -> list[tuple[str, object]]:
    """(row name, predictor) of each ``predictors`` entry, with every key checked.

    ``model`` is the one predictor type. Only given ``max_n``, the dataset's largest
    document count, is an entry's file opened and its ``max_docs`` checked; else its
    predictor is None.
    """
    built = []
    for i, entry in enumerate(config.predictors):
        where = f"predictors[{i}]"
        name = _typed(entry.get("name", METHOD_ADAPTIVE), str, f"{where}.name")
        if (kind := entry.get("type", "model")) != "model":
            raise ConfigError(f"{where}: unknown predictor type {kind!r}")
        settings = {key: value for key, value in entry.items() if key not in ("name", "type")}
        path = parse_config(_ModelEntry, settings, where).path
        predictor = None
        if max_n is not None:
            predictor = load_model(path)
            if predictor.feature_spec.max_docs < max_n:
                raise ConfigError(
                    f"{where}: model {path} takes at most {predictor.feature_spec.max_docs} "
                    f"documents, but the dataset has N={max_n}"
                )
        built.append((name, predictor))
    return built


@dataclass
class MethodResult:
    name: str
    report: EvalReport
    results: list[ExampleResult]
    generator_calls: int
    cache_hits: int
    fingerprint: str
    reused: int = 0  # rows served from an earlier identical prompt of the same example
    skipped: int = 0  # examples the row's labeler gave no label (an oracle row's missing ones)


# Per-row generation counters; the manifest records each per method and as a total.
# Every row has generator_calls + reused + skipped == n_examples.
_RUN_COUNTERS = ("generator_calls", "cache_hits", "reused", "skipped")

@dataclass
class RunResult:
    methods: list[MethodResult]
    manifest: dict

    def by_name(self) -> dict[str, MethodResult]:
        return {m.name: m for m in self.methods}


def _evaluate(
    rows: Sequence[tuple[str, Callable | None, str]],
    dataset: JoinedDataset,
    client: GeneratorClient,
    config: PipelineConfig,
) -> list[MethodResult]:
    """Generate and score every (row_name, labeler, fingerprint) row, one search per example.

    The searches take turns in ``generation.take_turns``. Each runs every row's
    labeler when it starts, so labelers run once per example in dataset order and
    seeded draws keep their sequence; a labeler of None selects the only_doc
    context. It compresses each label, in the order the rows first return them,
    keeps of each context only its prompt's text, token_count and k, and yields
    the distinct prompts at once. Then, label by label, it counts the
    generate of a prompt for the first label that produced its text (a later one
    is reused) and scores the output unless an earlier label returned it (the
    gold answers fix every metric; token_count and k are the label's own). Each
    row's results are kept by dataset position.
    """
    methods = [  # results by position; report: once every example is scored
        MethodResult(name, report=None, results=[None] * len(dataset), generator_calls=0,
                     cache_hits=0, fingerprint=fingerprint)
        for name, _, fingerprint in rows
    ]

    def search(position: int, example: QAExample, retrieval: RetrievalSet) -> Search:
        labelled: dict[object, list[MethodResult]] = {}  # label -> its rows, in row order
        for (_, labeler, _), m in zip(rows, methods):
            label = METHOD_ONLY_DOC if labeler is None else labeler(example, retrieval)
            if label is None:
                m.skipped += 1
            else:
                labelled.setdefault(label, []).append(m)
        contexts = [only_doc_select(example, retrieval) if label == METHOD_ONLY_DOC
                    else compress(example, retrieval, label, config.fallback)
                    for label in labelled]
        prompts = {ctx.prompt.text: ctx.prompt for ctx in contexts}  # distinct
        costs = [(ctx.prompt.text, ctx.token_count, ctx.k) for ctx in contexts]  # by label
        del contexts  # the line holds the distinct prompts; no context waits in it
        answers = dict(zip(prompts, (yield tuple(prompts.values())))) if prompts else {}
        scored: dict[str, ExampleResult] = {}  # output -> its scores
        for (first, *others), (text, token_count, k) in zip(labelled.values(), costs):
            output, hits = answers[text]
            if hits is None:
                first.reused += 1
            else:
                answers[text] = output, None  # counted: a later label reuses it
                first.generator_calls += 1
                first.cache_hits += hits
            result = scored.get(output)
            if result is None:
                result = scored[output] = score_output(example.id, output, example.gold_answers,
                                                       token_count, k)
            else:
                result = replace(result, token_count=token_count, k=k)
            for m in (first, *others):
                m.results[position] = result
            for m in others:
                m.reused += 1

    take_turns(client, (search(position, *pair) for position, pair in enumerate(dataset.pairs)))
    for m in methods:
        m.results = [result for result in m.results if result is not None]
        m.report = aggregate(m.results)
    return methods


def run_pipeline(config: PipelineConfig) -> RunResult:
    """Run every configured method over the dataset and aggregate one table."""
    if not config.methods:
        raise ConfigError("config must list at least one method")
    if METHOD_ADAPTIVE in config.methods and not config.predictors:
        raise ConfigError("adaptive method requires at least one configured predictor")
    dataset, triplets = load_inputs(config, with_triplets=METHOD_ORACLE in config.methods)
    predictors = build_predictors(config, max(retrieval.n for _, retrieval in dataset))
    oracle_labels = {t.example_id: t.label for t in triplets or ()}
    rows = [
        row
        for m in config.methods
        for row in _method_rows(m, config, dataset, oracle_labels, predictors)
    ]
    client = build_generator(config, dataset)
    method_results = _evaluate(rows, dataset, client, config)
    per_method = {m.name: {key: getattr(m, key) for key in _RUN_COUNTERS} for m in method_results}
    manifest = {
        "config_sha256": config.config_hash(),
        "seed": config.seed,
        "judge": config.judge,
        "generator_fingerprint": client.fingerprint(),
        "methods": [m.name for m in method_results],
        "method_fingerprints": {m.name: m.fingerprint for m in method_results},
        **{key: sum(getattr(m, key) for m in method_results) for key in _RUN_COUNTERS},
        "per_method": per_method,
        "n_examples": len(dataset),
        "dropped_example_ids": dataset.dropped_ids,
    }
    run = RunResult(methods=method_results, manifest=manifest)
    if config.output_dir:
        write_run_outputs(run, config)
    return run


def _method_rows(method: str, config: PipelineConfig, dataset: JoinedDataset, oracle_labels,
                 predictors):
    """Expand one method name into (row_name, labeler, fingerprint) rows.

    ``predictors`` are the (row name, predictor) pairs of ``build_predictors``. A
    ``top_k`` above the dataset's smallest document count is a ConfigError.
    """
    min_n = min(retrieval.n for _, retrieval in dataset)
    top_k = _TOP_K_RE.match(method)
    if top_k or method == METHOD_NO_RETRIEVAL:
        predictor = FixedKPredictor(int(top_k.group(1)) if top_k else 0)
        if predictor.k > min_n:
            raise ConfigError(f"method {method} keeps {predictor.k} documents, "
                              f"but an example has only N={min_n}")
        return [(method, predictor.predict_label, predictor.fingerprint())]
    if method == METHOD_TOP_RANDOM:
        predictor = RandomKPredictor(config.seed, k_range=range(1, min_n + 1))
        return [(method, predictor.predict_label, predictor.fingerprint())]
    if method == METHOD_ONLY_DOC:
        return [(method, None, "only_doc")]
    if method == METHOD_ORACLE:
        def oracle_labeler(example, retrieval):
            label = oracle_labels.get(example.id)
            if label is None:
                logger.warning("oracle method: no annotated label for %s; skipping", example.id)
            return label

        return [(method, oracle_labeler, "oracle:annotated")]
    if method == METHOD_ADAPTIVE:
        return [(name, p.predict_label, p.fingerprint()) for name, p in predictors]
    raise ConfigError(f"unknown method {method!r}")


_TABLE_COLUMNS = ("method", "n", "avg_docs", "mean_tokens", "em", "f1", "rouge_1", "rouge_2", "rouge_l")


def format_table_csv(methods: Sequence[MethodResult]) -> str:
    lines = [",".join(_TABLE_COLUMNS)]
    for m in methods:
        r = m.report
        lines.append(
            f"{m.name},{r.n},{r.avg_docs:.2f},{r.mean_tokens:.2f},"
            f"{r.em:.4f},{r.f1:.4f},{r.rouge_1:.4f},{r.rouge_2:.4f},{r.rouge_l:.4f}"
        )
    return "\n".join(lines) + "\n"


def write_run_outputs(run: RunResult, config: PipelineConfig) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "table.csv").write_text(format_table_csv(run.methods), encoding="utf-8")
    for name, payload in (
        ("reports.json", {m.name: m.report.to_dict() for m in run.methods}),
        ("manifest.json", run.manifest),
    ):
        (out / name).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


# ---------------------------------------------------------------------------
# Document-count sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepPoint:
    k: int
    em: float
    f1: float
    mean_tokens: float
    n: int


def sweep_document_count(config: PipelineConfig) -> list[SweepPoint]:
    """Evaluate every fixed prefix size k = 0..N; k=0 is the closed-book rate."""
    dataset, _ = load_inputs(config)
    client = build_generator(config, dataset)
    max_k = min(retrieval.n for _, retrieval in dataset)
    rows = [
        row for k in range(max_k + 1) for row in _method_rows(f"top_{k}", config, dataset, {}, [])
    ]
    points = [
        SweepPoint(k=k, em=r.em, f1=r.f1, mean_tokens=r.mean_tokens, n=r.n)
        for k, r in enumerate(m.report for m in _evaluate(rows, dataset, client, config))
    ]

    if config.output_dir:
        _write_sweep_outputs(points, Path(config.output_dir))
    return points


_SWEEP_COLUMNS = ("k", "n", "mean_tokens", "em", "f1")


def _write_sweep_outputs(points: Sequence[SweepPoint], out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(_SWEEP_COLUMNS)]
    lines += [f"{p.k},{p.n},{p.mean_tokens:.2f},{p.em:.4f},{p.f1:.4f}" for p in points]
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rows = [{column: getattr(p, column) for column in _SWEEP_COLUMNS} for p in points]
    (out / "sweep.json").write_text(json.dumps(rows, indent=2), encoding="utf-8")


# ---------------------------------------------------------------------------
# Confusion rendering
# ---------------------------------------------------------------------------

FULL_SCALE_REFERENCE = (
    "Reference point for full-scale runs: predictor accuracy around 65%, "
    "with predictions typically within 2 classes of the true value."
)


def render_confusion(report: PredictorReport) -> str:
    """Plain-text confusion matrix (rows = true class, cols = predicted)."""
    labels = [str(c) for c in report.class_list]
    width = max(6, max(len(l) for l in labels) + 1)
    header = "true\\pred".ljust(10) + "".join(l.rjust(width) for l in labels)
    lines = [header]
    for label, row in zip(labels, report.confusion):
        lines.append(label.ljust(10) + "".join(str(v).rjust(width) for v in row))
    lines.append(f"accuracy: {report.accuracy:.4f}  (n={report.n})")
    for m in sorted(report.margin_fractions):
        lines.append(f"P(|pred - true| <= {m}): {report.margin_fractions[m]:.4f}")
    lines.append(FULL_SCALE_REFERENCE)
    return "\n".join(lines)


def confusion_csv(report: PredictorReport) -> str:
    """Confusion matrix as CSV (first column = true class, headers = predicted)."""
    labels = [str(c) for c in report.class_list]
    lines = ["true_class," + ",".join(labels)]
    for label, row in zip(labels, report.confusion):
        lines.append(label + "," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def report_confusion(report: PredictorReport, out_path: str | Path | None = None) -> dict:
    """Confusion matrix, accuracy, and margin table as a JSON-ready dict."""
    payload = {
        "class_list": [str(c) for c in report.class_list],
        "confusion": report.confusion,
        "accuracy": report.accuracy,
        "margin_fractions": {str(m): f for m, f in sorted(report.margin_fractions.items())},
        "n": report.n,
        "reference_note": FULL_SCALE_REFERENCE,
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return payload


__all__ = [
    "ConfigError",
    "PipelineConfig",
    "MethodResult",
    "RunResult",
    "SweepPoint",
    "load_pipeline_config",
    "load_inputs",
    "train_options",
    "read_json_object",
    "build_generator",
    "build_predictors",
    "run_pipeline",
    "sweep_document_count",
    "format_table_csv",
    "write_run_outputs",
    "render_confusion",
    "confusion_csv",
    "report_confusion",
]
