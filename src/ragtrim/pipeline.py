"""End-to-end runs: method comparison tables, document-count sweeps, confusion reports.

A run is driven by one JSON config with sections {datasets, generator,
predictors, methods, output_dir}. Every run writes a manifest (config hash,
seeds, fingerprints, generator-call accounting) alongside its tables so
results are reproducible artifacts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .compress import (
    FALLBACK_TO_N,
    FALLBACK_TO_ZERO,
    TEMPLATES,
    CompressedContext,
    compress,
    only_doc_select,
    save_contexts,
)
from .data import (
    CompressionLabel,
    JoinedDataset,
    join_dataset,
    load_examples,
    load_retrievals,
    load_triplets,
)
from .generation import (
    GeneratorClient,
    HttpGeneratorClient,
    HttpGeneratorConfig,
    JudgeMode,
    MockOracleClient,
    MockOracleConfig,
)
from .metrics import (
    EvalReport,
    ExampleResult,
    aggregate,
    answer_relevance_scores,
    score_output,
    specificity_split,
)
from .predictor import (
    FixedKPredictor,
    PredictorReport,
    RandomKPredictor,
    RemotePredictorClient,
    RemotePredictorConfig,
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


class ConfigError(ValueError):
    """Bad or incomplete run configuration, raised before any generation call."""


def parse_config(cls, raw, where: str, keys: Mapping[str, str] | None = None):
    """Build the config dataclass ``cls`` from the JSON object ``raw`` at key path ``where``.

    An unknown or missing key, a wrong JSON type or a failed ``__post_init__``
    check is a ConfigError naming the key path (``generator.max_retries``). An
    int for a float field becomes that float, so hashes and cache keys stay put.
    ``keys`` names the JSON key of each field whose key is not its name.
    """
    keys = keys or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {raw!r}")
    hints = typing.get_type_hints(cls)
    prefix = f"{where}." if where else ""
    values = {}
    for key, value in raw.items():
        if key not in hints:
            raise ConfigError(f"unknown key {prefix}{key}")
        values[key] = _typed(value, hints[key], prefix + keys.get(key, key))
    for f in fields(cls):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key {prefix}{keys.get(f.name, f.name)}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where or 'config'}: {exc}") from exc


def _typed(value, hint, path: str):
    """``value`` checked against the field type ``hint``, with ints widened to float."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        for arm in typing.get_args(hint):
            try:
                return _typed(value, arm, path)
            except ConfigError:
                pass
    else:
        base = typing.get_origin(hint) or hint
        args = typing.get_args(hint)
        if base is float and type(value) is int:
            return float(value)
        if isinstance(value, base) and (base is bool or not isinstance(value, bool)):
            if base is list and args:
                return [_typed(v, args[0], f"{path}[{i}]") for i, v in enumerate(value)]
            if args:  # a mapping
                return {k: _typed(v, args[1], f"{path}.{k}") for k, v in value.items()}
            return value
    raise ConfigError(f"{path} must be {getattr(hint, '__name__', hint)}, got {json.dumps(value)}")


# The run-config JSON key of each PipelineConfig field that has another name.
_JSON_KEYS = {
    "examples_path": "datasets.examples",
    "retrievals_path": "datasets.retrievals",
    "triplets_path": "datasets.triplets",
    "example_format": "datasets.format",
    "template_id": "template",
}


@dataclass
class PipelineConfig:
    examples_path: str
    retrievals_path: str
    methods: list[str]
    triplets_path: str | None = None
    example_format: str = "qa"
    generator: dict = field(default_factory=lambda: {"type": "mock"})
    predictors: list[dict] = field(default_factory=list)
    judge: str = "em"
    template_id: str = "qa_default"
    fallback: str = FALLBACK_TO_N
    seed: int = 0
    output_dir: str | None = None
    split_by_answer_relevance: bool = False
    export_contexts: bool = False

    def __post_init__(self) -> None:
        try:
            JudgeMode.parse(self.judge)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.fallback not in (FALLBACK_TO_N, FALLBACK_TO_ZERO):
            raise ConfigError(f"unknown fallback policy {self.fallback!r}")
        if self.template_id not in TEMPLATES:
            raise ConfigError(f"unknown template {self.template_id!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """The run config from its JSON form (keys in the README's "Run config")."""
        if not isinstance(raw, dict) or not isinstance(raw.get("datasets", {}), dict):
            raise ConfigError("the config and its datasets section must be JSON objects")
        flat = {f"datasets.{key}": value for key, value in raw.get("datasets", {}).items()}
        flat.update((key, value) for key, value in raw.items() if key != "datasets")
        if not flat.get("methods"):
            raise ConfigError("config must list at least one method")
        names = {key: name for name, key in _JSON_KEYS.items()}
        values = {}
        for key, value in flat.items():
            if key in _JSON_KEYS:
                raise ConfigError(f"unknown key {key}")
            values[names.get(key, key)] = value
        return parse_config(cls, values, "", _JSON_KEYS)

    def config_hash(self) -> str:
        payload = json.dumps(
            {
                "datasets": {
                    "examples": self.examples_path,
                    "retrievals": self.retrievals_path,
                    "triplets": self.triplets_path,
                    "format": self.example_format,
                },
                "generator": self.generator,
                "predictors": self.predictors,
                "methods": self.methods,
                "judge": self.judge,
                "template": self.template_id,
                "fallback": self.fallback,
                "seed": self.seed,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    config = PipelineConfig.from_dict(raw)
    base = Path(path).parent
    config.examples_path = _resolve(base, config.examples_path, "datasets.examples")
    config.retrievals_path = _resolve(base, config.retrievals_path, "datasets.retrievals")
    if config.triplets_path:
        config.triplets_path = _resolve(base, config.triplets_path, "datasets.triplets")
    if config.generator.get("closed_book_plan"):
        config.generator = dict(config.generator)
        config.generator["closed_book_plan"] = _resolve(
            base, config.generator["closed_book_plan"], "generator.closed_book_plan"
        )
    for i, entry in enumerate(config.predictors):
        if entry.get("type", "model") == "model" and entry.get("path"):
            entry["path"] = _resolve(base, entry["path"], f"predictors[{i}].path")
    if config.output_dir:
        out = Path(config.output_dir)
        config.output_dir = str(out if out.is_absolute() else base / out)
    return config


def _resolve(base: Path, p, where: str) -> str:
    """The path string ``p`` of key ``where``, taken relative to the config's directory."""
    path = Path(_typed(p, str, where))
    return str(path if path.is_absolute() else base / path)


def validate_paths(config: PipelineConfig) -> None:
    """Fail fast on missing inputs, before anything touches a generator."""
    required = [config.examples_path, config.retrievals_path]
    if config.triplets_path:
        required.append(config.triplets_path)
    if config.generator.get("closed_book_plan"):
        required.append(config.generator["closed_book_plan"])
    for entry in config.predictors:
        if entry.get("type", "model") == "model":
            required.append(entry.get("path", ""))
    for p in required:
        if not p or not Path(p).exists():
            raise ConfigError(f"missing referenced file: {p!r}")
    if not config.methods:
        raise ConfigError("config must list at least one method")
    if METHOD_ORACLE in config.methods and not config.triplets_path:
        raise ConfigError("oracle method requires datasets.triplets")
    if METHOD_ADAPTIVE in config.methods and not config.predictors:
        raise ConfigError("adaptive method requires at least one configured predictor")


def build_generator(config: PipelineConfig, dataset: JoinedDataset) -> GeneratorClient:
    gen = dict(config.generator)
    gen_type = gen.pop("type", "mock")
    if gen_type == "mock":
        plan_path = gen.pop("closed_book_plan", None)
        mock_config = parse_config(MockOracleConfig, {"seed": config.seed, **gen}, "generator")
        golds = {ex.id: ex.gold_answers for ex, _ in dataset}
        plan = load_plan(plan_path) if plan_path else []
        closed_book = [e.example_id for e in plan if e.closed_book]
        return MockOracleClient(mock_config, golds_by_id=golds, closed_book_ids=closed_book)
    if gen_type == "http":
        if not gen.get("endpoint_url"):
            raise ConfigError("http generator requires endpoint_url")
        return HttpGeneratorClient(parse_config(HttpGeneratorConfig, gen, "generator"))
    raise ConfigError(f"unknown generator type {gen_type!r}")


@dataclass(frozen=True)
class _ModelEntry:
    """The settings of a ``model`` predictor entry."""

    path: str


def _build_predictor(entry: dict, where: str, max_n: int):
    settings = {key: value for key, value in entry.items() if key not in ("name", "type")}
    kind = entry.get("type", "model")
    if kind == "model":
        path = parse_config(_ModelEntry, settings, where).path
        model = load_model(path)
        if model.feature_spec.max_docs < max_n:
            raise ConfigError(
                f"{where}: model {path} takes at most "
                f"{model.feature_spec.max_docs} documents, but the dataset has N={max_n}"
            )
        return model
    if kind == "remote":
        return RemotePredictorClient(parse_config(RemotePredictorConfig, settings, where))
    raise ConfigError(f"unknown predictor type {kind!r}")


@dataclass
class MethodResult:
    name: str
    report: EvalReport
    results: list[ExampleResult]
    generator_calls: int
    cache_hits: int
    fingerprint: str
    contexts: list[CompressedContext] = field(default_factory=list)
    reused: int = 0  # rows served from an earlier identical prompt of the same example


# Per-row generation counters; the manifest records each per method and as a total.
_RUN_COUNTERS = ("generator_calls", "cache_hits", "reused")


@dataclass
class RunResult:
    methods: list[MethodResult]
    manifest: dict

    def by_name(self) -> dict[str, MethodResult]:
        return {m.name: m for m in self.methods}


def _load(config: PipelineConfig):
    """Validate, load and join the configured dataset; returns (dataset, retrievals)."""
    validate_paths(config)
    examples = load_examples(config.examples_path, config.example_format)
    retrievals = load_retrievals(config.retrievals_path)
    return join_dataset(examples, retrievals), retrievals


def _evaluate(
    rows: Sequence[tuple[str, Callable | None, str]],
    dataset: JoinedDataset,
    client: GeneratorClient,
    config: PipelineConfig,
    splits: dict[str, str] | None = None,
) -> list[MethodResult]:
    """Generate and score every (row_name, labeler, fingerprint) row, example-major.

    Within one example, a label is compressed only the first time a row
    returns it, and a prompt goes to the client only the first time a row
    produces it; later rows with the same prompt text reuse that output. An
    output is scored only the first time a row of the example returns it: the
    example's gold answers fix every metric, so later rows copy the metrics
    and keep their own token_count and k. Each labeler still runs once per
    example in dataset order (seeded draws keep their sequence) and each
    row's results keep dataset order. A labeler of None selects the only_doc
    context; a label of None skips the example.
    """
    methods = [
        MethodResult(name, report=None, results=[], generator_calls=0, cache_hits=0,
                     fingerprint=fingerprint)  # report: aggregated once every example is scored
        for name, _, fingerprint in rows
    ]
    for example, retrieval in dataset:
        contexts: dict[CompressionLabel, CompressedContext] = {}  # for this example only
        outputs: dict[str, str] = {}  # prompt text -> output, for this example only
        scored: dict[str, ExampleResult] = {}  # output -> its scores, for this example only
        split = splits.get(example.id) if splits else None
        for (_, labeler, _), m in zip(rows, methods):
            if labeler is None:
                ctx = only_doc_select(example, retrieval, config.template_id)
            else:
                label = labeler(example, retrieval)
                if label is None:
                    continue
                if label not in contexts:
                    contexts[label] = compress(
                        example, retrieval, label, config.fallback, config.template_id
                    )
                ctx = contexts[label]
            output = outputs.get(ctx.prompt.text)
            if output is None:
                hits_before = getattr(client, "cache_hits", 0)
                output = outputs[ctx.prompt.text] = client.generate(ctx.prompt)
                m.generator_calls += 1
                m.cache_hits += getattr(client, "cache_hits", 0) - hits_before
            else:
                m.reused += 1
            result = scored.get(output)
            if result is None:
                result = scored[output] = score_output(
                    example.id, output, example.gold_answers, ctx.token_count, ctx.k, split=split
                )
            else:
                result = replace(result, token_count=ctx.token_count, k=ctx.k)
            m.results.append(result)
            if config.export_contexts:
                m.contexts.append(ctx)
    for m in methods:
        m.report = aggregate(m.results)
    return methods


def run_pipeline(config: PipelineConfig) -> RunResult:
    """Run every configured method over the dataset and aggregate one table."""
    dataset, retrievals = _load(config)
    client = build_generator(config, dataset)

    oracle_labels: dict[str, CompressionLabel] = {}
    if config.triplets_path:
        for t in load_triplets(config.triplets_path, retrievals):
            oracle_labels[t.example_id] = t.label

    splits = None
    if config.split_by_answer_relevance:
        splits = {}
        for example, retrieval in dataset:
            scores = answer_relevance_scores(
                [d.text for d in retrieval.docs], example.gold_answers
            )
            splits[example.id] = specificity_split(scores)

    rows = [row for m in config.methods for row in _method_rows(m, config, oracle_labels, dataset)]
    method_results = _evaluate(rows, dataset, client, config, splits)
    manifest = {
        "config_sha256": config.config_hash(),
        "seed": config.seed,
        "judge": config.judge,
        "generator_fingerprint": client.fingerprint(),
        "methods": [m.name for m in method_results],
        "method_fingerprints": {m.name: m.fingerprint for m in method_results},
        **{key: sum(getattr(m, key) for m in method_results) for key in _RUN_COUNTERS},
        "per_method": {
            m.name: {key: getattr(m, key) for key in _RUN_COUNTERS} for m in method_results
        },
        "n_examples": len(dataset),
        "dropped_example_ids": dataset.dropped_ids,
    }
    run = RunResult(methods=method_results, manifest=manifest)
    if config.output_dir:
        write_run_outputs(run, config)
    return run


def _method_rows(method: str, config: PipelineConfig, oracle_labels, dataset: JoinedDataset):
    """Expand one method name into (row_name, labeler, fingerprint) rows."""
    top_k = _TOP_K_RE.match(method)
    if top_k or method == METHOD_NO_RETRIEVAL:
        predictor = FixedKPredictor(int(top_k.group(1)) if top_k else 0)
        return [(method, predictor.predict_label, predictor.fingerprint())]
    if method == METHOD_TOP_RANDOM:
        min_n = min(retrieval.n for _, retrieval in dataset)
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
        rows = []
        max_n = max(retrieval.n for _, retrieval in dataset)
        for i, entry in enumerate(config.predictors):
            predictor = _build_predictor(entry, f"predictors[{i}]", max_n)
            row_name = _typed(entry.get("name", METHOD_ADAPTIVE), str, f"predictors[{i}].name")
            rows.append((row_name, predictor.predict_label, predictor.fingerprint()))
        return rows
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
    if config.export_contexts:
        for m in run.methods:
            if m.contexts:
                save_contexts(out / f"contexts_{m.name}.jsonl", m.contexts)


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
    dataset, _ = _load(config)
    client = build_generator(config, dataset)
    max_k = min(retrieval.n for _, retrieval in dataset)
    rows = [
        row for k in range(max_k + 1) for row in _method_rows(f"top_{k}", config, {}, dataset)
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
    "build_generator",
    "run_pipeline",
    "sweep_document_count",
    "format_table_csv",
    "write_run_outputs",
    "render_confusion",
    "confusion_csv",
    "report_confusion",
]
