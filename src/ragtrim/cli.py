"""Command-line entry points: make-corpus, annotate, train-predictor, eval-predictor, run, sweep, report."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import pipeline
from .annotate import AnnotationAborted, AnnotationOptions, annotate_dataset
from .data import (
    DataError,
    join_dataset,
    load_examples,
    load_retrievals,
    load_triplets,
    save_triplets,
)
from .features import FeatureSpec
from .generation import JudgeMode
from .pipeline import (
    ConfigError,
    PipelineConfig,
    confusion_csv,
    load_pipeline_config,
    parse_config,
    render_confusion,
    report_confusion,
    run_pipeline,
    sweep_document_count,
)
from .predictor import (
    POLICY_DROP,
    UNANSWERABLE_POLICIES,
    PredictorReport,
    TrainConfig,
    evaluate_predictor,
    load_model,
    save_model,
    train,
)
from .synth import CorpusSpec, make_synthetic_corpus

logger = logging.getLogger(__name__)


def _cmd_make_corpus(args: argparse.Namespace) -> int:
    raw = json.loads(Path(args.spec).read_text(encoding="utf-8")) if args.spec else {}
    spec = parse_config(CorpusSpec, {"size": args.size, **raw}, "spec")
    corpus = make_synthetic_corpus(spec, seed=args.seed)
    paths = corpus.write(args.out_dir)
    histogram: dict[str, int] = {}
    for entry in corpus.plan:
        key = str(entry.intended_label.to_json())
        histogram[key] = histogram.get(key, 0) + 1
    print(f"wrote {len(corpus.examples)} examples under {args.out_dir}")
    print(f"intended label histogram: {json.dumps(histogram, sort_keys=True)}")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    examples = load_examples(args.examples, args.format)
    retrievals = load_retrievals(args.retrievals)
    dataset = join_dataset(examples, retrievals)
    if args.generator == "mock":
        generator = {"type": "mock", "closed_book_plan": args.mock_plan, "seed": args.mock_seed,
                     "confusion_threshold": args.confusion_threshold, "noise_rate": args.noise_rate}
    else:
        generator = {"type": "http", "endpoint_url": args.endpoint_url,
                     "model_name": args.model_name, "cache_dir": args.cache_dir,
                     "timeout_ms": args.timeout_ms, "max_retries": args.max_retries,
                     "api_key_env_var": args.api_key_env_var}
    config = PipelineConfig(args.examples, args.retrievals, methods=[], generator=generator,
                            judge=args.judge, template_id=args.template)
    client = pipeline.build_generator(config, dataset)
    options = AnnotationOptions(
        judge_mode=JudgeMode.parse(config.judge),
        include_k0=args.k0 == "on",
        template_id=config.template_id,
        failure_limit=args.failure_limit,
        workers=args.workers,
    )
    try:
        triplets, stats = annotate_dataset(dataset, client, options)
    except AnnotationAborted as exc:
        partial_path = Path(str(args.out) + ".partial")
        save_triplets(partial_path, exc.triplets)
        if args.stats:
            Path(args.stats).write_text(
                json.dumps(exc.stats.to_dict(), indent=2), encoding="utf-8"
            )
        print(f"ERROR: {exc}", file=sys.stderr)
        print(f"partial results retained at {partial_path}", file=sys.stderr)
        return 1
    save_triplets(args.out, triplets)
    if args.stats:
        Path(args.stats).write_text(json.dumps(stats.to_dict(), indent=2), encoding="utf-8")
    print(f"annotated {stats.annotated}/{stats.total_examples} examples -> {args.out}")
    print(f"label histogram: {json.dumps(stats.to_dict()['label_histogram'])}")
    print(f"generator calls: {stats.generator_calls}, cache hit rate: {stats.cache_hit_rate:.2%}")
    return 0


def _cmd_train_predictor(args: argparse.Namespace) -> int:
    raw = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    policy = raw.pop("unanswerable_policy", POLICY_DROP)
    if policy not in UNANSWERABLE_POLICIES:
        raise ConfigError(f"config.unanswerable_policy must be one of {UNANSWERABLE_POLICIES}")
    spec_keys = {f.name for f in dataclasses.fields(FeatureSpec)}
    feature_spec = parse_config(FeatureSpec, {k: raw[k] for k in raw.keys() & spec_keys}, "config")
    config = parse_config(TrainConfig, {k: raw[k] for k in raw.keys() - spec_keys}, "config")
    examples = load_examples(args.examples, args.format)
    retrievals = load_retrievals(args.retrievals)
    dataset = join_dataset(examples, retrievals)
    triplets = load_triplets(args.triplets, retrievals)
    model, report = train(
        triplets, dataset, config, feature_spec=feature_spec, unanswerable_policy=policy
    )
    save_model(args.out, model)
    print(f"trained on {report.n_rows} rows ({report.dropped_unanswerable} unanswerable dropped)")
    print(f"final train accuracy: {report.final_train_accuracy:.4f}")
    print(f"model -> {args.out}")
    return 0


def _cmd_eval_predictor(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    examples = load_examples(args.examples, args.format)
    retrievals = load_retrievals(args.retrievals)
    dataset = join_dataset(examples, retrievals)
    triplets = load_triplets(args.triplets, retrievals)
    report = evaluate_predictor(model, triplets, dataset)
    Path(args.report).write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")
    print(render_confusion(report))
    print(f"report -> {args.report}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_pipeline_config(args.config)
    run = run_pipeline(config)
    for m in run.methods:
        r = m.report
        print(
            f"{m.name:14s} n={r.n:4d} avg_docs={r.avg_docs:5.2f} "
            f"tokens={r.mean_tokens:8.2f} em={r.em:.4f} f1={r.f1:.4f}"
        )
    if config.output_dir:
        print(f"outputs -> {config.output_dir}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_pipeline_config(args.config)
    points = sweep_document_count(config)
    for p in points:
        print(f"k={p.k} em={p.em:.4f} f1={p.f1:.4f} tokens={p.mean_tokens:.2f}")
    if config.output_dir:
        print(f"outputs -> {config.output_dir}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    raw = json.loads(Path(args.report).read_text(encoding="utf-8"))
    report = PredictorReport(
        class_list=tuple(raw["class_list"]),
        confusion=raw["confusion"],
        accuracy=raw["accuracy"],
        per_class=raw.get("per_class", {}),
        margin_fractions={int(m): f for m, f in raw["margin_fractions"].items()},
        n=raw["n"],
        n_skipped=raw.get("n_skipped", 0),
    )
    print(render_confusion(report))
    if args.out:
        report_confusion(report, args.out)
        print(f"confusion -> {args.out}")
    if args.csv:
        Path(args.csv).write_text(confusion_csv(report), encoding="utf-8")
        print(f"confusion csv -> {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragtrim",
        description="Adaptive top-k context truncation for RAG: annotate, train, compress, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-corpus", help="generate a seeded synthetic corpus with a label plan")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spec", help="JSON file with {size, n_docs, depth_weights}")
    p.set_defaults(func=_cmd_make_corpus)

    p = sub.add_parser("annotate", help="label each example with its minimal document count")
    p.add_argument("--examples", required=True)
    p.add_argument("--retrievals", required=True)
    p.add_argument("--generator", choices=["mock", "http"], default="mock")
    p.add_argument("--judge", default="em", help="em, f1, or f1:<threshold>")
    p.add_argument("--k0", choices=["on", "off"], default="on")
    p.add_argument("--out", required=True)
    p.add_argument("--stats")
    p.add_argument("--format", choices=["qa", "conversational"], default="qa")
    p.add_argument("--template", default="qa_default")
    p.add_argument("--failure-limit", type=float, default=0.10)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--mock-plan", help="corpus plan JSONL supplying closed-book example ids")
    p.add_argument("--confusion-threshold", type=int, default=None)
    p.add_argument("--noise-rate", type=float, default=0.0)
    p.add_argument("--mock-seed", type=int, default=0)
    p.add_argument("--endpoint-url")
    p.add_argument("--model-name", default="default")
    p.add_argument("--cache-dir")
    p.add_argument("--timeout-ms", type=int, default=30000)
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--api-key-env-var")
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("train-predictor", help="fit the compression-rate classifier")
    p.add_argument("--triplets", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--retrievals", required=True)
    p.add_argument(
        "--config",
        help="JSON object with any of the keys "
        + ", ".join(f.name for cls in (TrainConfig, FeatureSpec) for f in dataclasses.fields(cls))
        + f" and unanswerable_policy ({', '.join(UNANSWERABLE_POLICIES)})",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["qa", "conversational"], default="qa")
    p.set_defaults(func=_cmd_train_predictor)

    p = sub.add_parser("eval-predictor", help="held-out accuracy, confusion matrix, margins")
    p.add_argument("--model", required=True)
    p.add_argument("--triplets", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--retrievals", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--format", choices=["qa", "conversational"], default="qa")
    p.set_defaults(func=_cmd_eval_predictor)

    p = sub.add_parser("run", help="compare compression methods end to end")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="metric-vs-document-count curve for fixed k = 0..N")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="render a predictor report as a confusion matrix")
    p.add_argument("--report", required=True)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
