"""Command-line entry points: make-corpus, annotate, train-predictor, eval-predictor, run, sweep, report."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections import Counter
from pathlib import Path

from . import pipeline
from .annotate import AnnotationAborted, AnnotationOptions, annotate_dataset
from .data import DataError, save_triplets
from .generation import JudgeMode
from .pipeline import (
    ConfigError,
    confusion_csv,
    load_inputs,
    load_pipeline_config,
    parse_config,
    read_json_object,
    render_confusion,
    report_confusion,
    run_pipeline,
    sweep_document_count,
    train_options,
)
from .predictor import PredictorReport, evaluate_predictor, load_model, save_model, train
from .synth import CorpusSpec, make_synthetic_corpus

logger = logging.getLogger(__name__)


def _cmd_make_corpus(args: argparse.Namespace) -> int:
    raw = read_json_object(args.spec) if args.spec else {}
    spec = parse_config(CorpusSpec, {"size": args.size, **raw}, "spec")
    corpus = make_synthetic_corpus(spec, seed=args.seed)
    paths = corpus.write(args.out_dir)
    histogram = Counter(str(entry.intended_label.to_json()) for entry in corpus.plan)
    print(f"wrote {len(corpus.examples)} examples under {args.out_dir}")
    print(f"intended label histogram: {json.dumps(histogram, sort_keys=True)}")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    config = load_pipeline_config(args.config)
    try:
        options = AnnotationOptions(
            judge_mode=JudgeMode.parse(config.judge),
            include_k0=args.k0 == "on",
            failure_limit=args.failure_limit,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    dataset, _ = load_inputs(config)
    client = pipeline.build_generator(config, dataset)
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
    config = load_pipeline_config(args.config)
    dataset, triplets = load_inputs(config, with_triplets=True)
    model, report = train(triplets, dataset, **train_options(config))
    save_model(args.out, model)
    print(f"trained on {report.n_rows} rows ({report.dropped_unanswerable} unanswerable dropped)")
    print(f"final train accuracy: {report.final_train_accuracy:.4f}")
    print(f"model -> {args.out}")
    return 0


def _cmd_eval_predictor(args: argparse.Namespace) -> int:
    config = load_pipeline_config(args.config)
    dataset, triplets = load_inputs(config, with_triplets=True)
    model = load_model(args.model)
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
    report = PredictorReport.from_dict(read_json_object(args.report))
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
    p.add_argument(
        "--config",
        required=True,
        help="the run config; annotation reads its datasets.examples, datasets.retrievals, "
        "datasets.format, generator, judge and seed",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--stats")
    p.add_argument("--k0", choices=["on", "off"], default="on")
    p.add_argument("--failure-limit", type=float, default=0.10)
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("train-predictor", help="fit the compression-rate classifier")
    p.add_argument(
        "--config",
        required=True,
        help="the run config; training reads its datasets (triplets included) and train",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_predictor)

    p = sub.add_parser("eval-predictor", help="held-out accuracy, confusion matrix, margins")
    p.add_argument(
        "--config", required=True, help="the run config; evaluation reads its datasets"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True)
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
