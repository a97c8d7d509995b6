#!/usr/bin/env python3
"""One scripted ragtrim study in a fresh process, optionally traced.

The study is the one ``scripts/run_synthetic_experiment.py`` runs: corpus ->
annotate_dataset -> train (80/20 split, 150 epochs) -> evaluate_predictor ->
run_pipeline (10 methods) -> sweep_document_count (confusion threshold 3).
It drives only ragtrim's public API; the corpus is rebuilt from the seed
before the clock starts. With ``--endpoint`` every stage generates through
``HttpGeneratorClient`` against that URL, sharing one cache directory;
without it the stages use the in-process mock oracle, as the script does.

Usage: python3 study.py --src SRC --size N --seed S --corpus-dir DIR --out-dir DIR
                        [--endpoint URL] [--trace]
Writes result.json (timing, generation counters, output hashes, per-layer
metrics when traced) and, when traced, spans.tsv into --out-dir.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import sys
import time
from pathlib import Path

from tracing import MeteredClient, NullRecorder, Recorder

# The script that defines the study; perfbench/ sits at the checkout root next to scripts/.
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_synthetic_experiment.py"
EPOCHS = 150  # the script's --epochs default
HASHED_OUTPUTS = ("table.csv", "sweep.csv", "triplets.jsonl", "model.json")


def load_script():
    """The study script as a module: its DEPTH_WEIGHTS and METHODS fix the study's inputs.

    Loading it imports ragtrim, so the sources must be on sys.path first.
    """
    spec = importlib.util.spec_from_file_location("run_synthetic_experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the ragtrim package")
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--corpus-dir", required=True, help="the corpus files written in set-up")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--endpoint", help="generator URL; the mock oracle when absent")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    import ragtrim.pipeline
    from ragtrim.data import join_dataset
    from ragtrim.predictor import TrainConfig
    from ragtrim.synth import CorpusSpec, make_synthetic_corpus

    script = load_script()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus = make_synthetic_corpus(
        CorpusSpec(size=args.size, depth_weights=script.DEPTH_WEIGHTS), seed=args.seed
    )
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    train_config = TrainConfig(epochs=EPOCHS, seed=args.seed)

    recorder = Recorder() if args.trace else NullRecorder()
    stage = ["annotate"]
    meters: list[MeteredClient] = []

    def metered(client):
        meter = MeteredClient(client, stage[0])
        meter.generate = recorder.wrap("generation.generate", meter.generate, 0)
        meters.append(meter)
        return meter

    build_generator = ragtrim.pipeline.build_generator
    ragtrim.pipeline.build_generator = lambda config, data: metered(build_generator(config, data))
    if args.trace:
        recorder.install_layer_spans(train_config.batch_size)

    study = recorder.wrap("study", run_study)
    with (out / "study.log").open("w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        start = time.perf_counter()
        adaptive = study(args, script.METHODS, corpus, dataset, train_config, out, recorder,
                         stage, metered)
        study_s = time.perf_counter() - start

    result = {
        "study_s": study_s,
        "generation": [m.counters() for m in meters],
        "adaptive": adaptive,
        "hashes": {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in HASHED_OUTPUTS
        },
    }
    if args.trace:
        result["trace"] = recorder.summary()
        recorder.write(out / "spans.tsv")
    (out / "result.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    return 0


def run_study(args, methods, corpus, dataset, train_config, out, recorder, stage,
              metered) -> dict:
    """The scripted study from annotation to the sweep; returns the adaptive row's EM and cost."""
    from ragtrim.annotate import annotate_dataset
    from ragtrim.data import save_triplets
    from ragtrim.pipeline import (
        PipelineConfig,
        format_table_csv,
        render_confusion,
        report_confusion,
        run_pipeline,
        sweep_document_count,
    )
    from ragtrim.predictor import evaluate_predictor, save_model, train
    from ragtrim.synth import mock_client_for

    import ragtrim.pipeline

    corpus_dir = Path(args.corpus_dir)
    paths = {name: corpus_dir / f"{name}.jsonl" for name in ("examples", "retrievals", "plan")}
    if args.endpoint:
        generator = {"type": "http", "endpoint_url": args.endpoint, "model_name": "mock",
                     "cache_dir": str(out / "cache")}
        sweep_generator = dict(generator, model_name="mock-c3")
    else:
        generator = {"type": "mock", "closed_book_plan": str(paths["plan"])}
        sweep_generator = dict(generator, confusion_threshold=3)

    span = recorder.wrap
    print(f"== corpus: {args.size} examples, seed {args.seed}")
    print("== annotating minimal document counts")
    if args.endpoint:
        annotation_config = PipelineConfig(
            examples_path=str(paths["examples"]),
            retrievals_path=str(paths["retrievals"]),
            methods=methods,
            generator=generator,
            seed=args.seed,
        )
        client = ragtrim.pipeline.build_generator(annotation_config, dataset)
    else:
        client = metered(span("synth.mock_client_for", mock_client_for)(corpus))
    triplets, stats = span("annotate.dataset", annotate_dataset)(dataset, client)
    triplets_path = out / "triplets.jsonl"
    span("data.save", save_triplets)(triplets_path, triplets)
    print(f"   histogram: {json.dumps(stats.to_dict()['label_histogram'])}")
    print(f"   generator calls: {stats.generator_calls}")

    print("== training the compression-rate predictor")
    split = int(0.8 * len(triplets))
    model, report = span("predictor.train", train)(triplets[:split], dataset, train_config)
    model_path = out / "model.json"
    span("predictor.save", save_model)(model_path, model)
    heldout = span("predictor.evaluate", evaluate_predictor)(model, triplets[split:], dataset)
    print(f"   train accuracy {report.final_train_accuracy:.3f}, "
          f"held-out accuracy {heldout.accuracy:.3f}")
    span("pipeline.report_confusion", report_confusion)(heldout, out / "confusion.json")
    print(span("pipeline.render_confusion", render_confusion)(heldout))

    print("== method comparison")
    stage[0] = "run"
    config = PipelineConfig(
        examples_path=str(paths["examples"]),
        retrievals_path=str(paths["retrievals"]),
        triplets_path=str(triplets_path),
        generator=generator,
        predictors=[{"name": "adaptive", "type": "model", "path": str(model_path)}],
        methods=methods,
        seed=args.seed,
        output_dir=str(out),
    )
    run = span("pipeline.run", run_pipeline)(config)
    print(span("pipeline.format_table", format_table_csv)(run.methods))

    print("== document-count sweep with a confusion-prone generator")
    stage[0] = "sweep"
    sweep_config = PipelineConfig(
        examples_path=str(paths["examples"]),
        retrievals_path=str(paths["retrievals"]),
        methods=["top_1"],
        generator=sweep_generator,
        seed=args.seed,
        output_dir=str(out),
    )
    for point in span("pipeline.sweep", sweep_document_count)(sweep_config):
        print(f"   k={point.k}: em={point.em:.4f} tokens={point.mean_tokens:.1f}")

    adaptive = run.by_name()["adaptive"].report
    return {"em": adaptive.em, "mean_tokens": adaptive.mean_tokens}


if __name__ == "__main__":
    raise SystemExit(main())
