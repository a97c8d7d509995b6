"""The ragtrim seams that perfbench's tracer patches and wraps, and the names the README
cites, still hold."""

from __future__ import annotations

import ast
import json
import importlib
import importlib.util
import re
import threading
from pathlib import Path

import ragtrim.pipeline
from ragtrim.annotate import annotate_dataset
from ragtrim.data import join_dataset, save_triplets
from ragtrim.generation import GeneratorClient, HttpGeneratorConfig, Prompt
from ragtrim.pipeline import PipelineConfig, build_generator, run_pipeline, sweep_document_count
from ragtrim.synth import CorpusSpec, make_synthetic_corpus, mock_client_for
from helpers import MockEndpoint, ScriptedServer, http_client, mock_answers, serve

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
README = TRACING.parents[1] / "README.md"


def load_tracing():
    """perfbench/tracing.py, loaded read-only."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_exist():
    """`perfbench/run.py --trace 1` replaces these attributes; a rename would drop their spans."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    [spans] = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
               and getattr(node.targets[0], "id", None) == "LAYER_SPANS"]
    names = [(module, attr) for module, attr, _, _ in spans]
    names.append(("ragtrim.predictor", "loss_and_grad"))
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert len(names) > 1 and missing == []


def test_readme_names_exist():
    """Each `module.NAME` the README cites, for a ragtrim module, is an attribute of it."""
    modules = {path.stem for path in Path(ragtrim.pipeline.__file__).parent.glob("*.py")}
    cited = {(module, name) for module, name in
             re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
             if module in modules}
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"ragtrim.{module}"), name)]
    assert len(cited) > 1 and missing == []


def test_metered_http_client_counts_one_retry():
    """The HTTP workloads wrap each client in MeteredClient, which swaps in its own session
    and reads each response's status_code; a transport that broke that seam would fail here."""
    tracing = load_tracing()
    text = "\nQuestion: who wrote Hamlet\nAnswer:"
    prompt = Prompt("q1", "who wrote Hamlet", (), "qa_default", text)
    with ScriptedServer([(503, {"error": "busy"}), (200, {"text": "a"})]) as server:
        config = HttpGeneratorConfig(endpoint_url=server.url, model_name="m", backoff_base_s=0)
        meter = tracing.MeteredClient(http_client(config), "annotate")
        assert meter.generate(prompt) == "a"
    counters = meter.counters()
    assert (counters["retries"], counters["backend_requests"]) == (1, 1)
    assert counters["billed_tokens"] == len(prompt.text.split()) == 5


def test_metered_mock_client_has_no_session_and_no_retries():
    """The meter installs its attempt counter only on a client with a ``session``; on the
    mock, from build_generator or from mock_client_for, none may show, or the meter would
    count the mock's lookups as missing POSTs and report negative retries."""
    tracing = load_tracing()
    corpus = make_synthetic_corpus(CorpusSpec(size=20), seed=5)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    config = PipelineConfig("", "", [], generator={"type": "mock"})
    for client in (build_generator(config, dataset), mock_client_for(corpus)):
        meter = tracing.MeteredClient(client, "annotate")
        annotate_dataset(dataset, meter)
        counters = meter.counters()
        assert meter.attempts is None and counters["retries"] == 0
        assert counters["client_calls"] == counters["lookups"] > 0


def test_metered_study_generates_on_the_calling_thread(tmp_path, monkeypatch):
    """The study wraps every client in MeteredClient, whose counters take no lock. At
    max_in_flight 4, annotate, run and sweep call ``generate`` only on the calling
    thread, the requests still overlap, and the meter reconciles with the endpoint:
    lookups, backend requests, billed tokens and retries."""
    tracing = load_tracing()
    corpus = make_synthetic_corpus(CorpusSpec(size=60), seed=5)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    endpoint = MockEndpoint(mock_answers(corpus, dataset), delay_s=0.001, fault_rate=0.05)
    serve(monkeypatch, endpoint)
    callers = set()
    generate = GeneratorClient.generate

    def recorded_generate(client, prompt):
        callers.add(threading.get_ident())
        return generate(client, prompt)

    monkeypatch.setattr(GeneratorClient, "generate", recorded_generate)
    meters, stage = [], ["annotate"]
    build = ragtrim.pipeline.build_generator

    def metered_build(config, data):
        meters.append(tracing.MeteredClient(build(config, data), stage[0]))
        return meters[-1]

    monkeypatch.setattr(ragtrim.pipeline, "build_generator", metered_build)
    paths = corpus.write(tmp_path / "corpus")
    config = PipelineConfig(
        examples_path=str(paths["examples"]), retrievals_path=str(paths["retrievals"]),
        triplets_path=str(tmp_path / "triplets.jsonl"),
        generator={"type": "http", "endpoint_url": "http://generator.test/", "model_name": "m",
                   "backoff_base_s": 0, "cache_dir": str(tmp_path / "cache"), "max_in_flight": 4},
        methods=["no_retrieval", "top_1", "top_3", "top_random", "oracle"], seed=5,
        output_dir=str(tmp_path / "out"),
    )
    triplets, _ = annotate_dataset(dataset, ragtrim.pipeline.build_generator(config, dataset))
    save_triplets(config.triplets_path, triplets)
    stage[0] = "run"
    run_pipeline(config)
    stage[0] = "sweep"
    sweep_document_count(config)

    assert callers == {threading.get_ident()}
    assert endpoint.peak_in_flight > 1  # the meter passed prefetch and the width through
    counters = [meter.counters() for meter in meters]
    assert [c["stage"] for c in counters] == ["annotate", "run", "sweep"]
    assert all(c["lookups"] == c["client_calls"] > 0 and c["failed"] == 0 for c in counters)
    assert sum(c["client_cache_hits"] for c in counters) > 0
    assert sum(c["backend_requests"] for c in counters) == endpoint.posts - endpoint.faults
    assert sum(c["billed_tokens"] for c in counters) == endpoint.tokens
    assert sum(c["retries"] for c in counters) == endpoint.faults > 0


def test_bench_pairs_summary_of_canned_result_lines():
    """scripts/bench_pairs.py reads each run's last stdout line and summarises each side:
    per-metric medians, quartiles, interquartile ranges and wins over the pairs in which
    both runs printed a result, and for the change whether a gain may be claimed: wins
    in at least nine tenths of the pairs and a median gap above the parent's IQR."""
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)

    def line(study_s, em):
        metrics = {"study_s": {"value": study_s, "unit": "s"},
                   "adaptive_em": {"value": em, "unit": "ratio"}}
        return "\n".join(["run record: {}", "  study_s  1.0 s",
                          json.dumps({"correct": True, "attempted": 10, "failed": 0,
                                      "metrics": metrics})])

    before = [line(s, 0.9) for s in (20.0, 22.0, 21.0, 30.0, 19.0)]
    after = [line(s, 0.9) for s in (12.0, 13.0, 11.0, 14.0, 20.0)]
    results = [[bench_pairs.result_of(out) for out in side] for side in (before, after)]
    pairs = list(zip(*results)) + [(None, bench_pairs.result_of(after[0]))]
    assert bench_pairs.result_of("usage: run.py\nerror: no result") is None
    b, a = bench_pairs.summarise(pairs, {"study_s": "lower", "adaptive_em": "higher"})
    assert (b["pairs"], b["failed_runs"], a["failed_runs"]) == (5, 1, 0)
    assert b["metrics"]["study_s"] == {"unit": "s", "median": 21.0, "q1": 20.0, "q3": 22.0,
                                       "iqr": 2.0, "wins": 1,
                                       "runs": [20.0, 22.0, 21.0, 30.0, 19.0]}
    assert (a["metrics"]["study_s"]["median"], a["metrics"]["study_s"]["wins"]) == (13.0, 4)
    assert b["metrics"]["adaptive_em"]["wins"] == a["metrics"]["adaptive_em"]["wins"] == 0
    # 4 wins of 5 pairs fall short of nine tenths, though the gap (8) exceeds the IQR (2).
    assert (a["metrics"]["study_s"]["median_gap"], a["metrics"]["study_s"]["claim_holds"]) \
        == (8.0, False)
    assert "claim_holds" not in b["metrics"]["study_s"]
    assert a["metrics"]["adaptive_em"]["claim_holds"] is False  # every pair a tie

    def claim(before_runs, after_runs):
        pairs = [(bench_pairs.result_of(line(x, 0.9)), bench_pairs.result_of(line(y, 0.9)))
                 for x, y in zip(before_runs, after_runs)]
        summary = bench_pairs.summarise(pairs, {"study_s": "lower"})[1]["metrics"]["study_s"]
        return summary["median_gap"], summary["claim_holds"]

    assert claim([20.0, 22.0, 21.0], [12.0, 13.0, 11.0]) == (9.0, True)  # IQR 1.0
    # 10 wins of 10, but the gap (1.0) is inside the parent's IQR (10.0).
    assert claim([10.0, 20.0] * 5, [9.0, 19.0] * 5) == (1.0, False)
