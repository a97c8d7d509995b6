"""The ragtrim seams that perfbench's tracer patches and wraps, and the names the README
cites, still hold."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import importlib
import importlib.util
import inspect
import re
import threading
from pathlib import Path

import pytest

import ragtrim.generation
import ragtrim.pipeline
from ragtrim.annotate import annotate_dataset
from ragtrim.data import join_dataset, save_triplets
from ragtrim.features import FeatureSpec
from ragtrim.generation import GeneratorClient, HttpGeneratorConfig, MockOracleConfig, Prompt
from ragtrim.pipeline import (
    PipelineConfig,
    _ModelEntry,
    build_generator,
    run_pipeline,
    sweep_document_count,
)
from ragtrim.predictor import TrainConfig
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


def ragtrim_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) of each ``from ragtrim... import name`` in ``path``, and (module,
    None) of each ``import ragtrim...``."""
    imports = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ragtrim"):
            imports.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            imports.extend((alias.name, None) for alias in node.names
                           if alias.name.startswith("ragtrim"))
    return imports


def test_every_name_the_benchmark_imports_exists():
    """Each ragtrim module and name a perfbench script imports resolves; a rename would
    fail the benchmark's run of this tree, not a test."""
    imports = [pair for path in sorted(TRACING.parent.glob("*.py"))
               for pair in ragtrim_imports(path)]
    modules = {module: importlib.import_module(module) for module, _ in imports}
    missing = [f"{module}.{name}" for module, name in imports
               if name is not None and not hasattr(modules[module], name)]
    assert {name for _, name in imports} >= {"Prompt", "mock_generate", "make_synthetic_corpus"}
    assert missing == []


def test_prompt_takes_the_keywords_the_stub_passes():
    """perfbench/stub.py builds each prompt it answers as ``Prompt(**five keywords)``."""
    tree = ast.parse((TRACING.parent / "stub.py").read_text(encoding="utf-8"))
    [keywords] = [[kw.arg for kw in node.keywords] for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Prompt"]
    assert len(keywords) == 5
    inspect.signature(Prompt).bind(**dict.fromkeys(keywords))


def test_an_http_client_sends_every_attempt_through_its_settable_session():
    """MeteredClient counts retries by replacing the ``session`` of each client
    build_generator returns. Every attempt, inline or from a prefetch worker, must go
    through the replacement: a 503-then-200 prompt is 2 POSTs, each way."""
    corpus = make_synthetic_corpus(CorpusSpec(size=4), seed=5)
    dataset = join_dataset(corpus.examples, corpus.retrievals)

    class Counting:
        def __init__(self, session):
            self.session, self.posts = session, 0

        def post(self, *args, **kwargs):
            self.posts += 1
            return self.session.post(*args, **kwargs)

    prompts = [Prompt("q1", f"question {i}", (), "qa_default", f"question {i}") for i in range(2)]
    script = [(503, {"error": "busy"}), (200, {"text": "a"})] * 2
    with ScriptedServer(script) as server:
        config = PipelineConfig("", "", [], generator={
            "type": "http", "endpoint_url": server.url, "model_name": "m", "backoff_base_s": 0})
        client = build_generator(config, dataset)
        client.session = counting = Counting(client.session)
        assert client.generate(prompts[0]) == "a" and counting.posts == 2
        client.prefetch(prompts[1:])
        assert client.generate(prompts[1]) == "a" and counting.posts == 4
        client.cancel_prefetch()
    assert len(server.bodies) == 4


def test_readme_names_exist():
    """Each `module.NAME` the README cites, for a ragtrim module, is an attribute of it."""
    modules = {path.stem for path in Path(ragtrim.pipeline.__file__).parent.glob("*.py")}
    cited = {(module, name) for module, name in
             re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
             if module in modules}
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"ragtrim.{module}"), name)]
    assert len(cited) > 1 and missing == []


def names_before_full_stop(text: str) -> set[str]:
    """The code spans of ``text`` that are not in parentheses, up to its first full stop
    that is not in parentheses or a code span."""
    names, depth = set(), 0
    for i, part in enumerate(re.split(r"`([^`]*)`", text)):
        if i % 2:  # a code span
            names.update([part] if depth == 0 else [])
            continue
        for mark in re.findall(r"[()]|\.(?=\s|$)", part):
            if mark == "." and depth == 0:
                return names
            depth += {"(": 1, ")": -1}.get(mark, 0)
    return names


def readme_config_bullets() -> dict[str, str]:
    """Label -> text after the label's colon, for each bullet of README's "The keys, with
    their defaults"."""
    section = README.read_text(encoding="utf-8").split("The keys, with their defaults:", 1)[1]
    bullets = section.strip().split("\n\n", 1)[0].removeprefix("- ").split("\n- ")
    return dict(bullet.split(": ", 1) for bullet in bullets)


def readme_config_keys() -> dict[str, set[str]]:
    """Label -> keys, for each bullet of README's "The keys, with their defaults": the names
    after the label's colon (the defaults and notes are in parentheses)."""
    return {label: names_before_full_stop(text)
            for label, text in readme_config_bullets().items()}


def test_readme_lists_exactly_the_config_keys():
    """The README's key list names every JSON key of the config dataclasses and no other,
    so a key that is deleted cannot stay in it."""
    def json_keys(*classes):
        return {f.metadata.get("json", f.name) for cls in classes for f in dataclasses.fields(cls)}

    assert readme_config_keys() == {
        "Top level": json_keys(PipelineConfig),
        "`mock` generator": json_keys(MockOracleConfig) | {"closed_book_plan"},
        "`http` generator": json_keys(HttpGeneratorConfig),
        "`model` predictor": json_keys(_ModelEntry) | {"name", "type"},
        "`train`": json_keys(TrainConfig, FeatureSpec) | {"unanswerable_policy"},
    }


def test_readme_states_the_http_generator_defaults():
    """Each default the README's `http` generator bullet states, as the code span that
    opens the parentheses after a key (or after keys joined by "and"), is that
    HttpGeneratorConfig field's default, of the same type; every field with a default
    has one stated. So changing a default cannot leave the README behind."""
    stated = {}
    bullet = readme_config_bullets()["`http` generator"]
    for names, default in re.findall(r"((?:`\w+`(?:\s+and\s+)?)+)\s+\(`([^`]+)`", bullet):
        stated.update((name, json.loads(default)) for name in re.findall(r"`(\w+)`", names))
    defaults = {f.name: f.default for f in dataclasses.fields(HttpGeneratorConfig)
                if f.default is not dataclasses.MISSING}
    assert {name: (type(value), value) for name, value in stated.items()} \
        == {name: (type(value), value) for name, value in defaults.items()}


def test_readme_figures_follow_prompts_in_line():
    """The figures README's "Requests in flight" derives from generation.PROMPTS_IN_LINE
    are the constant's: the line (512), the prompts a failing run sends beyond width 1
    (2 × 512 = 1,024) and the probes an aborted annotation sends with 5 documents
    ((N + 2) × 512 = 3,584), and every other `× n` there names the line too. So changing
    the line cannot leave the README behind."""
    line = ragtrim.generation.PROMPTS_IN_LINE
    section = README.read_text(encoding="utf-8").split("## Requests in flight", 1)[1]
    text = " ".join(section.split("\n## ", 1)[0].split())
    assert f"while fewer than {line} prompts wait in the line" in text
    assert f"2 × {line} = {2 * line:,} prompts" in text
    assert f"(N + 2) × {line} such probes are sent, with N documents ({7 * line:,} " \
        "with 5 documents" in text
    assert {int(n.replace(",", "")) for n in re.findall(r"× ([\d,]+)", text)} == {line}


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
        assert not hasattr(client, "session")
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
    in at least nine tenths of the pairs and a median gap above the parent's IQR; and
    its regression verdict against the metric's bound."""
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
    b, a = bench_pairs.summarise(pairs, {"study_s": "lower", "adaptive_em": "higher"},
                                 {"study_s": 0.24, "adaptive_em": 0.1})
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
    # Better medians and a parent IQR (2) within the bound (0.24 x 21): no regression.
    assert a["metrics"]["study_s"]["regression"] == a["metrics"]["adaptive_em"]["regression"] \
        == "ok"
    assert "regression" not in b["metrics"]["study_s"]

    def claim(before_runs, after_runs):
        pairs = [(bench_pairs.result_of(line(x, 0.9)), bench_pairs.result_of(line(y, 0.9)))
                 for x, y in zip(before_runs, after_runs)]
        summary = bench_pairs.summarise(pairs, {"study_s": "lower"},
                                        {"study_s": 0.24})[1]["metrics"]["study_s"]
        return summary["median_gap"], summary["claim_holds"], summary["regression"]

    assert claim([20.0, 22.0, 21.0], [12.0, 13.0, 11.0]) == (9.0, True, "ok")  # IQR 1.0
    # 10 wins of 10, but the gap (1.0) is inside the parent's IQR (10.0), which exceeds
    # the bound (0.24 x 15), and a change run (19) is slower than a parent run (10).
    assert claim([10.0, 20.0] * 5, [9.0, 19.0] * 5) == (1.0, False, "unresolved")
    # The same parent spread: the gap (6.0) is no claim, but every change run beats every
    # parent run, so there is no regression to resolve.
    assert claim([10.0, 20.0] * 5, [9.0] * 10) == (6.0, False, "ok")
    # A median 30% worse than the parent's, beyond the bound of 24%.
    assert claim([10.0, 10.0, 10.0], [13.0, 13.0, 13.0]) == (-3.0, False, "worse")
    # 20% worse: within the bound.
    assert claim([10.0, 10.0, 10.0], [12.0, 12.0, 12.0]) == (-2.0, False, "ok")


def test_bench_pairs_runs_a_list_of_workloads_into_one_pair_of_files(tmp_path, monkeypatch,
                                                                     capsys):
    """``--workload a,b`` runs every pair of a, then every pair of b, alternating which
    checkout goes first, and merges one entry per workload into the same BENCH files,
    keeping the entries already in them. Every end-to-end metric's console line carries
    its claim verdict, not only study_s's."""
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)

    assert bench_pairs.workload_list("mock-4000") == ["mock-4000"]
    assert bench_pairs.workload_list("mock-4000, http-cold-400") == ["mock-4000", "http-cold-400"]
    for bad in ("", "a,", "a,,b", "a,a"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.workload_list(bad)

    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 5, "end_to_end": [
        {"name": "study_s", "better": "lower", "bound": 0.24},
        {"name": "setup_s", "better": "lower", "bound": 0.25}]}))
    (tmp_path / "BENCH_7_before.json").write_text(json.dumps(
        {"results": {"old --seed 42": {"pairs": 3}}}))
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append((checkout.name, workload, seed, seconds))
        value = {"parent": 10.0, "change": 8.0}[checkout.name] + (workload == "b")
        setup = {"parent": 0.3, "change": 0.2}[checkout.name]
        return {"correct": True, "failed": 0,
                "metrics": {"study_s": {"value": value, "unit": "s"},
                            "setup_s": {"value": setup, "unit": "s"}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(parent), str(change), "--workload", "a,b", "--pairs", "2",
                             "--pr", "7", "--out", str(tmp_path)]) == 0
    order = ["parent", "change", "change", "parent"]
    assert runs == [(side, w, 42, 5) for w in "ab" for side in order]
    before = json.loads((tmp_path / "BENCH_7_before.json").read_text())
    after = json.loads((tmp_path / "BENCH_7_after.json").read_text())
    assert sorted(before["results"]) == ["a --seed 42", "b --seed 42", "old --seed 42"]
    assert sorted(after["results"]) == ["a --seed 42", "b --seed 42"]
    for workload, median in (("a", 8.0), ("b", 9.0)):
        entry = after["results"][f"{workload} --seed 42"]
        assert entry["command"] == \
            f"python3 perfbench/run.py --workload {workload} --seed 42 --seconds 5 --trace 0"
        assert (entry["pairs"], entry["metrics"]["study_s"]["median"]) == (2, median)
        assert entry["metrics"]["study_s"]["wins"] == 2
    printed = capsys.readouterr().out.splitlines()
    assert "b setup_s: change won 2/2 pairs, median gap 0.1 s, claim holds: True; ok " \
        "(median 0.2 against 0.3, bound 0.25)" in printed
