"""Fault injection for the HTTP generator and the remote predictor: one failure policy.

Both clients post through ``generation.post_json``. A timeout, a reset or
dropped connection or a 5xx is retried; a 4xx or a malformed 200 ends the call on
that attempt; retries that run out raise TransportError.
"""

from __future__ import annotations

import http.client
import json
import shutil
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ragtrim.pipeline
from ragtrim.annotate import AnnotationAborted, AnnotationOptions, annotate_dataset
from ragtrim.compress import assemble_prompt
from ragtrim.data import CompressionLabel, join_dataset, save_triplets
from ragtrim.generation import (
    GeneratorClient,
    HttpGeneratorConfig,
    Prompt,
    ProtocolError,
    TransportError,
)
from ragtrim.pipeline import PipelineConfig, run_pipeline, sweep_document_count
from ragtrim.predictor import RemotePredictorClient, RemotePredictorConfig
from ragtrim.synth import CorpusSpec, make_synthetic_corpus
from helpers import (
    MockEndpoint, cache_log_keys, http_client, http_response, make_example, make_retrieval,
    mock_answers, serve,
)

RETRIED = ("timeout", "reset", "dropped", 500, 503)
ENDS_THE_CALL = (400, 401, "not-json", "not-object")
OUTCOMES = (*RETRIED, *ENDS_THE_CALL, "valid")


class FaultSession:
    """Stands in for an HttpSession; the n-th POST gets the n-th scripted outcome."""

    def __init__(self, outcomes, valid_body: bytes):
        self.outcomes = outcomes
        self.valid_body = valid_body
        self.posts = 0

    def post(self, url, **kwargs):
        outcome = self.outcomes[self.posts]
        self.posts += 1
        if outcome == "timeout":
            raise TimeoutError("injected timeout")
        if outcome == "reset":
            raise ConnectionResetError("injected reset connection")
        if outcome == "dropped":
            raise http.client.RemoteDisconnected("injected dropped connection")
        bodies = {"not-json": b"x", "not-object": b"[]", "valid": self.valid_body}
        if outcome in bodies:
            return http_response(200, bodies[outcome])
        return http_response(outcome, b'{"error": "injected"}')


def prescribed(outcomes) -> tuple[int, str]:
    """(POSTs, "valid" | "protocol" | "transport") that the failure policy prescribes."""
    for attempt, outcome in enumerate(outcomes, 1):
        if outcome == "valid":
            return attempt, "valid"
        if outcome in ENDS_THE_CALL:
            return attempt, "protocol"
    return len(outcomes), "transport"


# One list of outcomes per call: max_retries + 1 of them, max_retries in 0..3.
attempt_outcomes = st.integers(0, 3).flatmap(
    lambda retries: st.lists(st.sampled_from(OUTCOMES), min_size=retries + 1, max_size=retries + 1)
)

PROMPT = Prompt(query_id="q1", query="q", context_docs=(), template_id="qa_default", text="q")


@given(attempt_outcomes)
def test_generator_follows_the_failure_policy(outcomes):
    session = FaultSession(outcomes, b'{"text": "the answer"}')
    config = HttpGeneratorConfig(
        endpoint_url="http://generator.test/", model_name="m",
        max_retries=len(outcomes) - 1, backoff_base_s=0,
    )
    posts, expected = prescribed(outcomes)
    client = http_client(config, session=session)
    if expected == "valid":
        assert client.generate(PROMPT) == "the answer"
    else:
        error = TransportError if expected == "transport" else ProtocolError
        with pytest.raises(error):
            client.generate(PROMPT)
    assert session.posts == posts <= config.max_retries + 1


@given(attempt_outcomes, st.booleans())
def test_predictor_follows_the_failure_policy(outcomes, fallback_to_full):
    session = FaultSession(outcomes, b'{"k": 2}')
    config = RemotePredictorConfig(
        endpoint_url="http://predictor.test/", max_retries=len(outcomes) - 1,
        fallback_to_full=fallback_to_full, backoff_base_s=0,
    )
    retrieval = make_retrieval(texts=[f"d{i}" for i in range(5)])
    posts, expected = prescribed(outcomes)
    client = RemotePredictorClient(config, session=session)
    if expected == "valid":
        assert client.predict_label(make_example(), retrieval) == CompressionLabel.keep(2)
    elif fallback_to_full:
        assert client.predict_label(make_example(), retrieval) == CompressionLabel.keep(5)
    else:
        error = TransportError if expected == "transport" else ProtocolError
        with pytest.raises(error):
            client.predict_label(make_example(), retrieval)
    assert session.posts == posts <= config.max_retries + 1
    assert client.fallbacks == (expected != "valid" and fallback_to_full)


def test_annotation_through_a_flaky_endpoint_matches_the_plan(tmp_path, monkeypatch):
    """The flaky HTTP workload in miniature: 1% of prompts fail their first attempt.

    Annotation, then a run and a sweep at max_in_flight 1 and 4, each width
    through a fresh endpoint and a cache warmed with the same half of the
    prompts: the same tables and manifest at both widths (so the same cache_hits
    in every row), and every POST is a backend request or a retried fault.
    """
    corpus = make_synthetic_corpus(CorpusSpec(size=400), seed=42)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    answers = mock_answers(corpus, dataset)
    session = MockEndpoint(answers, fault_rate=0.01)
    config = HttpGeneratorConfig(
        endpoint_url="http://generator.test/", model_name="m", backoff_base_s=0
    )
    client = http_client(config, session=session)
    triplets, stats = annotate_dataset(dataset, client)
    intended = corpus.intended_labels()
    assert [t.label for t in triplets] == [intended[ex.id] for ex, _ in dataset]
    assert stats.failed == 0
    assert session.faults > 0
    assert session.posts == stats.generator_calls + session.faults
    assert stats.generator_calls == client.calls > 0

    paths = corpus.write(tmp_path / "corpus")
    save_triplets(tmp_path / "triplets.jsonl", triplets)
    built = []
    build = ragtrim.pipeline.build_generator

    def recorded_build(config, data):
        built.append(build(config, data))
        return built[-1]

    monkeypatch.setattr(ragtrim.pipeline, "build_generator", recorded_build)
    prompts = [assemble_prompt(example, retrieval.docs[:k])
               for example, retrieval in dataset for k in range(retrieval.n + 1)]
    cache = tmp_path / "cache"
    outputs = {}
    for width in (1, 4):
        shutil.rmtree(cache, ignore_errors=True)
        warm(cache, answers, prompts[::2])
        endpoint = MockEndpoint(answers, fault_rate=0.01)
        serve(monkeypatch, endpoint)
        out = tmp_path / f"out{width}"
        generator = {"type": "http", "endpoint_url": "http://generator.test/", "model_name": "m",
                     "backoff_base_s": 0, "max_in_flight": width, "cache_dir": str(cache)}
        config = PipelineConfig(
            examples_path=str(paths["examples"]), retrievals_path=str(paths["retrievals"]),
            triplets_path=str(tmp_path / "triplets.jsonl"), generator=generator,
            methods=["no_retrieval", "top_1", "top_3", "top_random", "oracle"], seed=42,
            output_dir=str(out),
        )
        built.clear()
        run_pipeline(config)
        sweep_document_count(config)
        outputs[width] = [(out / name).read_bytes()
                          for name in ("table.csv", "manifest.json", "sweep.csv")]
        backend_requests = sum(c.calls - c.cache_hits for c in built)
        assert len(built) == 2 and endpoint.faults > 0
        assert endpoint.posts == backend_requests + endpoint.faults
        assert endpoint.peak_in_flight <= width and endpoint.doubled == []
    assert outputs[1] == outputs[4]
    assert json.loads(outputs[4][1])["cache_hits"] > 0


def test_an_abort_keeps_the_answers_it_paid_for(tmp_path, monkeypatch):
    """Every prompt of example 20 of 60 fails for good, so the run raises TransportError
    when it reaches that example. The endpoint holds those prompts until a prompt of
    example 30 arrives, so the look-ahead has sent prompts of later ones. The POSTs
    under way when generate raises, and those that start after it, are at most
    max_in_flight - 1, the other threads' (the raise is held 10 ms to give more a
    chance). None is under way once the run returns. Every answered prompt has a cache
    entry, and a rerun with the fault lifted POSTs only the prompts left unanswered."""
    corpus = make_synthetic_corpus(CorpusSpec(size=60), seed=4)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    answers = mock_answers(corpus, dataset)
    ids = [example.id for example, _ in dataset]
    paths = corpus.write(tmp_path / "corpus")
    cache = tmp_path / "cache"
    config = PipelineConfig(
        examples_path=str(paths["examples"]), retrievals_path=str(paths["retrievals"]),
        generator={"type": "http", "endpoint_url": "http://generator.test/", "max_retries": 0,
                   "cache_dir": str(cache), "max_in_flight": 4},
        methods=["top_1", "top_3", "top_random"], seed=3,
    )
    endpoint = MockEndpoint(answers, delay_s=0.002, failing=[ids[20]])
    release = threading.Event()
    endpoint.gates = {text: release for text, (id_, _) in answers.items() if id_ == ids[20]}

    class Releasing:
        def post(self, url, json, **kwargs):
            if answers[json["prompt"]][0] == ids[30]:
                release.set()
            return endpoint.post(url, json=json, **kwargs)

    serve(monkeypatch, Releasing())
    at_raise = []  # (POSTs in flight, POSTs started) when generate raises
    generate = GeneratorClient.generate

    def recorded_generate(self, prompt):
        try:
            return generate(self, prompt)
        except TransportError:
            at_raise.append((len(endpoint.in_flight), endpoint.posts))
            time.sleep(0.01)
            raise

    monkeypatch.setattr(GeneratorClient, "generate", recorded_generate)
    with pytest.raises(TransportError):
        run_pipeline(config)
    posts = endpoint.posts
    [(in_flight, posts_then)] = at_raise
    assert in_flight + posts - posts_then <= 4 - 1
    assert endpoint.in_flight == [] and endpoint.gate_timeouts == []
    time.sleep(0.05)
    assert endpoint.posts == posts

    answered = {text for text in endpoint.seen if answers[text][0] != ids[20]}
    assert any(ids.index(answers[text][0]) > 20 for text in answered)
    assert len(set(cache_log_keys(cache))) == len(answered)
    rerun = MockEndpoint(answers)
    serve(monkeypatch, rerun)
    monkeypatch.setattr(GeneratorClient, "generate", generate)
    manifest = run_pipeline(config).manifest
    assert rerun.seen.isdisjoint(answered)
    assert manifest["cache_hits"] == len(answered)
    assert rerun.posts == manifest["generator_calls"] - len(answered)


def test_an_aborted_annotation_keeps_the_answers_it_paid_for(tmp_path):
    """Every probe of example 10 of 60 fails for good and the failure limit is 0, so
    annotation aborts at that example. The endpoint holds its first probe until a probe
    of example 30 arrives, so at width 4 later searches' probes have been sent.
    Once the abort returns, no POST is under way, every answered probe has a cache entry,
    and a rerun with the fault lifted POSTs only the probes left unanswered."""
    corpus = make_synthetic_corpus(CorpusSpec(size=60), seed=4)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    answers = mock_answers(corpus, dataset)
    index = {example.id: i for i, (example, _) in enumerate(dataset)}
    bad = dataset.pairs[10][0].id
    cache = tmp_path / "cache"
    endpoint = MockEndpoint(answers, failing=[bad])
    release = threading.Event()
    endpoint.gates = {text: release for text, (id_, _) in answers.items() if id_ == bad}

    class Releasing:
        def post(self, url, json, **kwargs):
            if index[answers[json["prompt"]][0]] >= 30:
                release.set()
            return endpoint.post(url, json=json, **kwargs)

    def annotate(session):
        config = HttpGeneratorConfig(endpoint_url="http://generator.test/", model_name="m",
                                     max_retries=0, cache_dir=str(cache), max_in_flight=4)
        return annotate_dataset(dataset, http_client(config, session=session),
                                AnnotationOptions(failure_limit=0.0))

    with pytest.raises(AnnotationAborted):
        annotate(Releasing())
    posts = endpoint.posts
    assert endpoint.in_flight == [] and endpoint.gate_timeouts == []
    time.sleep(0.05)
    assert endpoint.posts == posts

    answered = {text for text in endpoint.seen if answers[text][0] != bad}
    assert any(index[answers[text][0]] >= 30 for text in answered)
    assert len(set(cache_log_keys(cache))) == len(answered)
    rerun = MockEndpoint(answers)
    triplets, stats = annotate(rerun)
    assert rerun.seen.isdisjoint(answered)
    assert stats.cache_hits == len(answered)
    assert rerun.posts == stats.generator_calls
    intended = corpus.intended_labels()
    assert [t.label for t in triplets] == [intended[ex.id] for ex, _ in dataset]


def warm(cache, answers, prompts) -> None:
    """Write the cache entries of ``prompts`` under ``cache``, fetched from a clean endpoint."""
    config = HttpGeneratorConfig(endpoint_url="http://generator.test/", model_name="m",
                                 cache_dir=str(cache))
    client = http_client(config, session=MockEndpoint(answers))
    for prompt in prompts:
        client.generate(prompt)


@pytest.mark.parametrize("width", [1, 4])
def test_one_client_reconciles_with_the_endpoint_over_annotate_run_and_sweep(
    tmp_path, monkeypatch, width
):
    """One client over an endpoint that fails the first attempt of 5% of prompts, with a
    cache warmed with half the prompts, serves annotation, a run and a sweep. In each
    stage every POST is a lookup that missed the cache or a retried fault; annotation's
    generator_calls + cache_hits are its lookups, and the run manifest's totals are the
    sums of its rows, its generator_calls the run's lookups."""
    corpus = make_synthetic_corpus(CorpusSpec(size=60), seed=9)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    answers = mock_answers(corpus, dataset)
    prompts = [assemble_prompt(example, retrieval.docs[:k])
               for example, retrieval in dataset for k in range(retrieval.n + 1)]
    cache = tmp_path / "cache"
    warm(cache, answers, prompts[::2])
    endpoint = MockEndpoint(answers, fault_rate=0.05)
    config = HttpGeneratorConfig(endpoint_url="http://generator.test/", model_name="m",
                                 backoff_base_s=0, cache_dir=str(cache), max_in_flight=width)
    client = http_client(config, session=endpoint)
    monkeypatch.setattr(ragtrim.pipeline, "build_generator", lambda config, data: client)
    paths = corpus.write(tmp_path / "corpus")
    run_config = PipelineConfig(
        examples_path=str(paths["examples"]), retrievals_path=str(paths["retrievals"]),
        triplets_path=str(tmp_path / "triplets.jsonl"),
        methods=["no_retrieval", "top_1", "top_3", "top_random", "oracle"], seed=9,
    )

    def counts():
        return client.calls, client.cache_hits, endpoint.posts, endpoint.faults

    def stage(work):
        before = counts()
        result = work()
        calls, hits, posts, faults = (after - b for after, b in zip(counts(), before))
        assert posts == (calls - hits) + faults
        return result, calls, hits

    (triplets, stats), calls, hits = stage(lambda: annotate_dataset(dataset, client))
    assert stats.failed == 0 and stats.cache_hits == hits > 0
    assert stats.generator_calls + stats.cache_hits == calls
    save_triplets(run_config.triplets_path, triplets)
    run, calls, hits = stage(lambda: run_pipeline(run_config))
    manifest = run.manifest
    for key in ("generator_calls", "cache_hits", "reused", "skipped"):
        assert manifest[key] == sum(entry[key] for entry in manifest["per_method"].values())
    assert manifest["generator_calls"] == calls and manifest["cache_hits"] == hits > 0
    stage(lambda: sweep_document_count(run_config))
    assert endpoint.faults > 0 and endpoint.doubled == []
    assert endpoint.peak_in_flight <= width


def test_generator_calls_excludes_hits_in_stats_and_includes_them_in_the_manifest(
    tmp_path, monkeypatch
):
    """Two output contracts name a count generator_calls. On a warm cache, stats.json's
    is the requests that reached the endpoint (none), and manifest.json's is the
    prompts each row sent to the client, cache hits included (generator_calls + reused
    == n)."""
    corpus = make_synthetic_corpus(CorpusSpec(size=30), seed=6)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    endpoint = MockEndpoint(mock_answers(corpus, dataset))
    serve(monkeypatch, endpoint)
    paths = corpus.write(tmp_path / "corpus")
    config = PipelineConfig(
        examples_path=str(paths["examples"]), retrievals_path=str(paths["retrievals"]),
        generator={"type": "http", "endpoint_url": "http://generator.test/",
                   "cache_dir": str(tmp_path / "cache")},
        methods=["top_1", "top_3"], seed=6, output_dir=str(tmp_path / "out"),
    )
    _, cold_stats = annotate_dataset(dataset, ragtrim.pipeline.build_generator(config, dataset))
    run_pipeline(config)
    posts = endpoint.posts
    _, warm_stats = annotate_dataset(dataset, ragtrim.pipeline.build_generator(config, dataset))
    run_pipeline(config)
    assert endpoint.posts == posts
    assert warm_stats.to_dict()["generator_calls"] == 0
    assert warm_stats.to_dict()["cache_hits"] == cold_stats.to_dict()["generator_calls"] > 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["generator_calls"] == manifest["cache_hits"] > 0
    for entry in manifest["per_method"].values():
        assert entry["generator_calls"] + entry["reused"] == manifest["n_examples"]
