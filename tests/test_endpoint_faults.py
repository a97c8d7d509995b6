"""Fault injection for the HTTP generator: one failure policy.

The client posts through ``generation.post_attempts``. A timeout, a reset or
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

import ragtrim.annotate
import ragtrim.generation
import ragtrim.pipeline
from ragtrim.annotate import AnnotationAborted, AnnotationOptions, annotate_dataset
from ragtrim.compress import assemble_prompt
from ragtrim.data import CompressionLabel, join_dataset, save_triplets
from ragtrim.generation import (
    CACHE_LOG,
    GeneratorClient,
    HttpGeneratorConfig,
    Prompt,
    ProtocolError,
    TransportError,
)
from ragtrim.pipeline import PipelineConfig, run_pipeline, sweep_document_count
from ragtrim.synth import CorpusSpec, make_synthetic_corpus
from helpers import (
    MockEndpoint, cache_log_keys, http_client, http_response, mock_answers, serve,
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


def test_widths_above_1_share_one_turn_order(tmp_path, monkeypatch):
    """Annotation, a run and a sweep through an endpoint that fails the first attempt of
    5% of prompts, at widths 1, 2, 4 and 8, each width with its own cache. Every width
    above 1 has the one line, here of 16 prompts, which the 60 searches refill. So
    widths 2, 4 and 8 make the same generate calls (each with its prompt and cache hits)
    and append the same lines to the cache log, in the same order. Annotation yields one
    probe at a time, and width 1, whose line holds one prompt, makes its calls search by
    search: the same calls and lines in another order. A run's or a sweep's search
    yields all its prompts at once, so theirs come in one order at every width."""
    corpus = make_synthetic_corpus(CorpusSpec(size=60), seed=9)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    answers = mock_answers(corpus, dataset)
    paths = corpus.write(tmp_path / "corpus")
    calls = []
    generate = GeneratorClient.generate

    def recorded_generate(client, prompt):
        hits = client.cache_hits
        output = generate(client, prompt)
        calls.append((prompt.text, client.cache_hits - hits))
        return output

    monkeypatch.setattr(GeneratorClient, "generate", recorded_generate)
    monkeypatch.setattr(ragtrim.generation, "PROMPTS_IN_LINE", 16)
    annotated, evaluated = {}, {}  # width -> (generate calls, cache log lines)
    for width in (1, 2, 4, 8):
        endpoint = MockEndpoint(answers, fault_rate=0.05)
        serve(monkeypatch, endpoint)
        log = tmp_path / f"cache{width}" / CACHE_LOG
        config = PipelineConfig(
            examples_path=str(paths["examples"]), retrievals_path=str(paths["retrievals"]),
            triplets_path=str(tmp_path / f"triplets{width}.jsonl"),
            generator={"type": "http", "endpoint_url": "http://generator.test/",
                       "model_name": "m", "backoff_base_s": 0.005,
                       "cache_dir": str(log.parent), "max_in_flight": width},
            methods=["no_retrieval", "top_1", "top_3", "top_random", "oracle"], seed=9,
        )
        calls.clear()
        triplets, _ = annotate_dataset(dataset, ragtrim.pipeline.build_generator(config, dataset))
        annotated[width] = (list(calls), log.read_bytes().splitlines())
        save_triplets(config.triplets_path, triplets)
        calls.clear()
        run_pipeline(config)
        sweep_document_count(config)
        evaluated[width] = (list(calls), log.read_bytes().splitlines()[len(annotated[width][1]):])
        assert endpoint.faults > 0 and endpoint.doubled == []
        assert endpoint.peak_in_flight <= width
    assert len(dataset) > 16  # more searches than the line holds
    assert annotated[2] == annotated[4] == annotated[8]
    assert evaluated[1] == evaluated[2] == evaluated[4] == evaluated[8]
    assert sum(hits for _, hits in evaluated[8][0]) > 0
    assert [sorted(part) for part in annotated[1]] == [sorted(part) for part in annotated[8]]
    assert annotated[1] != annotated[8]


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


def record_turns(monkeypatch) -> tuple[list[tuple[str, int]], list[Prompt]]:
    """The (text, cache hits) of each generate call, in order, and the prompts prefetched
    while a generate waited, which only searches run ahead of their turn yield."""
    calls, ahead, waiting = [], [], []
    generate, prefetch = GeneratorClient.generate, GeneratorClient.prefetch

    def recorded_generate(client, prompt):
        hits = client.cache_hits
        waiting.append(prompt)
        try:
            output = generate(client, prompt)
        finally:
            waiting.pop()
        calls.append((prompt.text, client.cache_hits - hits))
        return output

    def recorded_prefetch(client, prompts):
        if waiting:
            ahead.extend(prompts)
        return prefetch(client, prompts)

    monkeypatch.setattr(GeneratorClient, "generate", recorded_generate)
    monkeypatch.setattr(GeneratorClient, "prefetch", recorded_prefetch)
    return calls, ahead


def test_searches_run_ahead_in_one_turn_order_at_widths_2_4_and_8(tmp_path, monkeypatch):
    """Annotation, a run and a sweep through an endpoint that fails the first attempt of
    5% of prompts, with a line of 16 prompts and a backoff of 0.05 s: while generate
    waits out a retry, searches start or resume ahead of their turn, at every width and
    in every stage. Yet widths 2, 4 and 8 make the same generate calls (each with its
    prompt and cache hits) and append the same lines to the cache log, in order."""
    corpus = make_synthetic_corpus(CorpusSpec(size=60), seed=9)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    answers = mock_answers(corpus, dataset)
    paths = corpus.write(tmp_path / "corpus")
    monkeypatch.setattr(ragtrim.generation, "PROMPTS_IN_LINE", 16)
    calls, ahead = record_turns(monkeypatch)
    stages = {}  # width -> [(generate calls, cache log lines, prompts run ahead)] per stage
    for width in (2, 4, 8):
        serve(monkeypatch, MockEndpoint(answers, fault_rate=0.05))
        log = tmp_path / f"cache{width}" / CACHE_LOG
        config = PipelineConfig(
            examples_path=str(paths["examples"]), retrievals_path=str(paths["retrievals"]),
            triplets_path=str(tmp_path / f"triplets{width}.jsonl"),
            generator={"type": "http", "endpoint_url": "http://generator.test/",
                       "model_name": "m", "backoff_base_s": 0.05,
                       "cache_dir": str(log.parent), "max_in_flight": width},
            methods=["no_retrieval", "top_1", "top_3", "top_random", "oracle"], seed=9,
        )

        def annotate():
            client = ragtrim.pipeline.build_generator(config, dataset)
            save_triplets(config.triplets_path, annotate_dataset(dataset, client)[0])

        stages[width] = []
        for stage in (annotate, lambda: run_pipeline(config), lambda: sweep_document_count(config)):
            logged = len(log.read_bytes().splitlines()) if log.exists() else 0
            calls.clear()
            ahead.clear()
            stage()
            stages[width].append((list(calls), log.read_bytes().splitlines()[logged:],
                                  len(ahead)))
    assert all(ran_ahead > 0 for width in stages for _, _, ran_ahead in stages[width])
    assert [stage[:2] for stage in stages[2]] == [stage[:2] for stage in stages[4]] \
        == [stage[:2] for stage in stages[8]]


@pytest.mark.parametrize("stage", ["annotate", "run"])
def test_searches_beyond_the_line_are_posted_while_its_head_waits_out_a_backoff(
    tmp_path, monkeypatch, stage
):
    """Example 0's first prompt, the first head of the line, fails its first attempt and
    waits out a backoff of 0.3 s. Each search yields one prompt at a time here (an
    annotation's probe, from k = 1, or a run of top_1), so the line of 16 prompts holds
    examples 0 to 15. Searches run ahead of their turn while the head waits: those of
    examples 1 to 15 are resumed, and an annotation's searches labelled 1 end, so
    searches beyond the line start. A prompt of an example from 16 on is POSTed before
    the retry, and the outputs equal width 1's."""
    corpus = make_synthetic_corpus(CorpusSpec(size=60), seed=4)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    answers = mock_answers(corpus, dataset)
    paths = corpus.write(tmp_path / "corpus")
    position = {example.id: i for i, (example, _) in enumerate(dataset)}
    example, retrieval = dataset.pairs[0]
    head = assemble_prompt(example, retrieval.docs[:1]).text
    labels = corpus.intended_labels()
    assert any(labels[example.id] == CompressionLabel.keep(1) for example, _ in dataset.pairs[1:16])
    monkeypatch.setattr(ragtrim.generation, "PROMPTS_IN_LINE", 16)
    outputs = {}
    for width in (1, 8):
        endpoint = MockEndpoint(answers)
        posts: list[str] = []

        class FailingOnce:
            def post(self, url, json, **kwargs):
                posts.append(json["prompt"])
                if json["prompt"] == head and posts.count(head) == 1:
                    return http_response(503, b'{"error": "injected fault"}')
                return endpoint.post(url, json=json, **kwargs)

        serve(monkeypatch, FailingOnce())
        config = PipelineConfig(
            examples_path=str(paths["examples"]), retrievals_path=str(paths["retrievals"]),
            generator={"type": "http", "endpoint_url": "http://generator.test/",
                       "model_name": "m", "backoff_base_s": 0.3, "max_in_flight": width},
            methods=["top_1"], seed=4, output_dir=str(tmp_path / f"out{width}"),
        )
        if stage == "annotate":
            triplets, stats = annotate_dataset(
                dataset, ragtrim.pipeline.build_generator(config, dataset),
                AnnotationOptions(include_k0=False))
            outputs[width] = (triplets, stats.to_dict())
        else:
            run_pipeline(config)
            outputs[width] = (tmp_path / f"out{width}" / "table.csv").read_bytes()
        assert posts.count(head) == 2
    retry = [i for i, text in enumerate(posts) if text == head][1]
    assert max(position[answers[text][0]] for text in posts[:retry]) >= 16
    assert outputs[1] == outputs[8]


def test_an_annotation_that_runs_ahead_still_aborts_within_its_bound(monkeypatch):
    """200 examples of 5 documents. Every probe of examples 100 to 129 fails, so the 21st
    failure aborts, at example 120, and 5% of the other prompts fail a first attempt,
    retried 0.02 s later, so that searches run ahead while generate waits. With a line
    of 8 prompts, as no search starts ahead while 8 are alive, width 8 POSTs at most
    (5 + 2) × 8 distinct prompts more than width 1 does, and keeps width 1's triplets."""
    corpus = make_synthetic_corpus(CorpusSpec(size=200), seed=17)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    answers = mock_answers(corpus, dataset)
    monkeypatch.setattr(ragtrim.generation, "PROMPTS_IN_LINE", 8)
    _, ahead = record_turns(monkeypatch)
    alive, peak = set(), [0]  # the examples whose search is under way; the most at once
    find, abort_point = ragtrim.annotate.find_optimal_k, ragtrim.annotate._abort_point

    def counted_find(example, *args):
        alive.add(example.id)
        peak[0] = max(peak[0], len(alive))
        try:
            return (yield from find(example, *args))
        finally:  # once it ends, or once its search is closed
            alive.discard(example.id)

    def counted_abort_point(failed, total, failure_limit):
        alive.discard(dataset.pairs[failed[-1]][0].id)  # its search ends on this failure
        return abort_point(failed, total, failure_limit)

    monkeypatch.setattr(ragtrim.annotate, "find_optimal_k", counted_find)
    monkeypatch.setattr(ragtrim.annotate, "_abort_point", counted_abort_point)
    sent, kept = {}, {}
    for width in (1, 8):
        endpoint = MockEndpoint(answers, fault_rate=0.05,
                                failing=[example.id for example, _ in dataset.pairs[100:130]])
        config = HttpGeneratorConfig(endpoint_url="http://generator.test/", model_name="m",
                                     backoff_base_s=0.02, max_retries=1, max_in_flight=width)
        with pytest.raises(AnnotationAborted) as excinfo:
            annotate_dataset(dataset, http_client(config, session=endpoint))
        assert endpoint.in_flight == [] and excinfo.value.stats.failed == 21
        sent[width], kept[width] = len(endpoint.seen), excinfo.value.triplets
    assert ahead and peak[0] == 8  # searches ran ahead at width 8, 8 at most at once
    assert sent[8] <= sent[1] + (5 + 2) * 8
    assert kept[1] == kept[8]


def test_a_failing_run_that_runs_ahead_sends_at_most_2_lines_beyond_width_1(
    tmp_path, monkeypatch
):
    """Every prompt of example 30 fails, which stops a run of top_1, top_3 and top_5, and
    5% of the other prompts fail a first attempt, retried 0.02 s later, so that searches
    run ahead. With a line of 8 prompts, width 8 POSTs at most 2 × 8 distinct prompts
    more than width 1 does, those of the line and those held ahead, plus the rest of the
    last tuple in each (2 of its 3 prompts)."""
    corpus = make_synthetic_corpus(CorpusSpec(size=60), seed=5)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    paths = corpus.write(tmp_path / "corpus")
    monkeypatch.setattr(ragtrim.generation, "PROMPTS_IN_LINE", 8)
    _, ahead = record_turns(monkeypatch)
    sent = {}
    for width in (1, 8):
        endpoint = MockEndpoint(mock_answers(corpus, dataset), fault_rate=0.05,
                                failing=[dataset.pairs[30][0].id])
        serve(monkeypatch, endpoint)
        config = PipelineConfig(
            examples_path=str(paths["examples"]), retrievals_path=str(paths["retrievals"]),
            generator={"type": "http", "endpoint_url": "http://generator.test/",
                       "model_name": "m", "backoff_base_s": 0.02, "max_retries": 1,
                       "max_in_flight": width},
            methods=["top_1", "top_3", "top_5"], seed=5,
        )
        with pytest.raises(TransportError):
            run_pipeline(config)
        assert endpoint.in_flight == []
        sent[width] = len(endpoint.seen)
    assert ahead
    assert sent[1] < sent[8] <= sent[1] + 2 * 8 + 2 * (3 - 1)


@pytest.mark.parametrize("width", [1, 8])
def test_the_client_counts_each_retry_the_endpoint_caused(tmp_path, monkeypatch, width):
    """One client serves annotation, a run and a sweep through an endpoint that fails the
    first attempt of 5% of prompts. Its retries, made on the calling thread at width 1
    and by the workers at width 8, where searches also run ahead, equal the faults: a
    search run ahead makes no attempt of its own."""
    corpus = make_synthetic_corpus(CorpusSpec(size=60), seed=9)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    endpoint = MockEndpoint(mock_answers(corpus, dataset), fault_rate=0.05)
    config = HttpGeneratorConfig(endpoint_url="http://generator.test/", model_name="m",
                                 backoff_base_s=0.01, max_in_flight=width)
    client = http_client(config, session=endpoint)
    monkeypatch.setattr(ragtrim.pipeline, "build_generator", lambda config, data: client)
    paths = corpus.write(tmp_path / "corpus")
    run_config = PipelineConfig(
        examples_path=str(paths["examples"]), retrievals_path=str(paths["retrievals"]),
        triplets_path=str(tmp_path / "triplets.jsonl"),
        methods=["no_retrieval", "top_1", "top_3", "top_random", "oracle"], seed=9,
    )
    triplets, _ = annotate_dataset(dataset, client)
    save_triplets(run_config.triplets_path, triplets)
    run_pipeline(run_config)
    sweep_document_count(run_config)
    assert client.retries == endpoint.faults > 0


def test_width_1_annotate_and_run_start_no_thread(tmp_path, monkeypatch):
    """At width 1, annotation and a run through an endpoint that fails the first attempt
    of 5% of prompts start no thread: every attempt, each retry included, is made on
    the calling thread."""
    corpus = make_synthetic_corpus(CorpusSpec(size=40), seed=9)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    endpoint = MockEndpoint(mock_answers(corpus, dataset), fault_rate=0.05)
    caller, elsewhere, started = threading.current_thread(), [], []

    class Recording:
        def post(self, url, json, **kwargs):
            if threading.current_thread() is not caller:
                elsewhere.append(json["prompt"])
            return endpoint.post(url, json=json, **kwargs)

    start = threading.Thread.start

    def recorded_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    config = HttpGeneratorConfig(endpoint_url="http://generator.test/", model_name="m",
                                 backoff_base_s=0.001, max_in_flight=1)
    client = http_client(config, session=Recording())
    monkeypatch.setattr(ragtrim.pipeline, "build_generator", lambda config, data: client)
    paths = corpus.write(tmp_path / "corpus")
    run_config = PipelineConfig(
        examples_path=str(paths["examples"]), retrievals_path=str(paths["retrievals"]),
        triplets_path=str(tmp_path / "triplets.jsonl"), methods=["top_1", "top_3"], seed=9,
    )
    triplets, _ = annotate_dataset(dataset, client)
    save_triplets(run_config.triplets_path, triplets)
    run_pipeline(run_config)
    assert started == [] and elsewhere == []
    assert client.retries == endpoint.faults > 0
    assert endpoint.posts == client.calls + endpoint.faults
