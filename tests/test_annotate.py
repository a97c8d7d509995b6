"""Minimal-k search: correctness, minimality, failure handling, determinism."""

from __future__ import annotations

import threading

import pytest

from ragtrim.annotate import (
    AnnotationAborted,
    AnnotationOptions,
    annotate_dataset,
    find_optimal_k,
    select_top_k,
)
from ragtrim.compress import assemble_prompt
from ragtrim.data import CompressionLabel, join_dataset, save_triplets
import ragtrim.generation
from ragtrim.generation import (
    GeneratorClient,
    HttpGeneratorConfig,
    JudgeMode,
    MockOracleBackend,
    MockOracleConfig,
    TransportError,
    judge_correct,
)
from ragtrim.synth import CorpusSpec, make_synthetic_corpus, mock_client_for
from helpers import (
    FailingBackend,
    MockEndpoint,
    ScriptedBackend,
    http_client,
    http_response,
    make_example,
    make_retrieval,
    mock_answers,
)


def search(example, retrieval, client, **options):
    """The label find_optimal_k finds when ``client`` answers each of its probes."""
    probes = find_optimal_k(example, retrieval, **options)
    try:
        prompt = next(probes)
        while True:
            prompt = probes.send(client.generate(prompt))
    except StopIteration as done:
        return done.value


def endpoint_client(endpoint, max_in_flight, **config):
    """An HTTP client posting to ``endpoint`` (a MockEndpoint) with no backoff sleeps."""
    config = HttpGeneratorConfig(endpoint_url="http://generator.test/", model_name="m",
                                 backoff_base_s=0, max_in_flight=max_in_flight, **config)
    return http_client(config, session=endpoint)


def oracle_for(example, closed_book=False):
    return GeneratorClient(MockOracleBackend(
        MockOracleConfig(),
        {example.id: example.gold_answers},
        closed_book_ids=[example.id] if closed_book else [],
    ))


class TestSelectTopK:
    def test_prefix(self):
        retrieval = make_retrieval(texts=[f"doc {i}" for i in range(5)])
        assert [d.rank for d in select_top_k(retrieval, 3)] == [1, 2, 3]

    def test_zero_gives_empty(self):
        retrieval = make_retrieval(texts=["a", "b"])
        assert select_top_k(retrieval, 0) == []

    def test_out_of_range(self):
        retrieval = make_retrieval(texts=[f"doc {i}" for i in range(5)])
        with pytest.raises(ValueError, match="out of range"):
            select_top_k(retrieval, 6)
        with pytest.raises(ValueError):
            select_top_k(retrieval, -1)


class TestFindOptimalK:
    def test_evidence_at_rank_two(self):
        example = make_example(query="what is the capital", answers=("Paris",))
        retrieval = make_retrieval(
            texts=["nothing useful here", "the capital is Paris", "more filler", "noise", "noise two"]
        )
        client = oracle_for(example)
        label = search(example, retrieval, client)
        assert label == CompressionLabel.keep(2)
        # Brute-force recheck: judge every prefix size independently.
        outcomes = {}
        for k in range(0, retrieval.n + 1):
            prompt = assemble_prompt(example, retrieval.docs[:k])
            outcomes[k] = judge_correct(client.generate(prompt), example.gold_answers)
        assert outcomes == {0: False, 1: False, 2: True, 3: True, 4: True, 5: True}

    def test_evidence_at_rank_one_stops_early(self):
        example = make_example(answers=("Shakespeare",))
        retrieval = make_retrieval(texts=["written by William Shakespeare", "noise", "noise"])
        client = oracle_for(example)
        assert search(example, retrieval, client) == CompressionLabel.keep(1)
        assert client.calls == 2  # k=0 probe plus the first successful prefix

    def test_closed_book_gives_zero(self):
        example = make_example(answers=("Paris",))
        retrieval = make_retrieval(texts=["noise", "noise"])
        client = oracle_for(example, closed_book=True)
        assert search(example, retrieval, client) == CompressionLabel.keep(0)

    def test_k0_probe_can_be_disabled(self):
        example = make_example(answers=("Paris",))
        retrieval = make_retrieval(texts=["noise", "noise"])
        client = oracle_for(example, closed_book=True)
        label = search(example, retrieval, client, include_k0=False)
        assert label.is_unanswerable

    def test_no_prefix_suffices(self):
        example = make_example(answers=("Paris",))
        retrieval = make_retrieval(texts=["noise", "more noise"])
        assert search(example, retrieval, oracle_for(example)).is_unanswerable

    def test_transport_error_propagates(self):
        example = make_example()
        retrieval = make_retrieval()
        with pytest.raises(TransportError):
            search(example, retrieval, GeneratorClient(FailingBackend()))


class SometimesFailingBackend:
    """Delegates to a mock oracle backend except for the listed example ids."""

    def __init__(self, inner, failing_ids):
        self.inner = inner
        self.failing_ids = set(failing_ids)

    def fetch(self, prompt):
        if prompt.query_id in self.failing_ids:
            raise TransportError(f"outage for {prompt.query_id}")
        return self.inner.fetch(prompt)

    def fingerprint(self):
        return self.inner.fingerprint()


def sometimes_failing(corpus, failing_ids):
    """The corpus's mock client, failing every probe of ``failing_ids``."""
    return GeneratorClient(SometimesFailingBackend(mock_client_for(corpus).backend, failing_ids))


class TestAnnotateDataset:
    def make_corpus(self, size=40, seed=17):
        corpus = make_synthetic_corpus(CorpusSpec(size=size), seed=seed)
        dataset = join_dataset(corpus.examples, corpus.retrievals)
        return corpus, dataset

    def test_labels_match_plan_with_minimality(self):
        corpus, dataset = self.make_corpus()
        client = mock_client_for(corpus)
        triplets, stats = annotate_dataset(dataset, client)
        assert stats.annotated == len(dataset)
        intended = corpus.intended_labels()
        assert all(t.label == intended[t.example_id] for t in triplets)
        # Exhaustive minimality recheck: judged true at k, false below.
        index = dataset.index()
        for t in triplets:
            if t.label.is_unanswerable:
                continue
            example, retrieval = index[t.example_id]
            for k in range(0, t.label.k + 1):
                prompt = assemble_prompt(example, retrieval.docs[:k])
                verdict = judge_correct(client.generate(prompt), example.gold_answers)
                assert verdict == (k == t.label.k)

    def test_histogram_and_call_budget(self):
        corpus, dataset = self.make_corpus()
        client = mock_client_for(corpus)
        triplets, stats = annotate_dataset(dataset, client)
        assert (stats.generator_calls, stats.cache_hits) == (client.calls, 0)
        histogram_total = sum(stats.label_histogram.values())
        assert histogram_total == len(triplets)
        assert stats.unanswerable_count == stats.label_histogram.get("unanswerable", 0)
        # Worst case is N+1 generator calls per example with the k=0 probe on.
        assert stats.generator_calls <= len(dataset) * 6

    def test_byte_identical_across_runs_and_widths(self, tmp_path):
        """The mock, and an endpoint serving it at max_in_flight 1, 1 and 4: the same
        triplets and stats, and the same requests at every width."""
        corpus, dataset = self.make_corpus()
        answers = mock_answers(corpus, dataset)
        outputs, stats, posts = [], [], []
        for width in (None, 1, 1, 4):
            endpoint = MockEndpoint(answers, delay_s=0.001)
            client = mock_client_for(corpus) if width is None else endpoint_client(endpoint, width)
            triplets, run_stats = annotate_dataset(dataset, client)
            path = tmp_path / f"t{len(outputs)}.jsonl"
            save_triplets(path, triplets)
            outputs.append(path.read_text().replace(client.fingerprint(), "generator"))
            stats.append(run_stats.to_dict())
            posts.append(endpoint.posts)
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
        assert stats[0] == stats[1] == stats[2] == stats[3]
        assert posts[1:] == [stats[0]["generator_calls"]] * 3
        assert endpoint.peak_in_flight > 1 and endpoint.doubled == []

    def test_lookahead_keeps_the_other_slots_busy_while_one_probe_is_held(self):
        """The endpoint holds example 0's first probe until a probe of example 8 or later
        arrives, so at width 4 the other slots must work through the probes of searches
        beyond the first 2 × 4 while it is held. No more than 4 POSTs or one prompt twice
        are in flight, and the triplets, stats and POSTs equal width 1's."""
        corpus, dataset = self.make_corpus(size=30)
        answers = mock_answers(corpus, dataset)
        index = {example.id: i for i, (example, _) in enumerate(dataset)}
        example, retrieval = dataset.pairs[0]
        held = assemble_prompt(example, select_top_k(retrieval, 0)).text
        results = {}
        for width in (1, 4):
            endpoint = MockEndpoint(answers)
            release = threading.Event()
            if width > 1:  # width 1 would wait for example 8 until the gate times out
                endpoint.gates[held] = release

            class Releasing:
                def post(self, url, json, **kwargs):
                    if index[answers[json["prompt"]][0]] >= 8:
                        release.set()
                    return endpoint.post(url, json=json, **kwargs)

            triplets, stats = annotate_dataset(dataset, endpoint_client(Releasing(), width))
            results[width] = (triplets, stats.to_dict(), endpoint.posts)
            assert endpoint.peak_in_flight <= width and endpoint.doubled == []
            assert endpoint.gate_timeouts == []
        assert results[1] == results[4]

    def test_the_window_refills_in_the_turn_order_of_width_1(self, monkeypatch):
        """200 examples at width 2, more than its line of 64 queued probes (one per
        search), through an endpoint that fails the first attempt of 5% of prompts: the
        same triplets, stats, POSTs and faults as at width 1, and never one prompt twice
        in flight."""
        monkeypatch.setattr(ragtrim.generation, "PROMPTS_IN_LINE", 64)
        corpus, dataset = self.make_corpus(size=200)
        assert len(dataset) > ragtrim.generation.PROMPTS_IN_LINE
        answers = mock_answers(corpus, dataset)
        results = {}
        for width in (1, 2):
            endpoint = MockEndpoint(answers, fault_rate=0.05)
            triplets, stats = annotate_dataset(dataset, endpoint_client(endpoint, width))
            results[width] = (triplets, stats.to_dict(), endpoint.posts, endpoint.faults)
            assert endpoint.peak_in_flight <= width and endpoint.doubled == []
        assert results[1] == results[2]
        assert results[2][3] > 0

    def test_abort_at_total_failure(self):
        corpus, dataset = self.make_corpus(size=1)
        with pytest.raises(AnnotationAborted) as excinfo:
            annotate_dataset(dataset, GeneratorClient(FailingBackend()))
        assert excinfo.value.stats.failed == 1
        assert excinfo.value.triplets == []

    def test_failures_below_limit_are_skipped_not_fatal(self):
        corpus, dataset = self.make_corpus(size=40)
        failing_id = dataset.pairs[3][0].id
        client = sometimes_failing(corpus, [failing_id])
        triplets, stats = annotate_dataset(dataset, client)
        assert stats.failed == 1
        assert stats.annotated == 39
        assert failing_id not in {t.example_id for t in triplets}

    def test_abort_above_limit_keeps_partial_results(self):
        corpus, dataset = self.make_corpus(size=20)
        failing = [e.id for e, _ in dataset.pairs[:5]]
        client = sometimes_failing(corpus, failing)
        with pytest.raises(AnnotationAborted) as excinfo:
            annotate_dataset(dataset, client, AnnotationOptions(failure_limit=0.10))
        assert excinfo.value.stats.failed >= 3  # 3/20 is the first point past 10%
        assert excinfo.value.stats.generator_calls == client.calls > 0
        assert all(t.example_id not in failing for t in excinfo.value.triplets)

    def test_wide_annotation_stops_soon_after_an_abort(self):
        """The first 30 of 200 examples fail at their first probe, so the 21st failure
        aborts. At width 4 the other examples' probes still in flight then finish, and
        nothing else is sent: at most 3 requests more than at width 1."""
        corpus, dataset = self.make_corpus(size=200)
        failing = [e.id for e, _ in dataset.pairs[:30]]
        posts = {}
        for width in (1, 4):
            endpoint = MockEndpoint(mock_answers(corpus, dataset), failing=failing)
            client = endpoint_client(endpoint, width, max_retries=0)
            with pytest.raises(AnnotationAborted) as excinfo:
                annotate_dataset(dataset, client)
            assert endpoint.in_flight == []  # the abort waited for the started prefetches
            assert excinfo.value.stats.failed == 21
            posts[width] = endpoint.posts
        assert posts[1] == 21
        assert posts[4] <= posts[1] + (4 - 1)

    def test_a_wide_client_holds_its_queued_probes_while_the_endpoint_is_down(self):
        """Every POST gets a 503, and each prompt is retried twice, 10 ms and 20 ms later.
        At width 4, once 4 attempts in a row have failed, no queued probe starts on a
        worker while those retries wait: each is queued again, first, in its turn, as at
        width 1.
        So the abort sends at most the attempts of 2 × 4 - 2 prompts more than width 1,
        not those of every queued probe."""
        corpus, dataset = self.make_corpus(size=200)
        posts = {}
        for width in (1, 4):
            endpoint = MockEndpoint(mock_answers(corpus, dataset),
                                    failing=[example.id for example, _ in dataset.pairs])
            config = HttpGeneratorConfig(endpoint_url="http://generator.test/", model_name="m",
                                         backoff_base_s=0.01, max_retries=2, max_in_flight=width)
            with pytest.raises(AnnotationAborted) as excinfo:
                annotate_dataset(dataset, http_client(config, session=endpoint))
            assert endpoint.in_flight == []  # the abort waited for the parked retries
            assert excinfo.value.stats.failed == 21
            posts[width] = endpoint.posts
        assert posts[1] == 21 * 3
        assert posts[4] <= posts[1] + (2 * 4 - 2) * 3

    def test_a_wide_abort_stops_where_width_1_does(self):
        """The k=2 probes of 12 examples among the first 100 fail, and so does every probe
        of examples 100 to 129, so the 21st failure in dataset order is example 108's. At
        width 4 the turns reach the later failures first, yet the abort keeps width 1's
        triplets (those of the first 100 examples that did not fail), message and stats,
        but for the counts of requests."""
        corpus, dataset = self.make_corpus(size=200)
        answers = mock_answers(corpus, dataset)
        intended = corpus.intended_labels()
        deep = [(example, retrieval) for example, retrieval in dataset.pairs[:100]
                if intended[example.id].is_unanswerable or intended[example.id].k >= 2][:12]
        assert len(deep) == 12
        failing = {assemble_prompt(example, select_top_k(retrieval, 2)).text
                   for example, retrieval in deep}

        class Failing:
            def __init__(self):
                self.endpoint = MockEndpoint(
                    answers, failing=[example.id for example, _ in dataset.pairs[100:130]])

            def post(self, url, json, **kwargs):
                if json["prompt"] in failing:
                    return http_response(503, b'{"error": "injected fault"}')
                return self.endpoint.post(url, json=json, **kwargs)

        outcomes = {}
        for width in (1, 4):
            with pytest.raises(AnnotationAborted) as excinfo:
                annotate_dataset(dataset, endpoint_client(Failing(), width, max_retries=0))
            stats = excinfo.value.stats.to_dict()
            for count in ("generator_calls", "cache_hits", "cache_hit_rate"):
                del stats[count]
            outcomes[width] = (str(excinfo.value), excinfo.value.triplets, stats)
        assert outcomes[1] == outcomes[4]
        kept = {example.id for example, _ in dataset.pairs[:100]}
        kept -= {example.id for example, _ in deep}
        assert {t.example_id for t in outcomes[4][1]} == kept
        assert outcomes[4][2]["failed"] == 21

    def test_only_rank_prefixes_are_evaluated(self):
        example = make_example(id="p1", query="what is it", answers=("zz",))
        retrieval = make_retrieval(query_id="p1", texts=["alpha", "beta", "gamma", "delta"])
        backend = ScriptedBackend({})
        dataset = join_dataset([example], {"p1": retrieval})
        annotate_dataset(dataset, GeneratorClient(backend))
        all_texts = [d.text for d in retrieval.docs]
        for prompt in backend.prompts:
            size = len(prompt.context_docs)
            assert list(prompt.context_docs) == all_texts[:size]

    def test_reannotation_under_new_judge_is_served_by_the_disk_cache(self, tmp_path):
        corpus, dataset = self.make_corpus(size=10)
        mock = mock_client_for(corpus)
        answers = {}  # prompt text -> the mock's answer, so the endpoint behaves like the mock
        for example, retrieval in dataset:
            for k in range(retrieval.n + 1):
                prompt = assemble_prompt(example, retrieval.docs[:k])
                answers[prompt.text] = mock.generate(prompt)
        posts = []

        class Response:
            status_code = 200

            def __init__(self, text):
                self.text = text

            def json(self):
                return {"text": self.text}

        class CountingSession:
            def post(self, url, json, **kwargs):
                posts.append(json["prompt"])
                return Response(answers[json["prompt"]])

        def annotate(judge):
            config = HttpGeneratorConfig(
                endpoint_url="http://generator.test/", model_name="m", cache_dir=str(tmp_path)
            )
            client = http_client(config, session=CountingSession())
            options = AnnotationOptions(judge_mode=JudgeMode.parse(judge))
            return annotate_dataset(dataset, client, options)

        first, first_stats = annotate("em")
        assert first_stats.generator_calls == len(posts) > 0
        assert first_stats.cache_hits == 0
        second, stats = annotate("f1:0.6")
        index = dataset.index()
        lookups = sum(
            index[t.example_id][1].n + 1 if t.label.is_unanswerable else t.label.k + 1
            for t in second
        )
        assert len(posts) == first_stats.generator_calls  # nothing sent on the second pass
        assert stats.generator_calls == 0
        assert stats.cache_hits == lookups == first_stats.generator_calls
        assert stats.cache_hit_rate == 1.0
        assert stats.annotated == 10
        assert [t.label for t in second] == [t.label for t in first]
        intended = corpus.intended_labels()
        assert all(t.label == intended[t.example_id] for t in second)
