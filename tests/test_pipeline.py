"""End-to-end runs, sweep curves, confusion rendering, CLI verbs."""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace

import pytest

from ragtrim.annotate import annotate_dataset
from ragtrim.cli import main as cli_main
from ragtrim.data import (
    DataError,
    join_dataset,
    load_examples,
    load_retrievals,
    load_triplets,
    save_examples,
    save_triplets,
)
from ragtrim.generation import GeneratorClient, MockOracleBackend
from ragtrim.pipeline import (
    ConfigError,
    PipelineConfig,
    RunResult,
    build_generator,
    format_table_csv,
    load_pipeline_config,
    render_confusion,
    report_confusion,
    run_pipeline,
    sweep_document_count,
    write_run_outputs,
)
from ragtrim.predictor import PredictorReport, RandomKPredictor, TrainConfig, save_model, train
from ragtrim.synth import CorpusSpec, make_synthetic_corpus, mock_client_for
from helpers import MockEndpoint, cache_log_keys, mock_answers, serve

WEIGHTS = {"0": 0.10, "1": 0.30, "2": 0.20, "3": 0.15, "4": 0.10, "5": 0.05, "none": 0.10}
ALL_METHODS = ["no_retrieval", "top_1", "top_5", "top_random", "only_doc", "adaptive", "oracle"]


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """Corpus + annotations + trained model, shared across pipeline tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = make_synthetic_corpus(CorpusSpec(size=120, depth_weights=WEIGHTS), seed=31)
    paths = corpus.write(root)
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    triplets, _ = annotate_dataset(dataset, mock_client_for(corpus))
    triplets_path = root / "triplets.jsonl"
    save_triplets(triplets_path, triplets)
    model, _ = train(triplets, dataset, TrainConfig(epochs=80, seed=1))
    model_path = root / "model.json"
    save_model(model_path, model)
    return {
        "root": root,
        "examples": str(paths["examples"]),
        "retrievals": str(paths["retrievals"]),
        "plan": str(paths["plan"]),
        "triplets": str(triplets_path),
        "model": str(model_path),
    }


def base_config(prepared, out_dir=None, methods=None, generator=None):
    return PipelineConfig(
        examples_path=prepared["examples"],
        retrievals_path=prepared["retrievals"],
        triplets_path=prepared["triplets"],
        generator=generator or {"type": "mock", "closed_book_plan": prepared["plan"]},
        predictors=[{"name": "adaptive", "type": "model", "path": prepared["model"]}],
        methods=methods or list(ALL_METHODS),
        seed=5,
        output_dir=str(out_dir) if out_dir else None,
    )


class TestConfigValidation:
    def test_missing_file_fails_before_generation(self, prepared, monkeypatch):
        """Each file the run reads is opened before the first generator call."""
        monkeypatch.setattr(MockOracleBackend, "fetch", None)  # a call would raise TypeError
        for key in ("examples", "retrievals", "triplets", "plan", "model"):
            config = base_config({**prepared, key: str(prepared["root"] / f"nope_{key}")})
            with pytest.raises(DataError, match=f"nope_{key}"):
                run_pipeline(config)

    def test_empty_methods_rejected(self, prepared):
        config = PipelineConfig.from_dict(
            {"datasets": {"examples": prepared["examples"], "retrievals": prepared["retrievals"]}}
        )
        assert config.methods == []  # annotation reads a config without methods
        with pytest.raises(ConfigError, match="method"):
            run_pipeline(config)

    def test_oracle_requires_triplets(self, prepared):
        config = base_config(prepared, methods=["oracle"])
        config.triplets_path = None
        with pytest.raises(ConfigError, match="oracle"):
            run_pipeline(config)

    def test_adaptive_requires_predictor(self, prepared):
        config = base_config(prepared, methods=["adaptive"])
        config.predictors = []
        with pytest.raises(ConfigError, match="adaptive"):
            run_pipeline(config)

    def test_unknown_method_rejected(self, prepared):
        config = base_config(prepared, methods=["top_none"])
        with pytest.raises(ConfigError, match="unknown method"):
            run_pipeline(config)

    def test_http_generator_without_endpoint_fails_before_generation(
        self, prepared, tmp_path, capsys
    ):
        config = base_config(prepared, generator={"type": "http"})
        with pytest.raises(ConfigError, match="endpoint_url"):
            run_pipeline(config)
        with pytest.raises(ConfigError, match="endpoint_url"):
            sweep_document_count(config)
        raw = {
            "datasets": {"examples": prepared["examples"], "retrievals": prepared["retrievals"]},
            "generator": {"type": "http"},
            "methods": ["top_1"],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("ERROR: http generator requires endpoint_url")

    def test_config_file_loading_resolves_paths(self, prepared, tmp_path):
        raw = {
            "datasets": {
                "examples": prepared["examples"],
                "retrievals": prepared["retrievals"],
            },
            "methods": ["top_1"],
            "output_dir": "out",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        config = load_pipeline_config(path)
        assert config.output_dir == str(tmp_path / "out")


class TestRunPipeline:
    def test_rows_follow_config_order(self, prepared):
        run = run_pipeline(base_config(prepared))
        assert [m.name for m in run.methods] == ALL_METHODS

    def test_generator_call_budget_accounting(self, prepared):
        run = run_pipeline(base_config(prepared))
        manifest = run.manifest
        for key in ("generator_calls", "cache_hits", "reused", "skipped"):
            assert manifest[key] == sum(entry[key] for entry in manifest["per_method"].values())
        # Every scored row either sent its prompt or reused an earlier identical one.
        for m in run.methods:
            assert m.generator_calls + m.reused == m.report.n
            assert manifest["per_method"][m.name]["reused"] == m.reused
        assert manifest["reused"] > 0  # top_k prefixes repeat across rows

    def test_oracle_examples_without_a_label_are_counted_skipped(self, prepared, tmp_path):
        triplets = load_triplets(prepared["triplets"])
        save_triplets(tmp_path / "some.jsonl", triplets[::3])
        config = base_config(prepared, methods=["top_1", "oracle"])
        config.triplets_path = str(tmp_path / "some.jsonl")
        manifest = run_pipeline(config).manifest
        oracle = manifest["per_method"]["oracle"]
        assert oracle["skipped"] == len(triplets) - len(triplets[::3]) > 0
        assert manifest["per_method"]["top_1"]["skipped"] == 0
        assert manifest["skipped"] == oracle["skipped"]
        for entry in manifest["per_method"].values():
            assert entry["generator_calls"] + entry["reused"] + entry["skipped"] == (
                manifest["n_examples"])

    def test_outputs_written_and_deterministic(self, prepared):
        out_a = prepared["root"] / "out_a"
        out_b = prepared["root"] / "out_b"
        run_pipeline(base_config(prepared, out_dir=out_a))
        run_pipeline(base_config(prepared, out_dir=out_b))
        table_a = (out_a / "table.csv").read_bytes()
        assert table_a == (out_b / "table.csv").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()
        header = table_a.decode().splitlines()[0]
        assert header.startswith("method,n,avg_docs,mean_tokens,em,f1")

    def test_oracle_row_upper_bounds_adaptive(self, prepared):
        run = run_pipeline(base_config(prepared))
        by = run.by_name()
        assert by["oracle"].report.em >= by["adaptive"].report.em
        assert by["adaptive"].report.em >= by["top_1"].report.em

    def test_no_retrieval_em_equals_closed_book_rate(self, prepared):
        run = run_pipeline(base_config(prepared, methods=["no_retrieval"]))
        from ragtrim.synth import load_plan

        plan = load_plan(prepared["plan"])
        closed_rate = sum(1 for e in plan if e.closed_book) / len(plan)
        assert run.methods[0].report.em == pytest.approx(closed_rate)


class CountingClient:
    """Generator client wrapper recording every prompt it is asked to generate; other
    attributes (counters, prefetch, width) read through to the client it wraps."""

    def __init__(self, inner):
        self.inner = inner
        self.seen: list[tuple[str, str]] = []

    def generate(self, prompt):
        self.seen.append((prompt.query_id, prompt.text))
        return self.inner.generate(prompt)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture
def built_clients(monkeypatch):
    """Every client ragtrim.pipeline.build_generator returns, wrapped in a CountingClient."""
    import ragtrim.pipeline

    build = ragtrim.pipeline.build_generator
    built: list[CountingClient] = []

    def counting_build(config, dataset):
        built.append(CountingClient(build(config, dataset)))
        return built[-1]

    monkeypatch.setattr(ragtrim.pipeline, "build_generator", counting_build)
    return built


@pytest.fixture
def contexts_made(monkeypatch):
    """Every context ragtrim.pipeline's compress and only_doc_select return, in order: each
    row of a run gets its context from one of them."""
    import ragtrim.pipeline

    made = []
    for name in ("compress", "only_doc_select"):
        def spy(*args, make=getattr(ragtrim.pipeline, name), **kwargs):
            made.append(make(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(ragtrim.pipeline, name, spy)
    return made


class TestPromptDedup:
    def test_each_distinct_prompt_generated_once(self, prepared, built_clients, contexts_made):
        run = run_pipeline(base_config(prepared))
        [client] = built_clients
        assert len(client.seen) == len(set(client.seen)) == run.manifest["generator_calls"]
        produced = {(ctx.prompt.query_id, ctx.prompt.text) for ctx in contexts_made}
        assert set(client.seen) == produced
        assert sum(m.report.n for m in run.methods) > len(produced)

    def test_outputs_match_each_method_run_alone(self, prepared):
        together = prepared["root"] / "out_together"
        run_pipeline(base_config(prepared, out_dir=together))
        alone = [run_pipeline(base_config(prepared, methods=[m])).methods[0] for m in ALL_METHODS]
        expected = prepared["root"] / "out_alone"
        write_run_outputs(RunResult(alone, manifest={}), base_config(prepared, out_dir=expected))
        for name in ("table.csv", "reports.json"):
            assert (together / name).read_bytes() == (expected / name).read_bytes()

    def test_top_random_keeps_its_seeded_draws(self, prepared):
        run = run_pipeline(base_config(prepared))
        dataset = join_dataset(
            load_examples(prepared["examples"]), load_retrievals(prepared["retrievals"])
        )
        min_n = min(retrieval.n for _, retrieval in dataset)
        predictor = RandomKPredictor(5, k_range=range(1, min_n + 1))
        draws = [predictor.predict_label(ex, retrieval).k for ex, retrieval in dataset]
        assert [r.k for r in run.by_name()["top_random"].results] == draws


class TestRequestsInFlight:
    def test_four_in_flight_halve_the_wall_time_and_change_no_output(self, tmp_path, monkeypatch):
        """A 20 ms endpoint: at max_in_flight 4 a run takes at most half the time it takes
        at 1, never has more than 4 POSTs or one prompt twice in flight, and writes the
        same table.csv and manifest.json."""
        corpus = make_synthetic_corpus(CorpusSpec(size=40), seed=8)
        paths = corpus.write(tmp_path / "corpus")
        answers = mock_answers(corpus, join_dataset(corpus.examples, corpus.retrievals))
        seconds, outputs = {}, {}
        for width in (1, 4):
            endpoint = MockEndpoint(answers, delay_s=0.02)
            serve(monkeypatch, endpoint)
            out = tmp_path / f"out{width}"
            config = PipelineConfig(
                examples_path=str(paths["examples"]), retrievals_path=str(paths["retrievals"]),
                generator={"type": "http", "endpoint_url": "http://generator.test/",
                           "max_in_flight": width},
                methods=["top_1", "top_random"], seed=3,
                output_dir=str(out),
            )
            start = time.perf_counter()
            run = run_pipeline(config)
            seconds[width] = time.perf_counter() - start
            outputs[width] = [(out / name).read_bytes() for name in ("table.csv", "manifest.json")]
            assert endpoint.posts == run.manifest["generator_calls"] > 40
            assert endpoint.peak_in_flight <= width and endpoint.doubled == []
        assert outputs[1] == outputs[4]
        assert seconds[4] <= seconds[1] / 2, seconds

    def test_the_cache_log_holds_the_same_keys_at_widths_1_and_4(self, tmp_path, monkeypatch):
        """A 400-example run and sweep through one cache_dir per width: the log gets one
        line per POST, no key twice, and the same keys at widths 1 and 4."""
        corpus = make_synthetic_corpus(CorpusSpec(size=400), seed=5)
        paths = corpus.write(tmp_path / "corpus")
        answers = mock_answers(corpus, join_dataset(corpus.examples, corpus.retrievals))
        keys = {}
        for width in (1, 4):
            endpoint = MockEndpoint(answers)
            serve(monkeypatch, endpoint)
            cache = tmp_path / f"cache{width}"
            config = http_run_config(paths, None, width, str(cache))
            run_pipeline(config)
            sweep_document_count(config)
            keys[width] = cache_log_keys(cache)
            assert len(keys[width]) == len(set(keys[width])) == endpoint.posts
        assert set(keys[1]) == set(keys[4])

    def test_lookahead_keeps_the_other_slots_busy_while_one_prompt_is_held(
        self, tmp_path, monkeypatch
    ):
        """The endpoint holds the first example's prompt until a prompt arrives of the last
        example the line of queued prompts reaches before the first generate. At width 4
        with a line of 12 prompts, that example lies beyond max_in_flight - 1. The line
        fills: at some start, at least 12 - 2 prompts of earlier examples are still to
        come, as a search yields at most 2 (top_1's and top_random's). While the held
        prompt waits, searches run ahead of their turn: fewer than 12 prompts wait in the
        line, and fewer than 12 more are held ahead, when a search starts. No more than 4
        POSTs or one prompt twice are in flight, and table.csv, manifest.json and
        sweep.csv equal those of width 1."""
        import ragtrim.generation
        from ragtrim.compress import assemble_prompt

        monkeypatch.setattr(ragtrim.generation, "PROMPTS_IN_LINE", 12)
        corpus = make_synthetic_corpus(CorpusSpec(size=30), seed=8)
        paths = corpus.write(tmp_path / "corpus")
        dataset = join_dataset(corpus.examples, corpus.retrievals)
        answers = mock_answers(corpus, dataset)
        ids = [example.id for example, _ in dataset]
        example, retrieval = dataset.pairs[0]
        held = assemble_prompt(example, retrieval.docs[:1]).text
        events = record_plans_and_generates(monkeypatch)
        serve(monkeypatch, MockEndpoint(answers))
        run_pipeline(http_run_config(paths, None, 4))
        first_generate = events.index(next(event for event in events if event[0] == "generate"))
        reached = ids.index(events[first_generate - 1][1])  # the turn order fixes it
        assert reached >= 4
        far = {text for text, (query_id, _) in answers.items() if query_id == ids[reached]}
        outputs = {}
        for width in (1, 4):
            endpoint = MockEndpoint(answers)
            release = threading.Event()
            if width > 1:  # width 1 would wait for the far example until the gate times out
                endpoint.gates[held] = release

            class Releasing:
                def post(self, url, json, **kwargs):
                    if json["prompt"] in far:
                        release.set()
                    return endpoint.post(url, json=json, **kwargs)

            serve(monkeypatch, Releasing())
            out = tmp_path / f"out{width}"
            config = http_run_config(paths, out, width)
            events.clear()
            run_pipeline(config)
            queued = prompts_queued(events)
            sweep_document_count(config)
            outputs[width] = [(out / name).read_bytes()
                              for name in ("table.csv", "manifest.json", "sweep.csv")]
            assert endpoint.peak_in_flight <= width and endpoint.doubled == []
            assert endpoint.gate_timeouts == []
            assert max(queued) == 0 if width == 1 else 12 - 2 <= max(queued) < 12 + 12
        assert outputs[1] == outputs[4]

    @pytest.mark.parametrize("generator", ["mock", "http-width-1"])
    def test_without_overlap_each_example_is_planned_after_the_last_generate_before_it(
        self, tmp_path, monkeypatch, generator
    ):
        """The mock, and an HTTP client at width 1, have no look-ahead: example i+1 is
        labelled only after example i's last generate."""
        corpus = make_synthetic_corpus(CorpusSpec(size=12), seed=8)
        paths = corpus.write(tmp_path / "corpus")
        dataset = join_dataset(corpus.examples, corpus.retrievals)
        config = http_run_config(paths, None, 1)
        if generator == "mock":
            config.generator = {"type": "mock", "closed_book_plan": str(paths["plan"])}
        else:
            serve(monkeypatch, MockEndpoint(mock_answers(corpus, dataset)))
        events = record_plans_and_generates(monkeypatch)
        run_pipeline(config)
        steps = [event for i, event in enumerate(events) if i == 0 or events[i - 1] != event]
        ids = [example.id for example, _ in dataset]
        assert steps == [(kind, id_) for id_ in ids for kind in ("plan", "generate")]


def http_run_config(paths, out, width, cache_dir=None):
    """A run of top_1 and top_random through an http generator at ``width``."""
    return PipelineConfig(
        examples_path=str(paths["examples"]), retrievals_path=str(paths["retrievals"]),
        generator={"type": "http", "endpoint_url": "http://generator.test/",
                   "max_in_flight": width, "cache_dir": cache_dir},
        methods=["top_1", "top_random"], seed=3, output_dir=str(out) if out else None,
    )


def record_plans_and_generates(monkeypatch) -> list[tuple[str, str]]:
    """("plan", example id) for each FixedKPredictor label and ("generate", query id) for
    each generate, in call order."""
    from ragtrim.predictor import FixedKPredictor

    events: list[tuple[str, str]] = []
    label = FixedKPredictor.predict_label

    def recorded_label(self, example, retrieval):
        events.append(("plan", example.id))
        return label(self, example, retrieval)

    monkeypatch.setattr(FixedKPredictor, "predict_label", recorded_label)
    generate = GeneratorClient.generate

    def recorded_generate(self, prompt):
        events.append(("generate", prompt.query_id))
        return generate(self, prompt)

    monkeypatch.setattr(GeneratorClient, "generate", recorded_generate)
    return events


def prompts_queued(events) -> list[int]:
    """At each example's planning: the generates still to come of the examples planned
    before it, which are the prompts waiting in take_turns' line and those held for
    searches run ahead of their turn. A search starts (its labelers run) when the line
    is shorter than its window, or ahead of its turn while fewer than as many prompts
    are held ahead."""
    planned, queued = set(), []
    for i, (kind, id_) in enumerate(events):
        if kind == "plan" and id_ not in planned:
            queued.append(sum(k == "generate" and other in planned for k, other in events[i:]))
            planned.add(id_)
    return queued


class TestScoreMemo:
    def test_each_distinct_output_of_an_example_scored_once(
        self, prepared, monkeypatch, contexts_made
    ):
        import ragtrim.pipeline

        score = ragtrim.pipeline.score_output
        scored: list[tuple[str, str]] = []

        def counting_score(example_id, output, *args, **kwargs):
            scored.append((example_id, output))
            return score(example_id, output, *args, **kwargs)

        monkeypatch.setattr(ragtrim.pipeline, "score_output", counting_score)
        config = base_config(prepared)
        run = run_pipeline(config)

        dataset = join_dataset(
            load_examples(prepared["examples"]), load_retrievals(prepared["retrievals"])
        )
        golds = {example.id: example.gold_answers for example, _ in dataset}
        client = build_generator(config, dataset)
        # Each context made, scored afresh: every row's context is one of them.
        fresh: dict[str, list] = {}
        row_outputs = set()
        for ctx in contexts_made:
            example_id, output = ctx.prompt.query_id, client.generate(ctx.prompt)
            row_outputs.add((example_id, output))
            fresh.setdefault(example_id, []).append(
                score(example_id, output, golds[example_id], ctx.token_count, ctx.k))
        for m in run.methods:
            for result in m.results:
                # A reused score equals scoring the row afresh, with the row's own cost fields.
                assert result in fresh[result.example_id]
        assert len(scored) == len(set(scored))
        assert set(scored) == row_outputs
        assert sum(m.report.n for m in run.methods) > len(scored)


class TestCompressMemo:
    def test_each_label_of_an_example_compressed_once(self, prepared, monkeypatch):
        import ragtrim.pipeline

        compress = ragtrim.pipeline.compress
        compressed: dict[tuple, object] = {}  # (example id, label) -> the context returned
        calls = 0

        def counting_compress(example, retrieval, label, *args, **kwargs):
            nonlocal calls
            calls += 1
            ctx = compressed[(example.id, label)] = compress(
                example, retrieval, label, *args, **kwargs
            )
            return ctx

        monkeypatch.setattr(ragtrim.pipeline, "compress", counting_compress)
        run = run_pipeline(base_config(prepared))

        assert calls == len(compressed)
        served = {(example_id, ctx.token_count, ctx.k) for (example_id, _), ctx in compressed.items()}
        rows = [r for m in run.methods if m.name != "only_doc" for r in m.results]
        # every row got the cost fields of a memoized context
        assert all((r.example_id, r.token_count, r.k) in served for r in rows)
        assert len(rows) > calls


class TestGeneratorSeam:
    def test_run_and_sweep_generate_only_through_build_generator(
        self, prepared, built_clients, monkeypatch
    ):
        mock_generations = []
        mock_fetch = MockOracleBackend.fetch

        def counted_fetch(self, prompt):
            mock_generations.append(prompt.text)
            return mock_fetch(self, prompt)

        monkeypatch.setattr(MockOracleBackend, "fetch", counted_fetch)
        run = run_pipeline(base_config(prepared))
        assert len(built_clients) == 1
        assert len(built_clients[0].seen) == len(mock_generations)
        assert len(mock_generations) == run.manifest["generator_calls"]

        points = sweep_document_count(base_config(prepared))
        assert len(built_clients) == 2
        assert len(built_clients[1].seen) == len(mock_generations) - run.manifest["generator_calls"]
        assert len(built_clients[1].seen) == sum(p.n for p in points)


class TestSweep:
    def test_flat_corpus_plateaus_after_k1(self, tmp_path):
        corpus = make_synthetic_corpus(
            CorpusSpec(size=40, depth_weights={"1": 1.0}), seed=2
        )
        paths = corpus.write(tmp_path)
        config = PipelineConfig(
            examples_path=str(paths["examples"]),
            retrievals_path=str(paths["retrievals"]),
            methods=["top_1"],
            generator={"type": "mock", "closed_book_plan": str(paths["plan"])},
        )
        points = sweep_document_count(config)
        ems = [p.em for p in points]
        assert ems[0] == 0.0  # no closed-book mass
        assert ems[1:] == [1.0, 1.0, 1.0, 1.0, 1.0]

    def test_k0_point_is_closed_book_rate(self, tmp_path):
        weights = {"0": 0.4, "1": 0.6}
        corpus = make_synthetic_corpus(CorpusSpec(size=50, depth_weights=weights), seed=9)
        paths = corpus.write(tmp_path)
        config = PipelineConfig(
            examples_path=str(paths["examples"]),
            retrievals_path=str(paths["retrievals"]),
            methods=["top_1"],
            generator={"type": "mock", "closed_book_plan": str(paths["plan"])},
        )
        points = sweep_document_count(config)
        closed_rate = len(corpus.closed_book_ids()) / len(corpus.examples)
        assert points[0].em == pytest.approx(closed_rate)

    def test_points_equal_run_over_every_top_k(self, prepared):
        generator = {
            "type": "mock", "closed_book_plan": prepared["plan"], "confusion_threshold": 3
        }
        points = sweep_document_count(base_config(prepared, generator=generator))
        methods = [f"top_{k}" for k in range(len(points))]
        run = run_pipeline(base_config(prepared, methods=methods, generator=generator))
        assert [(p.k, p.n, p.em, p.f1, p.mean_tokens) for p in points] == [
            (k, m.report.n, m.report.em, m.report.f1, m.report.mean_tokens)
            for k, m in enumerate(run.methods)
        ]

    def test_sweep_outputs_written(self, tmp_path):
        corpus = make_synthetic_corpus(CorpusSpec(size=20), seed=3)
        paths = corpus.write(tmp_path)
        config = PipelineConfig(
            examples_path=str(paths["examples"]),
            retrievals_path=str(paths["retrievals"]),
            methods=["top_1"],
            generator={"type": "mock"},
            output_dir=str(tmp_path / "out"),
        )
        sweep_document_count(config)
        csv_text = (tmp_path / "out" / "sweep.csv").read_text()
        assert csv_text.splitlines()[0] == "k,n,mean_tokens,em,f1"
        assert len(csv_text.splitlines()) == 7  # header + k=0..5
        assert (tmp_path / "out" / "sweep.json").exists()


class TestConfusionRendering:
    def diagonal_report(self):
        return PredictorReport(
            class_list=(0, 1, 2),
            confusion=[[5, 0, 0], [0, 4, 0], [0, 0, 3]],
            accuracy=1.0,
            per_class={},
            margin_fractions={0: 1.0, 1: 1.0, 2: 1.0},
            n=12,
        )

    def test_render_contains_matrix_and_reference(self):
        text = render_confusion(self.diagonal_report())
        assert "true\\pred" in text
        assert "accuracy: 1.0000" in text
        assert "P(|pred - true| <= 2): 1.0000" in text
        assert "Reference point" in text

    def test_report_confusion_writes_json(self, tmp_path):
        out = tmp_path / "confusion.json"
        payload = report_confusion(self.diagonal_report(), out)
        on_disk = json.loads(out.read_text())
        assert on_disk == payload
        assert on_disk["accuracy"] == 1.0
        assert on_disk["margin_fractions"] == {"0": 1.0, "1": 1.0, "2": 1.0}

    def test_confusion_csv_layout(self):
        from ragtrim.pipeline import confusion_csv

        lines = confusion_csv(self.diagonal_report()).strip().splitlines()
        assert lines[0] == "true_class,0,1,2"
        assert lines[1] == "0,5,0,0"
        assert lines[3] == "2,0,0,3"


class TestFormatTable:
    def test_csv_shape(self, prepared):
        run = run_pipeline(base_config(prepared, methods=["top_1", "top_5"]))
        csv_text = format_table_csv(run.methods)
        lines = csv_text.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("top_1,")
        assert lines[2].startswith("top_5,")


class TestCli:
    def test_full_cli_flow(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        assert cli_main(["make-corpus", "--out-dir", str(corpus_dir), "--size", "40", "--seed", "2"]) == 0
        # One config for every verb; its triplets and model do not exist yet.
        config = {
            "datasets": {
                "examples": str(corpus_dir / "examples.jsonl"),
                "retrievals": str(corpus_dir / "retrievals.jsonl"),
                "triplets": str(tmp_path / "triplets.jsonl"),
            },
            "generator": {"type": "mock", "closed_book_plan": str(corpus_dir / "plan.jsonl")},
            "predictors": [{"name": "adaptive", "type": "model", "path": str(tmp_path / "model.json")}],
            "methods": ["top_1", "adaptive", "oracle"],
            "judge": "em",
            "output_dir": str(tmp_path / "out"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert cli_main(
            [
                "annotate",
                "--config", str(config_path),
                "--k0", "on",
                "--out", str(tmp_path / "triplets.jsonl"),
                "--stats", str(tmp_path / "stats.json"),
            ]
        ) == 0
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["annotated"] == 40
        assert cli_main(
            [
                "train-predictor",
                "--config", str(config_path),
                "--out", str(tmp_path / "model.json"),
            ]
        ) == 0
        assert cli_main(
            [
                "eval-predictor",
                "--config", str(config_path),
                "--model", str(tmp_path / "model.json"),
                "--report", str(tmp_path / "report.json"),
            ]
        ) == 0
        assert cli_main(["run", "--config", str(config_path)]) == 0
        assert (tmp_path / "out" / "table.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()
        assert cli_main(["sweep", "--config", str(config_path)]) == 0
        assert (tmp_path / "out" / "sweep.csv").exists()
        assert cli_main(
            ["report", "--report", str(tmp_path / "report.json"), "--out", str(tmp_path / "confusion.json")]
        ) == 0
        assert (tmp_path / "confusion.json").exists()
        out = capsys.readouterr().out
        assert "true\\pred" in out

    def test_conversational_run_prompts_start_with_the_history(self, tmp_path, monkeypatch):
        """With ``datasets.format: conversational`` and no other key about the prompt,
        every prompt of `ragtrim run` starts with its example's dialogue history."""
        corpus = make_synthetic_corpus(CorpusSpec(size=6), seed=3)
        paths = corpus.write(tmp_path)
        history = lambda id_: (("user", f"an earlier question of {id_}"), ("assistant", "yes"))
        save_examples(paths["examples"],
                      [replace(e, history=history(e.id)) for e in corpus.examples])
        prompts = []
        fetch = MockOracleBackend.fetch
        monkeypatch.setattr(MockOracleBackend, "fetch",
                            lambda self, prompt: prompts.append(prompt) or fetch(self, prompt))
        config = {"datasets": {"examples": str(paths["examples"]),
                               "retrievals": str(paths["retrievals"]), "format": "conversational"},
                  "methods": ["no_retrieval", "top_1"]}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert cli_main(["run", "--config", str(config_path)]) == 0
        assert len(prompts) == 2 * len(corpus.examples)
        for prompt in prompts:
            assert prompt.text.startswith(
                f"user: an earlier question of {prompt.query_id}\nassistant: yes\n\n")

    def test_annotate_abort_writes_partial(self, tmp_path, monkeypatch):
        corpus_dir = tmp_path / "corpus"
        cli_main(["make-corpus", "--out-dir", str(corpus_dir), "--size", "5", "--seed", "1"])
        # An http generator with an unreachable endpoint.
        generator = {"type": "http", "endpoint_url": "http://127.0.0.1:1/", "max_retries": 0,
                     "timeout_ms": 200}
        rc = cli_main(self.annotate_args(corpus_dir, tmp_path / "triplets.jsonl", generator))
        assert rc == 1
        assert (tmp_path / "triplets.jsonl.partial").exists()

    def annotate_args(self, corpus_dir, out, generator=None, *extra):
        """`ragtrim annotate` on a run config naming the corpus and ``generator``."""
        config = {
            "datasets": {
                "examples": str(corpus_dir / "examples.jsonl"),
                "retrievals": str(corpus_dir / "retrievals.jsonl"),
            },
            "generator": generator or {"type": "mock"},
        }
        config_path = corpus_dir.parent / "annotate_config.json"
        config_path.write_text(json.dumps(config))
        return ["annotate", "--config", str(config_path), "--out", str(out), *extra]

    def test_annotate_http_without_endpoint_is_a_config_error(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        cli_main(["make-corpus", "--out-dir", str(corpus_dir), "--size", "5", "--seed", "1"])
        out = tmp_path / "triplets.jsonl"
        assert cli_main(self.annotate_args(corpus_dir, out, {"type": "http"})) == 2
        assert capsys.readouterr().err.startswith("ERROR: http generator requires endpoint_url")
        assert not out.exists()
        assert not (tmp_path / "triplets.jsonl.partial").exists()

    def test_malformed_input_is_a_data_error(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        cli_main(["make-corpus", "--out-dir", str(corpus_dir), "--size", "5", "--seed", "1"])
        with (corpus_dir / "examples.jsonl").open("a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        assert cli_main(self.annotate_args(corpus_dir, tmp_path / "triplets.jsonl")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR: {corpus_dir / 'examples.jsonl'} line 6 is not valid JSON")

    @pytest.mark.parametrize("verb", ["run", "annotate"])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "line 6 is not valid JSON"),
            ('{"label": 1}', "line 6: missing key example_id"),
            ('{"example_id": "q9", "label": "two"}', "line 6: label: unknown label token 'two'"),
        ],
        ids=["not-json", "no-example-id", "bad-label"],
    )
    def test_malformed_plan_is_a_data_error(self, tmp_path, capsys, verb, line, message):
        corpus_dir = tmp_path / "corpus"
        cli_main(["make-corpus", "--out-dir", str(corpus_dir), "--size", "5", "--seed", "1"])
        plan = corpus_dir / "plan.jsonl"
        with plan.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        if verb == "annotate":
            generator = {"type": "mock", "closed_book_plan": str(plan)}
            args = self.annotate_args(corpus_dir, tmp_path / "triplets.jsonl", generator)
        else:
            config = {
                "datasets": {
                    "examples": str(corpus_dir / "examples.jsonl"),
                    "retrievals": str(corpus_dir / "retrievals.jsonl"),
                },
                "generator": {"type": "mock", "closed_book_plan": str(plan)},
                "methods": ["top_1"],
                "output_dir": str(tmp_path / "out"),
            }
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(config))
            args = ["run", "--config", str(config_path)]
        capsys.readouterr()
        assert cli_main(args) == 2
        assert capsys.readouterr().err.startswith(f"ERROR: {plan} {message}")

    def test_annotate_goes_through_build_generator(self, tmp_path, built_clients, monkeypatch):
        mock_generations = []
        mock_fetch = MockOracleBackend.fetch

        def counted_fetch(self, prompt):
            mock_generations.append(prompt.text)
            return mock_fetch(self, prompt)

        monkeypatch.setattr(MockOracleBackend, "fetch", counted_fetch)
        corpus_dir = tmp_path / "corpus"
        cli_main(["make-corpus", "--out-dir", str(corpus_dir), "--size", "20", "--seed", "3"])
        generator = {"type": "mock", "closed_book_plan": str(corpus_dir / "plan.jsonl")}
        args = self.annotate_args(corpus_dir, tmp_path / "triplets.jsonl", generator)
        assert cli_main(args) == 0
        assert len(built_clients) == 1
        assert len(built_clients[0].seen) == len(mock_generations) > 0

    def test_annotate_mock_flags_match_across_runs_and_library(self, tmp_path, monkeypatch):
        """The mock's flags reach it from the CLI. The mock's width is 1, so
        annotation probes one example at a time, exactly as the library call does."""
        corpus_dir = tmp_path / "corpus"
        cli_main(["make-corpus", "--out-dir", str(corpus_dir), "--size", "60", "--seed", "4"])
        plan = str(corpus_dir / "plan.jsonl")
        generator = {"type": "mock", "closed_book_plan": plan, "seed": 5,
                     "confusion_threshold": 3, "noise_rate": 0.1}
        probed = []
        fetch = MockOracleBackend.fetch

        def recorded_fetch(backend, prompt):
            probed.append(prompt.query_id)
            return fetch(backend, prompt)

        monkeypatch.setattr(MockOracleBackend, "fetch", recorded_fetch)
        outputs = []
        for run in ("first", "second"):
            out = tmp_path / f"triplets_{run}.jsonl"
            assert cli_main(self.annotate_args(corpus_dir, out, generator)) == 0
            outputs.append(out.read_bytes())
        # One example at a time: each example's probes are contiguous.
        switches = sum(a != b for a, b in zip(probed, probed[1:]))
        assert switches == 2 * 60 - 1

        config = PipelineConfig(
            examples_path=str(corpus_dir / "examples.jsonl"),
            retrievals_path=str(corpus_dir / "retrievals.jsonl"),
            methods=[],
            generator=generator,
        )
        dataset = join_dataset(load_examples(config.examples_path),
                               load_retrievals(config.retrievals_path))
        triplets, _ = annotate_dataset(dataset, build_generator(config, dataset))
        save_triplets(tmp_path / "library.jsonl", triplets)
        outputs.append((tmp_path / "library.jsonl").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        # The generator section reached the mock: its fingerprint differs from the default mock's.
        default = dict(generator, seed=0, confusion_threshold=None, noise_rate=0.0)
        default_client = build_generator(PipelineConfig("", "", [], generator=default), dataset)
        assert triplets[0].generator_fingerprint != default_client.fingerprint()
