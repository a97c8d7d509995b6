"""Config sections parsed strictly: each defect fails before a request, numbers keep hashes."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
import requests

import ragtrim.generation
import ragtrim.pipeline
from ragtrim.annotate import annotate_dataset
from ragtrim.cli import main as cli_main
from ragtrim.data import join_dataset, save_triplets
from ragtrim.features import FeatureSpec
from ragtrim.generation import HttpGeneratorConfig, MockOracleConfig, Prompt
from ragtrim.pipeline import PipelineConfig, build_generator, parse_config, run_pipeline
from ragtrim.predictor import PredictorModel, RemotePredictorConfig, save_model
from ragtrim.synth import CorpusSpec, make_synthetic_corpus, mock_client_for
from helpers import http_response, make_example, make_retrieval

GENERATOR_URL = "http://generator.test/gen"
PREDICTOR_URL = "http://predictor.test/k"
README = Path(__file__).resolve().parents[1] / "README.md"
ONE_EXAMPLE = join_dataset([make_example()], {"q1": make_retrieval()})


class CountingSession:
    """Stands in for requests.Session: counts every POST and answers both endpoints."""

    posts: list[str] = []

    def post(self, url, **kwargs):
        CountingSession.posts.append(url)
        return http_response(200, b'{"text": "x", "k": 1}')


@pytest.fixture
def posts(monkeypatch):
    """The URLs of every POST any HTTP client of this test sends."""
    monkeypatch.setattr(requests, "Session", CountingSession)
    CountingSession.posts = []
    return CountingSession.posts


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 30-example corpus (N = 5), its mock annotation and a model built for N <= 3."""
    root = tmp_path_factory.mktemp("config")
    corpus = make_synthetic_corpus(CorpusSpec(size=30), seed=11)
    paths = {name: str(path) for name, path in corpus.write(root / "corpus").items()}
    dataset = join_dataset(corpus.examples, corpus.retrievals)
    triplets, _ = annotate_dataset(dataset, mock_client_for(corpus))
    paths["triplets"] = str(root / "triplets.jsonl")
    save_triplets(paths["triplets"], triplets)
    spec = FeatureSpec(max_docs=3)
    paths["small_model"] = str(root / "small_model.json")
    save_model(paths["small_model"], PredictorModel(np.zeros((4, spec.dim)), (0, 1, 2, 3), spec))
    return paths


def valid_run_config(paths, tmp_path):
    return {
        "datasets": {"examples": paths["examples"], "retrievals": paths["retrievals"]},
        "generator": {"type": "http", "endpoint_url": GENERATOR_URL},
        "methods": ["top_1"],
        "output_dir": str(tmp_path / "out"),
    }


def run(change):
    """CLI args of `ragtrim run` on the valid config after ``change(config, paths)``."""

    def args(paths, tmp_path):
        config = valid_run_config(paths, tmp_path)
        change(config, paths)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return ["run", "--config", str(path)]

    return args


def top(**keys):
    return run(lambda config, paths: config.update(keys))


def http(**keys):
    return run(lambda config, paths: config["generator"].update(keys))


def predictor(entry):
    """The valid config plus an adaptive row; a model entry gets the N <= 3 model's path."""

    def change(config, paths):
        if entry["type"] == "model":
            config["predictors"] = [{**entry, "path": paths["small_model"]}]
        else:
            config["predictors"] = [entry]
        config["methods"] = ["top_1", "adaptive"]

    return run(change)


def remote(**keys):
    return predictor({"type": "remote", "endpoint_url": PREDICTOR_URL, **keys})


def annotate(*flags):
    def args(paths, tmp_path):
        return ["annotate", "--examples", paths["examples"], "--retrievals", paths["retrievals"],
                "--out", str(tmp_path / "triplets.jsonl"), "--generator", "http",
                "--endpoint-url", GENERATOR_URL, *flags]

    return args


def with_json(verb_args, flag, obj):
    """CLI args of a verb that reads the JSON object ``obj`` through ``flag``."""

    def args(paths, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        return [*verb_args(paths, tmp_path), flag, str(path)]

    return args


def train_args(paths, tmp_path):
    return ["train-predictor", "--triplets", paths["triplets"], "--examples", paths["examples"],
            "--retrievals", paths["retrievals"], "--out", str(tmp_path / "model.json")]


def corpus_args(paths, tmp_path):
    return ["make-corpus", "--out-dir", str(tmp_path / "made"), "--size", "5"]


# (case id, CLI args built from the corpus paths and tmp_path, text the ERROR line carries)
DEFECTS = [
    ("judge", top(judge="emm"), "unknown judge mode spec 'emm'"),
    ("template", top(template="nope"), "unknown template 'nope'"),
    ("fallback", top(fallback="bogus"), "unknown fallback policy 'bogus'"),
    ("top-level-typo", top(jduge="f1"), "unknown key jduge"),
    ("datasets-typo", run(lambda config, paths: config["datasets"].update(triplet="t.jsonl")),
     "unknown key datasets.triplet"),
    ("top-level-type", top(seed="3"), "seed must be int"),
    ("datasets-type", run(lambda config, paths: config["datasets"].update(examples=5)),
     "datasets.examples must be str"),
    ("list-element-type", top(methods=["top_1", 5]), "methods[1] must be str"),
    ("mock-typo", top(generator={"type": "mock", "noise_rte": 0.1}),
     "unknown key generator.noise_rte"),
    ("mock-plan-type", top(generator={"type": "mock", "closed_book_plan": 5}),
     "generator.closed_book_plan must be str"),
    ("http-typo", http(max_retry=2), "unknown key generator.max_retry"),
    ("http-type", http(temperature="0"), "generator.temperature must be float"),
    ("http-bool", http(max_retries=True), "generator.max_retries must be int"),
    ("http-max-retries", http(max_retries=-1), "generator: max_retries must be >= 0"),
    ("http-timeout", http(timeout_ms=0), "generator: timeout_ms must be >= 1"),
    ("http-backoff", http(backoff_base_s=-1), "generator: backoff_base_s must be >= 0"),
    ("remote-typo", remote(fallback_to_ful=True), "unknown key predictors[0].fallback_to_ful"),
    ("remote-max-retries", remote(max_retries=-1), "predictors[0]: max_retries must be >= 0"),
    ("remote-timeout", remote(timeout_ms=0), "predictors[0]: timeout_ms must be >= 1"),
    ("remote-backoff", remote(backoff_base_s=-1), "predictors[0]: backoff_base_s must be >= 0"),
    ("remote-no-endpoint", predictor({"type": "remote"}), "missing key predictors[0].endpoint_url"),
    ("model-too-small", predictor({"type": "model"}),
     "small_model.json takes at most 3 documents, but the dataset has N=5"),
    ("model-typo", predictor({"type": "model", "pth": "model.json"}),
     "unknown key predictors[0].pth"),
    ("model-path-type", top(predictors=[{"type": "model", "path": 5}], methods=["adaptive"]),
     "predictors[0].path must be str"),
    ("predictor-name-type", remote(name=5), "predictors[0].name must be str"),
    ("annotate-judge", annotate("--judge", "emm"), "unknown judge mode spec 'emm'"),
    ("annotate-template", annotate("--template", "nope"), "unknown template 'nope'"),
    ("annotate-max-retries", annotate("--max-retries", "-1"),
     "generator: max_retries must be >= 0"),
    ("train-config-typo", with_json(train_args, "--config", {"epoch": 5}),
     "unknown key config.epoch"),
    ("train-config-type", with_json(train_args, "--config", {"max_docs": "5"}),
     "config.max_docs must be int"),
    ("train-config-policy", with_json(train_args, "--config", {"unanswerable_policy": "x"}),
     "config.unanswerable_policy must be one of"),
    ("corpus-spec-typo", with_json(corpus_args, "--spec", {"n_doc": 3}), "unknown key spec.n_doc"),
]


@pytest.mark.parametrize(
    "make_args, message", [case[1:] for case in DEFECTS], ids=[case[0] for case in DEFECTS]
)
def test_config_defect_exits_2_before_any_request(
    corpus, tmp_path, posts, capsys, make_args, message
):
    args = make_args(corpus, tmp_path)
    capsys.readouterr()
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: ") and message in err
    assert posts == []


@pytest.mark.parametrize("make_args", [run(lambda config, paths: None), annotate()],
                         ids=["run", "annotate"])
def test_valid_config_reaches_the_counting_session(corpus, tmp_path, posts, make_args):
    assert cli_main(make_args(corpus, tmp_path)) == 0
    assert posts and set(posts) == {GENERATOR_URL}


# config_hash() and fingerprints of these configs, as computed before parse_config existed.
INT_CONFIGS = [
    (
        {"type": "http", "endpoint_url": GENERATOR_URL, "model_name": "m", "temperature": 0,
         "backoff_base_s": 0},
        "8b32b37fd16c148555f7503a799de463feb99cddf8eecfb8392fa7761f6d0444",
        "http:m@http://generator.test/gen|temperature=0.0|max_tokens=256",
    ),
    (
        {"type": "mock", "noise_rate": 0, "seed": 5},
        "c3be418de17a5405e4e26e4a39e875cac99247e6ff0690cddc38a2271dd24148",
        "mock:29f32b792e81",
    ),
]


@pytest.mark.parametrize("generator, config_hash, fingerprint", INT_CONFIGS, ids=["http", "mock"])
def test_ints_for_float_fields_keep_hashes(generator, config_hash, fingerprint):
    raw = {
        "datasets": {"examples": "corpus/examples.jsonl", "retrievals": "corpus/retrievals.jsonl"},
        "generator": generator,
        "predictors": [{"type": "remote", "endpoint_url": PREDICTOR_URL, "backoff_base_s": 0}]
        if generator["type"] == "http" else [],
        "methods": ["top_1", "adaptive"],
        "seed": 3,
    }
    config = PipelineConfig.from_dict(raw)
    assert config.config_hash() == config_hash
    client = build_generator(config, ONE_EXAMPLE)
    assert client.fingerprint() == fingerprint
    float_fields = {"temperature", "backoff_base_s", "noise_rate"} & generator.keys()
    assert all(type(getattr(client.config, key)) is float for key in float_fields)


def test_int_temperature_keeps_the_cache_file_name(tmp_path, posts):
    generator = {"type": "http", "endpoint_url": GENERATOR_URL, "model_name": "m",
                 "temperature": 0, "cache_dir": str(tmp_path)}
    config = PipelineConfig("", "", [], generator=generator)
    client = build_generator(config, ONE_EXAMPLE)
    text = "\nQuestion: who wrote Hamlet\nAnswer:"
    client.generate(Prompt("q1", "who wrote Hamlet", (), "qa_default", text))
    [entry] = tmp_path.glob("*.json")
    # The name test_payload_and_cache_key_are_stable pins for "temperature": 0.0.
    assert entry.name == "67da8eee340a01919de88f53d6576e5e2a8ee0d4ea8c4423e519084b14b98c61.json"


def test_backoff_reaches_the_clients(corpus, tmp_path, monkeypatch):
    """Each endpoint fails its first POST with a 503; the retry sleeps the configured backoff."""

    class FlakySession(CountingSession):
        def post(self, url, **kwargs):
            if url not in CountingSession.posts:
                CountingSession.posts.append(url)
                return http_response(503, b"busy")
            return super().post(url, **kwargs)

    monkeypatch.setattr(requests, "Session", FlakySession)
    CountingSession.posts = []
    sleeps = []
    monkeypatch.setattr(ragtrim.generation.time, "sleep", sleeps.append)
    config = PipelineConfig.from_dict(valid_run_config(corpus, tmp_path))
    config.generator.update(backoff_base_s=0)
    config.predictors = [{"type": "remote", "endpoint_url": PREDICTOR_URL, "backoff_base_s": 0}]
    config.methods = ["adaptive"]
    run_pipeline(config)
    assert sleeps == [0.0, 0.0]


def readme_run_configs() -> list[dict]:
    section = README.read_text(encoding="utf-8").split("## Run config", 1)[1].split("\n## ", 1)[0]
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]


def test_readme_run_configs_parse_and_name_every_key(monkeypatch):
    """The README's run configs load strictly, and together they set every key there is."""
    blocks = readme_run_configs()
    assert len(blocks) == 2
    monkeypatch.setattr(ragtrim.pipeline, "load_plan", lambda path: [])
    sections = {}
    for raw in blocks:
        build_generator(PipelineConfig.from_dict(raw), ONE_EXAMPLE)
        sections[raw["generator"]["type"]] = raw["generator"].keys() - {"type", "closed_book_plan"}
        for i, entry in enumerate(raw["predictors"]):
            settings = {k: v for k, v in entry.items() if k not in ("type", "name")}
            if entry["type"] == "remote":
                parse_config(RemotePredictorConfig, settings, f"predictors[{i}]")
            sections[entry["type"]] = settings.keys()
    for name, cls in (("mock", MockOracleConfig), ("http", HttpGeneratorConfig),
                      ("remote", RemotePredictorConfig)):
        assert sections[name] == {f.name for f in dataclasses.fields(cls)}
    assert sections["model"] == {"path"}
    # from_dict accepted each key, so as many keys as fields means every field is named.
    top_keys = blocks[0].keys() - {"datasets"} | {f"datasets.{k}" for k in blocks[0]["datasets"]}
    assert len(top_keys) == len(dataclasses.fields(PipelineConfig))
