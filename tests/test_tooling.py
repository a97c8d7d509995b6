"""The ragtrim seams that perfbench's tracer patches and wraps still hold."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

from ragtrim.generation import HttpGeneratorClient, HttpGeneratorConfig, Prompt
from helpers import ScriptedServer

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


def test_metered_http_client_counts_one_retry():
    """The HTTP workloads wrap each client in MeteredClient, which swaps in its own session
    and reads each response's status_code; a transport that broke that seam would fail here."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    text = "\nQuestion: who wrote Hamlet\nAnswer:"
    prompt = Prompt("q1", "who wrote Hamlet", (), "qa_default", text)
    with ScriptedServer([(503, {"error": "busy"}), (200, {"text": "a"})]) as server:
        config = HttpGeneratorConfig(endpoint_url=server.url, model_name="m", backoff_base_s=0)
        meter = tracing.MeteredClient(HttpGeneratorClient(config), "annotate")
        assert meter.generate(prompt) == "a"
    counters = meter.counters()
    assert (counters["retries"], counters["backend_requests"]) == (1, 1)
    assert counters["billed_tokens"] == len(prompt.text.split()) == 5
