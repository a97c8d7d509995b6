"""Mock oracle semantics, the correctness judge, and HTTP client retry/cache behavior."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ragtrim.generation import (
    HttpGeneratorClient,
    HttpGeneratorConfig,
    JudgeMode,
    MockOracleClient,
    MockOracleConfig,
    Prompt,
    ProtocolError,
    TransportError,
    UNKNOWN_ANSWER,
    judge_correct,
    mock_generate,
)
from helpers import MALFORMED_BODIES, BodySession, ScriptedServer, free_port


def make_prompt(query_id="q1", docs=(), query="who wrote Hamlet"):
    docs = tuple(docs)
    return Prompt(
        query_id=query_id,
        query=query,
        context_docs=docs,
        template_id="qa_default",
        text="\n".join(docs) + f"\nQuestion: {query}\nAnswer:",
    )


class TestMockOracle:
    def test_substring_evidence_answers(self):
        prompt = make_prompt(docs=["Hamlet was written by William Shakespeare in 1601."])
        assert mock_generate(MockOracleConfig(), prompt, ["Shakespeare"]) == "Shakespeare"

    def test_no_evidence_is_unknown(self):
        prompt = make_prompt(docs=["about rivers", "about mountains"], query="capital of France")
        assert mock_generate(MockOracleConfig(), prompt, ["Paris"]) == UNKNOWN_ANSWER

    def test_confusion_threshold_breaks_generation(self):
        # One evidence doc plus three distractors: 3 >= threshold 3, so it fails.
        prompt = make_prompt(docs=["the answer is Paris", "noise a", "noise b", "noise c"])
        config = MockOracleConfig(confusion_threshold=3)
        assert mock_generate(config, prompt, ["Paris"]) == UNKNOWN_ANSWER

    def test_below_confusion_threshold_still_answers(self):
        prompt = make_prompt(docs=["the answer is Paris", "noise a", "noise b"])
        config = MockOracleConfig(confusion_threshold=3)
        assert mock_generate(config, prompt, ["Paris"]) == "Paris"

    def test_closed_book_flag_controls_empty_context(self):
        prompt = make_prompt(docs=())
        assert mock_generate(MockOracleConfig(), prompt, ["Paris"]) == UNKNOWN_ANSWER
        assert (
            mock_generate(MockOracleConfig(), prompt, ["Paris"], closed_book_known=True) == "Paris"
        )

    def test_noise_flips_deterministically(self):
        prompt = make_prompt(docs=["the answer is Paris"])
        config = MockOracleConfig(noise_rate=0.999, seed=5)
        first = mock_generate(config, prompt, ["Paris"])
        assert first != "Paris"
        assert all(mock_generate(config, prompt, ["Paris"]) == first for _ in range(5))
        # Noise only corrupts correct answers.
        empty = make_prompt(docs=())
        assert mock_generate(config, empty, ["Paris"]) == UNKNOWN_ANSWER

    def test_noise_rate_validated(self):
        with pytest.raises(ValueError):
            MockOracleConfig(noise_rate=1.0)

    def test_client_lookup_and_fingerprint_stability(self):
        config = MockOracleConfig(seed=3)
        client = MockOracleClient(config, {"q1": ("Paris",)}, closed_book_ids=["q1"])
        assert client.generate(make_prompt(docs=())) == "Paris"
        assert client.calls == 1
        same = MockOracleClient(config, {"q1": ("Paris",)}, closed_book_ids=["q1"])
        other = MockOracleClient(config, {"q1": ("London",)}, closed_book_ids=["q1"])
        assert client.fingerprint() == same.fingerprint()
        assert client.fingerprint() != other.fingerprint()

    def test_document_memo_agrees_with_fresh_matching_across_threads(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from ragtrim.metrics import normalize_answer

        # Each document recurs under every gold list, and there are more distinct
        # (document, golds) pairs than the memo holds, so entries are evicted.
        golds = [("Paris",), ("Rome", "the Eternal City"), ("Lyon",)]
        docs = [[f"doc {j}: {word}" for word in ("Paris", "Rome", "x")] for j in range(50)]
        prompts = [
            (make_prompt(query_id=f"q{i}", docs=docs[i % 50]), golds[i % 3]) for i in range(400)
        ]

        def fresh(prompt, answers):
            docs = [normalize_answer(d) for d in prompt.context_docs]
            hit = any(normalize_answer(g) in d for g in answers for d in docs)
            return answers[0] if hit else UNKNOWN_ANSWER

        expected = [fresh(prompt, answers) for prompt, answers in prompts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                rounds = [
                    pool.submit(
                        lambda: [mock_generate(MockOracleConfig(), p, a) for p, a in prompts]
                    )
                    for _ in range(8)
                ]
                outputs = [r.result(timeout=60) for r in rounds]
        finally:
            sys.setswitchinterval(interval)
        assert outputs == [expected] * 8
        assert set(expected) == {"Paris", "Rome", UNKNOWN_ANSWER}

    def test_unknown_query_id_raises(self):
        client = MockOracleClient(MockOracleConfig(), {"q1": ("x",)})
        with pytest.raises(KeyError):
            client.generate(make_prompt(query_id="q9"))


class TestJudge:
    def test_article_normalized_match(self):
        assert judge_correct("the Eiffel Tower", ["Eiffel Tower"], JudgeMode(kind="em"))

    def test_em_rejects_extra_content_but_f1_accepts(self):
        golds = ["Paris"]
        assert not judge_correct("Paris, France", golds, JudgeMode(kind="em"))
        # P = 1/2, R = 1, F1 = 2/3 >= 0.5
        assert judge_correct("Paris, France", golds, JudgeMode(kind="f1", threshold=0.5))

    def test_identical_passes_both_modes(self):
        assert judge_correct("Paris", ["Paris"], JudgeMode(kind="em"))
        assert judge_correct("Paris", ["Paris"], JudgeMode(kind="f1", threshold=0.6))

    def test_parse_specs(self):
        assert JudgeMode.parse("em") == JudgeMode(kind="em")
        assert JudgeMode.parse("f1") == JudgeMode(kind="f1", threshold=0.6)
        assert JudgeMode.parse("f1:0.4") == JudgeMode(kind="f1", threshold=0.4)
        with pytest.raises(ValueError):
            JudgeMode.parse("bleu")

    @given(st.lists(st.sampled_from(["cat", "sat", "42"]), min_size=1, max_size=6).map(" ".join))
    def test_self_judgment_always_true(self, s):
        assert judge_correct(s, [s], JudgeMode(kind="em"))


def http_config(url, **kwargs):
    defaults = dict(
        endpoint_url=url,
        model_name="test-model",
        timeout_ms=2000,
        max_retries=2,
        backoff_base_s=0.01,
    )
    defaults.update(kwargs)
    return HttpGeneratorConfig(**defaults)


class TestHttpClient:
    def test_success_and_payload_shape(self):
        with ScriptedServer([(200, {"text": "the answer"})]) as server:
            client = HttpGeneratorClient(http_config(server.url))
            assert client.generate(make_prompt()) == "the answer"
            payload = server.requests[0]
            assert set(payload) == {"model", "prompt", "temperature", "max_tokens"}
            assert payload["model"] == "test-model"

    def test_cache_hit_bypasses_network(self, tmp_path):
        prompt = make_prompt()
        with ScriptedServer([(200, {"text": "cached value"})]) as server:
            client = HttpGeneratorClient(http_config(server.url, cache_dir=str(tmp_path)))
            first = client.generate(prompt)
            second = client.generate(prompt)
            assert (first, second) == ("cached value", "cached value")
            assert len(server.requests) == 1
            assert client.cache_hits == 1
        # Warm cache works with the server gone entirely (the key names the endpoint).
        offline = HttpGeneratorClient(
            http_config(server.url, cache_dir=str(tmp_path), max_retries=0)
        )
        assert offline.generate(prompt) == "cached value"

    def test_payload_and_cache_key_are_stable(self, tmp_path):
        """Existing cache directories keep hitting: the request and its key do not drift."""

        class Response:
            status_code = 200

            def json(self):
                return {"text": "ok"}

        class RecordingSession:
            def post(self, url, json, **kwargs):
                self.payload = json
                return Response()

        session = RecordingSession()
        config = HttpGeneratorConfig(
            endpoint_url="http://generator.test/gen", model_name="m", cache_dir=str(tmp_path)
        )
        HttpGeneratorClient(config, session=session).generate(make_prompt())
        assert session.payload == {
            "model": "m",
            "prompt": "\nQuestion: who wrote Hamlet\nAnswer:",
            "temperature": 0.0,
            "max_tokens": 256,
        }
        [entry] = tmp_path.glob("*.json")
        assert entry.name == "67da8eee340a01919de88f53d6576e5e2a8ee0d4ea8c4423e519084b14b98c61.json"

    def test_retry_on_500_then_success(self):
        with ScriptedServer([(500, {"error": "boom"}), (200, {"text": "ok"})]) as server:
            client = HttpGeneratorClient(http_config(server.url))
            assert client.generate(make_prompt()) == "ok"
            assert len(server.requests) == 2

    def test_401_is_protocol_error(self):
        with ScriptedServer([(401, {"error": "no key"})]) as server:
            client = HttpGeneratorClient(http_config(server.url))
            with pytest.raises(ProtocolError, match="unauthorized"):
                client.generate(make_prompt())
            assert len(server.requests) == 1  # no retries on 4xx

    def test_transport_error_after_retries(self):
        url = f"http://127.0.0.1:{free_port()}/"
        client = HttpGeneratorClient(http_config(url, max_retries=1))
        with pytest.raises(TransportError):
            client.generate(make_prompt())

    def test_missing_text_field_is_protocol_error(self):
        with ScriptedServer([(200, {"output": "oops"})]) as server:
            client = HttpGeneratorClient(http_config(server.url))
            with pytest.raises(ProtocolError, match="text"):
                client.generate(make_prompt())

    @pytest.mark.parametrize("body", MALFORMED_BODIES.values(), ids=list(MALFORMED_BODIES))
    def test_body_that_is_not_an_object_is_protocol_error(self, body):
        session = BodySession(body)
        client = HttpGeneratorClient(http_config("http://127.0.0.1:9/"), session=session)
        with pytest.raises(ProtocolError):
            client.generate(make_prompt())
        assert session.posts == 1  # a malformed answer is not retried

    def test_api_key_header(self, monkeypatch):
        monkeypatch.setenv("TEST_GEN_KEY", "sekret")
        with ScriptedServer([(200, {"text": "ok"})]) as server:
            client = HttpGeneratorClient(
                http_config(server.url, api_key_env_var="TEST_GEN_KEY")
            )
            client.generate(make_prompt())
            assert server.headers_seen[0].get("Authorization") == "Bearer sekret"

    def test_fingerprint_identifies_endpoint_and_model(self):
        client = HttpGeneratorClient(http_config("http://host/gen"))
        assert client.fingerprint() == (
            "http:test-model@http://host/gen|temperature=0.0|max_tokens=256"
        )

    def test_sampling_settings_key_cache_and_fingerprint(self, tmp_path):
        prompt = make_prompt()
        with ScriptedServer([(200, {"text": "greedy"}), (200, {"text": "sampled"})]) as server:
            greedy = HttpGeneratorClient(http_config(server.url, cache_dir=str(tmp_path)))
            sampled = HttpGeneratorClient(
                http_config(server.url, cache_dir=str(tmp_path), temperature=1.0, max_tokens=5)
            )
            assert greedy.generate(prompt) == "greedy"
            assert sampled.generate(prompt) == "sampled"
            assert greedy.generate(prompt) == "greedy"
            assert len(server.requests) == 2
            assert (greedy.cache_hits, sampled.cache_hits) == (1, 0)
        assert greedy.fingerprint() != sampled.fingerprint()

    def test_corrupt_cache_entry_is_a_counted_miss(self, tmp_path, caplog):
        prompt = make_prompt()
        with ScriptedServer([(200, {"text": "first"}), (200, {"text": "refetched"})]) as server:
            HttpGeneratorClient(http_config(server.url, cache_dir=str(tmp_path))).generate(prompt)
            [entry] = tmp_path.glob("*.json")
            entry.write_text('{"text": "fir', encoding="utf-8")  # truncated write
            client = HttpGeneratorClient(http_config(server.url, cache_dir=str(tmp_path)))
            with caplog.at_level("WARNING", logger="ragtrim.generation"):
                assert client.generate(prompt) == "refetched"
            assert (client.calls, client.cache_hits) == (1, 0)
            assert len(server.requests) == 2
            assert entry.name in caplog.text
            assert client.generate(prompt) == "refetched"  # entry was overwritten
            assert client.cache_hits == 1

    def test_two_clients_write_one_key_concurrently(self, tmp_path):
        import sys
        import threading

        rounds, writers = 30, 4
        barrier = threading.Barrier(writers, timeout=10)

        class Response:
            status_code = 200

            def json(self):
                return {"text": "ok"}

        class InLockstepSession:
            """Every writer's request returns at once, so all of them write the same entry."""

            def post(self, *args, **kwargs):
                barrier.wait()
                return Response()

        clients = [
            HttpGeneratorClient(
                http_config("http://host/gen", cache_dir=str(tmp_path)),
                session=InLockstepSession(),
            )
            for _ in range(2)
        ]
        errors: list[BaseException] = []

        def write(client, prompt):
            try:
                assert client.generate(prompt) == "ok"
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i in range(rounds):
                prompt = make_prompt(query=f"question {i}")
                threads = [
                    threading.Thread(target=write, args=(clients[j % 2], prompt))
                    for j in range(writers)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(list(tmp_path.glob("*.json"))) == rounds
        assert list(tmp_path.glob("*.tmp")) == []

    def test_concurrent_generation_is_safe(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        prompts = [make_prompt(query_id=f"q{i}", query=f"question {i}") for i in range(16)]
        with ScriptedServer([(200, {"text": "ok"})]) as server:
            client = HttpGeneratorClient(
                http_config(server.url, cache_dir=str(tmp_path))
            )
            with ThreadPoolExecutor(max_workers=8) as pool:
                outputs = list(pool.map(client.generate, prompts * 2))
        assert outputs == ["ok"] * 32
        assert client.calls == 32


def test_mock_client_concurrent_calls():
    from concurrent.futures import ThreadPoolExecutor

    golds = {f"q{i}": ("Paris",) for i in range(8)}
    client = MockOracleClient(MockOracleConfig(), golds)
    prompts = [make_prompt(query_id=f"q{i}", docs=["the answer is Paris"]) for i in range(8)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        outputs = list(pool.map(client.generate, prompts * 10))
    assert set(outputs) == {"Paris"}
    assert client.calls == 80
