"""Mock oracle semantics, the correctness judge, and HTTP client retry/cache behavior."""

from __future__ import annotations

import http.client
import json
import os
import socket
import ssl
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ragtrim.generation
from ragtrim.generation import (
    CACHE_LOG,
    GeneratorClient,
    HttpGeneratorConfig,
    HttpResponse,
    HttpSession,
    JudgeMode,
    MockOracleBackend,
    MockOracleConfig,
    Prompt,
    ProtocolError,
    TransportError,
    UNKNOWN_ANSWER,
    judge_correct,
    mock_generate,
    take_turns,
)
from ragtrim.data import DataError
from helpers import (
    MALFORMED_BODIES,
    BodySession,
    MockEndpoint,
    RawServer,
    ScriptedServer,
    cache_log_keys,
    clear_proxy_env,
    free_port,
    http_client,
    http_response,
    make_example,
    make_retrieval,
    raw_reply,
)

FIXTURES = Path(__file__).parent / "fixtures"


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
        client = GeneratorClient(MockOracleBackend(config, {"q1": ("Paris",)}, ["q1"]))
        assert client.generate(make_prompt(docs=())) == "Paris"
        assert client.calls == 1
        same = MockOracleBackend(config, {"q1": ("Paris",)}, closed_book_ids=["q1"])
        other = MockOracleBackend(config, {"q1": ("London",)}, closed_book_ids=["q1"])
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
        client = GeneratorClient(MockOracleBackend(MockOracleConfig(), {"q1": ("x",)}))
        with pytest.raises(DataError, match="no gold answers for query 'q9'"):
            client.generate(make_prompt(query_id="q9"))

    def test_each_examples_golds_are_normalized_once(self, monkeypatch):
        import ragtrim.generation
        import ragtrim.metrics

        normalized = []
        normalize = ragtrim.metrics.normalize_answer
        for module in (ragtrim.generation, ragtrim.metrics):
            monkeypatch.setattr(module, "normalize_answer",
                                lambda text: normalized.append(text) or normalize(text))
        golds = {"q1": ("Paris of the North",), "q2": ("Venice", "Venezia of the North")}
        client = GeneratorClient(MockOracleBackend(MockOracleConfig(), golds))
        prompts = [make_prompt(query_id=query_id, docs=(f"doc {i}: {text}",))
                   for query_id in golds for i in range(5) for text in (golds[query_id][-1], "x")]
        outputs = [client.generate(prompt) for prompt in prompts]
        assert outputs == (["Paris of the North", UNKNOWN_ANSWER] * 5
                           + ["Venice", UNKNOWN_ANSWER] * 5)
        assert [normalized.count(gold) for answers in golds.values() for gold in answers] == [1] * 3

    def test_each_examples_golds_are_normalized_once_over_its_probes(self, monkeypatch):
        """Judging the five probes of one example's label search in em mode normalizes
        each of its golds once, and each output once."""
        import ragtrim.generation
        import ragtrim.metrics
        from ragtrim.annotate import find_optimal_k

        normalized = []
        normalize = ragtrim.metrics.normalize_answer
        for module in (ragtrim.generation, ragtrim.metrics):
            monkeypatch.setattr(module, "normalize_answer",
                                lambda text: normalized.append(text) or normalize(text))
        golds = ("Lyon of the Rhone", "Lugdunum")
        search = find_optimal_k(make_example(answers=golds),
                                make_retrieval(texts=[f"doc {i}" for i in range(5)]))
        outputs = []
        prompt = next(search)
        with pytest.raises(StopIteration) as stop:
            while True:
                outputs.append("the Lugdunum" if len(prompt.context_docs) == 4 else "Lyon")
                prompt = search.send(outputs[-1])
        assert stop.value.value.k == 4 and len(outputs) == 5
        assert [normalized.count(text) for text in (*golds, "Lyon", "the Lugdunum")] == [1, 1, 4, 1]


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
            client = http_client(http_config(server.url))
            assert client.generate(make_prompt()) == "the answer"
            payload = server.bodies[0]
            assert set(payload) == {"model", "prompt", "temperature", "max_tokens"}
            assert payload["model"] == "test-model"

    def test_cache_hit_bypasses_network(self, tmp_path):
        prompt = make_prompt()
        with ScriptedServer([(200, {"text": "cached value"})]) as server:
            client = http_client(http_config(server.url, cache_dir=str(tmp_path)))
            first = client.generate(prompt)
            second = client.generate(prompt)
            assert (first, second) == ("cached value", "cached value")
            assert len(server.bodies) == 1
            assert client.cache_hits == 1
        # Warm cache works with the server gone entirely (the key names the endpoint).
        offline = http_client(
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
        http_client(config, session=session).generate(make_prompt())
        assert session.payload == {
            "model": "m",
            "prompt": "\nQuestion: who wrote Hamlet\nAnswer:",
            "temperature": 0.0,
            "max_tokens": 256,
        }
        [key] = cache_log_keys(tmp_path)
        assert key == "67da8eee340a01919de88f53d6576e5e2a8ee0d4ea8c4423e519084b14b98c61"

    def test_retry_on_500_then_success(self):
        with ScriptedServer([(500, {"error": "boom"}), (200, {"text": "ok"})]) as server:
            client = http_client(http_config(server.url))
            assert client.generate(make_prompt()) == "ok"
            assert len(server.bodies) == 2

    def test_401_is_protocol_error(self):
        with ScriptedServer([(401, {"error": "no key"})]) as server:
            client = http_client(http_config(server.url))
            with pytest.raises(ProtocolError, match="unauthorized"):
                client.generate(make_prompt())
            assert len(server.bodies) == 1  # no retries on 4xx

    def test_429_is_retried_like_a_5xx(self):
        with ScriptedServer([(429, {"error": "slow down"}), (200, {"text": "ok"})]) as server:
            client = http_client(http_config(server.url))
            assert client.generate(make_prompt()) == "ok"
            assert len(server.bodies) == 2

    def test_repeated_429s_are_a_transport_error_after_the_retries(self):
        with ScriptedServer([(429, {"error": "slow down"})]) as server:
            client = http_client(http_config(server.url, max_retries=2))
            with pytest.raises(TransportError, match="status 429"):
                client.generate(make_prompt())
            assert len(server.bodies) == 2 + 1

    def test_transport_error_after_retries(self):
        url = f"http://127.0.0.1:{free_port()}/"
        client = http_client(http_config(url, max_retries=1))
        with pytest.raises(TransportError):
            client.generate(make_prompt())

    def test_missing_text_field_is_protocol_error(self):
        with ScriptedServer([(200, {"output": "oops"})]) as server:
            client = http_client(http_config(server.url))
            with pytest.raises(ProtocolError, match="text"):
                client.generate(make_prompt())

    @pytest.mark.parametrize("text", [None, 5, ["ok"]], ids=["null", "number", "list"])
    def test_text_that_is_not_a_string_is_protocol_error_and_not_cached(self, tmp_path, text):
        with ScriptedServer([(200, {"text": text})]) as server:
            client = http_client(http_config(server.url, cache_dir=str(tmp_path)))
            with pytest.raises(ProtocolError, match="text"):
                client.generate(make_prompt())
            assert len(server.bodies) == 1  # not retried
        assert cache_log_keys(tmp_path) == []

    @pytest.mark.parametrize("body", MALFORMED_BODIES.values(), ids=list(MALFORMED_BODIES))
    def test_body_that_is_not_an_object_is_protocol_error(self, body):
        session = BodySession(body)
        client = http_client(http_config("http://127.0.0.1:9/"), session=session)
        with pytest.raises(ProtocolError):
            client.generate(make_prompt())
        assert session.posts == 1  # a malformed answer is not retried

    def test_api_key_header(self, monkeypatch):
        monkeypatch.setenv("TEST_GEN_KEY", "sekret")
        with ScriptedServer([(200, {"text": "ok"})]) as server:
            client = http_client(
                http_config(server.url, api_key_env_var="TEST_GEN_KEY")
            )
            client.generate(make_prompt())
            assert server.headers_seen[0].get("Authorization") == "Bearer sekret"

    def test_fingerprint_identifies_endpoint_and_model(self):
        client = http_client(http_config("http://host/gen"))
        assert client.fingerprint() == (
            "http:test-model@http://host/gen|temperature=0.0|max_tokens=256"
        )

    def test_sampling_settings_key_cache_and_fingerprint(self, tmp_path):
        prompt = make_prompt()
        with ScriptedServer([(200, {"text": "greedy"}), (200, {"text": "sampled"})]) as server:
            greedy = http_client(http_config(server.url, cache_dir=str(tmp_path)))
            sampled = http_client(
                http_config(server.url, cache_dir=str(tmp_path), temperature=1.0, max_tokens=5)
            )
            assert greedy.generate(prompt) == "greedy"
            assert sampled.generate(prompt) == "sampled"
            assert greedy.generate(prompt) == "greedy"
            assert len(server.bodies) == 2
            assert (greedy.cache_hits, sampled.cache_hits) == (1, 0)
        assert greedy.fingerprint() != sampled.fingerprint()

    def test_corrupt_cache_entry_is_a_counted_miss(self, tmp_path, caplog):
        prompt = make_prompt()
        with ScriptedServer([(200, {"text": "first"}), (200, {"text": "refetched"})]) as server:
            http_client(http_config(server.url, cache_dir=str(tmp_path))).generate(prompt)
            log = tmp_path / CACHE_LOG
            log.write_text(log.read_text(encoding="utf-8")[:-5] + "\n")  # '..."text": "fir'
            client = http_client(http_config(server.url, cache_dir=str(tmp_path)))
            with caplog.at_level("WARNING", logger="ragtrim.generation"):
                assert client.generate(prompt) == "refetched"
            assert (client.calls, client.cache_hits) == (1, 0)
            assert len(server.bodies) == 2
            assert f"{CACHE_LOG}:1" in caplog.text
            assert client.generate(prompt) == "refetched"  # the refetched entry was appended
            assert client.cache_hits == 1

    @pytest.mark.parametrize("entry", [{"text": 5}, {"text": None}, {"text": ["a"]}, {},
                                       "not an object"], ids=["int", "null", "list", "no-text",
                                                              "string"])
    def test_cache_line_without_string_text_is_a_counted_miss(self, tmp_path, caplog, entry):
        """A log line whose text is not a string is logged with its line number, and its
        prompt is a miss: refetched, appended, and a hit for a client built after."""
        prompt, other = make_prompt(), make_prompt(query="who wrote Macbeth")
        endpoint = MockEndpoint({p.text: (p.query_id, "fetched") for p in (prompt, other)})
        config = http_config("http://generator.test/", cache_dir=str(tmp_path))
        key = http_client(config).backend.cache_key(prompt)
        bad = dict(entry, key=key) if isinstance(entry, dict) else [key, entry]
        (tmp_path / CACHE_LOG).write_text(
            json.dumps({"key": http_client(config).backend.cache_key(other), "text": "kept"})
            + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with caplog.at_level("WARNING", logger="ragtrim.generation"):
            client = http_client(config, session=endpoint)
        assert f"{CACHE_LOG}:2" in caplog.text
        assert [client.generate(p) for p in (prompt, other)] == ["fetched", "kept"]
        assert (client.calls, client.cache_hits, endpoint.posts) == (2, 1, 1)
        later = http_client(config, session=endpoint)
        assert later.generate(prompt) == "fetched" and later.cache_hits == 1
        assert endpoint.posts == 1

    def test_torn_last_cache_line_is_a_counted_miss(self, tmp_path, caplog):
        """A last line with no newline (an append cut short) is logged and its prompt
        refetched; the answer appended after it starts on a line of its own and reads
        back."""
        prompts = [make_prompt(query=f"question {i}") for i in range(2)]
        endpoint = MockEndpoint({p.text: (p.query_id, f"answer {p.query}") for p in prompts})
        config = http_config("http://generator.test/", cache_dir=str(tmp_path))
        http_client(config, session=endpoint).generate(prompts[0])
        key = http_client(config).backend.cache_key(prompts[1])
        log = tmp_path / CACHE_LOG
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"key": key, "text": "answer question 1"})[:-9])
        with caplog.at_level("WARNING", logger="ragtrim.generation"):
            client = http_client(config, session=endpoint)
        assert f"{CACHE_LOG}:2" in caplog.text
        assert [client.generate(p) for p in prompts] == ["answer question 0", "answer question 1"]
        assert (client.calls, client.cache_hits, endpoint.posts) == (2, 1, 2)
        assert json.loads(log.read_bytes().split(b"\n")[2])["key"] == key
        later = http_client(config, session=endpoint)
        assert [later.generate(p) for p in prompts] == ["answer question 0", "answer question 1"]
        assert (later.cache_hits, endpoint.posts) == (2, 2)

    def test_a_short_write_is_followed_by_the_rest_of_the_line(self, tmp_path, monkeypatch):
        """A write to the log that takes only part of a line is followed by writes of the
        rest, so the line reads back whole."""
        prompt = make_prompt()
        endpoint = MockEndpoint({prompt.text: (prompt.query_id, "a long enough answer")})
        config = http_config("http://generator.test/", cache_dir=str(tmp_path))
        client = http_client(config, session=endpoint)
        write = os.write
        monkeypatch.setattr(os, "write",
                            lambda fd, data: write(fd, data[:7] if fd == client._log else data))
        assert client.generate(prompt) == "a long enough answer"
        monkeypatch.undo()
        assert cache_log_keys(tmp_path) == [client.backend.cache_key(prompt)]
        later = http_client(config, session=endpoint)
        assert later.generate(prompt) == "a long enough answer" and later.cache_hits == 1

    def test_a_client_built_later_hits_the_answers_appended_before(self, tmp_path):
        """The annotate then run path: a second client over the same cache_dir, built
        after the first appended its answers, answers them from the log, prefetching
        nothing."""
        prompts = [make_prompt(query=f"question {i}") for i in range(6)]
        endpoint = MockEndpoint({p.text: (p.query_id, p.query) for p in prompts})
        config = http_config("http://generator.test/", cache_dir=str(tmp_path), max_in_flight=4)
        first = http_client(config, session=endpoint)
        first.prefetch(prompts)
        assert [first.generate(p) for p in prompts[:4]] == [p.query for p in prompts[:4]]
        deadline = time.monotonic() + 10  # no prefetch starts once cancel_prefetch is called
        while endpoint.posts < 6 and time.monotonic() < deadline:
            time.sleep(0.001)
        first.cancel_prefetch()
        assert endpoint.posts == 6
        second = http_client(config, session=endpoint)
        second.prefetch(prompts)
        assert [second.generate(p) for p in prompts] == [p.query for p in prompts]
        assert (second.calls, second.cache_hits, endpoint.posts) == (6, 6, 6)
        assert sorted(cache_log_keys(tmp_path)) == sorted(map(second.backend.cache_key, prompts))

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
            http_client(
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
        assert len(set(cache_log_keys(tmp_path))) == rounds  # and every line parses
        assert list(tmp_path.glob("*.tmp")) == []

    def test_connection_closed_after_each_reply_is_not_reused(self, caplog):
        """The server closes each kept-alive connection after replying; the pool sees that
        before reusing it, so no POST fails."""
        server = ScriptedServer([(200, {"text": "ok"})], keep_alive=True, close_after_reply=True)
        with server, caplog.at_level("WARNING", logger="ragtrim.generation"):
            client = http_client(http_config(server.url))
            for i in range(3):
                assert client.generate(make_prompt(query=f"question {i}")) == "ok"
                assert server.closed.acquire(timeout=5)
            client.session.close()
        assert len(server.bodies) == 3
        assert len(set(server.ports)) == 3
        assert caplog.records == []

    def test_dropped_connection_is_one_retry_on_a_new_connection(self, caplog):
        script = [(200, {"text": "first"}), ("drop", None), (200, {"text": "second"})]
        with ScriptedServer(script, keep_alive=True) as server:
            client = http_client(http_config(server.url, backoff_base_s=0))
            assert client.generate(make_prompt(query="one")) == "first"
            with caplog.at_level("WARNING", logger="ragtrim.generation"):
                assert client.generate(make_prompt(query="two")) == "second"
            client.session.close()
        assert len(server.bodies) == 3
        assert server.ports[0] == server.ports[1] != server.ports[2]
        assert [r.getMessage().split(" to ")[0] for r in caplog.records] == ["attempt 1/3"]

    def test_pooled_connections_are_capped_and_never_shared(self):
        """Prefetching many more prompts than max_in_flight over kept-alive connections:
        each prompt gets the answer to its own request, over at most max_in_flight
        connections."""
        import sys

        prompts = [make_prompt(query=f"prompt {i}") for i in range(200)]
        echo = [(200, lambda request: {"text": request["prompt"]})]
        with ScriptedServer(echo, keep_alive=True) as server:
            client = http_client(http_config(server.url, max_in_flight=4))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                client.prefetch(prompts)
                outputs = [client.generate(prompt) for prompt in prompts]
            finally:
                sys.setswitchinterval(interval)
            client.session.close()
        assert outputs == [prompt.text for prompt in prompts]
        assert len(server.bodies) == len(prompts) == client.calls
        assert len(set(server.ports)) <= 4

    def test_prefetch_skips_cached_and_pending_prompts(self, tmp_path):
        prompts = [make_prompt(query=f"question {i}") for i in range(2)]
        endpoint = MockEndpoint({p.text: (p.query_id, "a") for p in prompts})
        config = http_config("http://generator.test/", cache_dir=str(tmp_path))
        client = http_client(config, session=endpoint)
        client.generate(prompts[0])
        client.prefetch([prompts[0], prompts[1], prompts[1]])
        assert [client.generate(p) for p in prompts] == ["a", "a"]
        assert (endpoint.posts, client.calls, client.cache_hits) == (2, 3, 1)

    def test_prefetch_returns_the_prefetch_it_queued_for_each_prompt(self, tmp_path):
        """A cached prompt, a prompt already pending and any prompt at width 1 get None;
        a prompt queued gets its own prefetch, which lands with the answer its generate
        returns."""
        prompts = [make_prompt(query=f"question {i}") for i in range(3)]
        endpoint = MockEndpoint({p.text: (p.query_id, p.query) for p in prompts})
        narrow = http_client(http_config("http://generator.test/", max_in_flight=1),
                             session=endpoint)
        assert narrow.prefetch(prompts) == [None] * 3 and endpoint.posts == 0
        client = http_client(http_config("http://generator.test/", cache_dir=str(tmp_path)),
                             session=endpoint)
        client.generate(prompts[0])
        cached, own, pending, other = client.prefetch([*prompts[:2], prompts[1], prompts[2]])
        assert cached is None and pending is None and own is not other
        assert [client.generate(p) for p in prompts[1:]] == [own.text, other.text] \
            == [p.query for p in prompts[1:]]
        client.cancel_prefetch()

    def test_cancelled_prefetch_that_has_not_started_never_posts(self):
        import time

        prompts = [make_prompt(query=f"question {i}") for i in range(6)]
        endpoint = MockEndpoint({p.text: (p.query_id, "a") for p in prompts}, delay_s=0.05)
        config = http_config("http://generator.test/", max_in_flight=2)
        client = http_client(config, session=endpoint)
        client.prefetch(prompts)
        deadline = time.monotonic() + 10
        while endpoint.peak_in_flight < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        client.cancel_prefetch()
        assert endpoint.in_flight == []  # it waited for the two POSTs under way
        assert endpoint.posts == 2

    def test_prefetch_at_width_1_sends_nothing(self):
        prompts = [make_prompt(query=f"question {i}") for i in range(3)]
        endpoint = MockEndpoint({p.text: (p.query_id, "a") for p in prompts})
        client = http_client(http_config("http://generator.test/", max_in_flight=1), endpoint)
        client.prefetch(prompts)
        client.cancel_prefetch()
        assert endpoint.posts == 0
        assert [client.generate(p) for p in prompts] == ["a"] * 3
        assert (endpoint.posts, endpoint.peak_in_flight) == (3, 1)

    def test_a_failed_prefetch_holds_the_queue_until_generate_raises_it(self):
        """At width 2, with the other thread's POST held in flight, the prefetches queued
        behind one that failed for good do not POST while that failure waits for generate;
        generate fetches them inline. Once the failure is raised, prefetches POST again."""
        import time

        bad, *good = [make_prompt(query_id=f"q{i}", query=f"question {i}") for i in range(6)]
        endpoint = MockEndpoint({p.text: (p.query_id, "a") for p in (bad, *good)},
                                failing=["q0"])
        fail, answer = threading.Event(), threading.Event()
        endpoint.gates = {bad.text: fail, good[0].text: answer}
        config = http_config("http://generator.test/", max_retries=0, max_in_flight=2)
        client = http_client(config, session=endpoint)
        client.prefetch([good[0], bad, *good[1:3]])
        time.sleep(0.05)
        fail.set()
        time.sleep(0.05)
        assert endpoint.posts == 2
        answer.set()
        with pytest.raises(TransportError):
            client.generate(bad)
        client.prefetch(good[3:])
        time.sleep(0.05)
        assert endpoint.posts == 4
        assert [client.generate(p) for p in good] == ["a"] * 5
        assert endpoint.posts == 6 and endpoint.doubled == []

    @pytest.mark.parametrize("failure", ["prefetched", "inline"])
    def test_a_raised_failure_drops_the_prefetches_queued_before_it(self, monkeypatch, failure):
        """At width 2, two prefetches reach the workers only after generate has raised a
        failure, of a prefetched prompt or of one fetched inline: until then each worker
        waits, with no slot, once it has answered its first prompt (a held one, or the
        failing one). They never POST from a worker: generate fetches each inline, on the
        caller's thread, when asked for it. A prefetch queued after the raise POSTs from a
        worker."""
        bad, *good = [make_prompt(query_id=f"q{i}", query=f"question {i}") for i in range(4)]
        held = [make_prompt(query_id=f"h{i}", query=f"held {i}") for i in range(2)]
        endpoint = MockEndpoint({p.text: (p.query_id, "a") for p in (bad, *good, *held)},
                                failing=["q0"])
        caller, posts = threading.current_thread(), []

        class Recording:
            def post(self, url, json, **kwargs):
                posts.append((json["prompt"], threading.current_thread() is caller))
                return endpoint.post(url, json=json, **kwargs)

        raised = threading.Event()

        finish = ragtrim.generation._Prefetch.finish

        def late_finish(entry, text=None, error=None):
            """A prefetch's outcome, whose worker then waits until generate has raised."""
            finish(entry, text, error)
            if text is not None or error is not None:  # neither: dropped, with no POST
                raised.wait(10)

        monkeypatch.setattr(ragtrim.generation._Prefetch, "finish", late_finish)
        config = http_config("http://generator.test/", max_retries=0, max_in_flight=2)
        client = http_client(config, session=Recording())
        first = [held[0], bad] if failure == "prefetched" else held
        client.prefetch([*first, *good[:2]])
        deadline = time.monotonic() + 10  # until each worker has posted its first prompt
        while len(posts) < len(first) and time.monotonic() < deadline:
            time.sleep(0.001)
        with pytest.raises(TransportError):
            client.generate(bad)
        raised.set()
        client.prefetch(good[2:])
        assert [client.generate(p) for p in good] == ["a"] * 3
        client.cancel_prefetch()
        assert len(posts) == 4 + len(held) - (failure == "prefetched") and dict(posts) == {
            bad.text: failure == "inline", good[0].text: True, good[1].text: True,
            good[2].text: False, **{p.text: False for p in first if p is not bad}}

    @pytest.mark.parametrize("width, replies, waits", [
        pytest.param(width, *case, id=f"{width}{suffix}") for width in (1, 2)
        for suffix, case in [
            ("", ([http_response(503, b"busy"), "drop"], [0.05, 0.1])),
            ("-retry-after", ([HttpResponse(429, b"slow down", retry_after=1)], [1.0])),
        ]
    ])
    def test_a_retry_is_not_sent_before_its_backoff_has_passed(self, width, replies, waits):
        """A prompt's first attempts fail: with a 503 and then a dropped connection, or
        with a 429 whose Retry-After (1 s) is longer than its backoff. Each retry is sent
        no sooner than backoff_base_s * 2 ** (attempt - 1), or the Retry-After if longer,
        after the attempt before it ended, whether generate sleeps the wait (width 1) or
        a worker parks it on a timer (width 2)."""
        prompt = make_prompt()
        times = []  # (start, end) of each POST

        class Failing:
            def post(self, url, json, **kwargs):
                start = time.monotonic()
                try:
                    if len(times) == len(replies):
                        return http_response(200, b'{"text": "a"}')
                    if replies[len(times)] == "drop":
                        raise http.client.RemoteDisconnected("dropped")
                    return replies[len(times)]
                finally:
                    times.append((start, time.monotonic()))

        config = http_config("http://generator.test/", backoff_base_s=0.05, max_in_flight=width)
        client = http_client(config, session=Failing())
        client.prefetch([prompt])
        assert client.generate(prompt) == "a"
        assert len(times) == len(waits) + 1
        for attempt, wait in enumerate(waits, 1):
            assert times[attempt][0] - times[attempt - 1][1] >= wait

    def test_a_retry_waits_the_longer_of_its_backoff_and_the_retry_after_before_it(self):
        """The waits post_attempts yields: the backoff, or a 5xx's or 429's Retry-After if
        it asks for longer; a dropped connection's retry waits the backoff alone."""
        replies = [HttpResponse(429, b"", retry_after=3), OSError("dropped"),
                   HttpResponse(503, b"", retry_after=9), HttpResponse(503, b"", retry_after=0),
                   HttpResponse(503, b"")]

        class Session:
            def post(self, url, json, **kwargs):
                if isinstance(reply := replies.pop(0), Exception):
                    raise reply
                return reply

        config = http_config("http://generator.test/", max_retries=4, backoff_base_s=1)
        attempts = ragtrim.generation.post_attempts(Session(), config, {})
        assert [next(attempts) for _ in range(4)] == [3, 2, 9, 8]
        with pytest.raises(TransportError):
            next(attempts)

    def test_a_parked_retry_holds_no_slot(self):
        """At width 2, one prompt's first attempt fails. While it waits out its 0.2 s
        backoff, the two other prompts are in flight at once, each waiting for the other,
        and only then is the retry sent. No more than 2 POSTs are ever in flight."""
        retried, *others = [make_prompt(query=f"question {i}") for i in range(3)]
        lock, in_flight, peak, posts = threading.Lock(), set(), [0], []
        together = []  # when both other prompts were in flight
        both = threading.Barrier(2, timeout=5)

        class Session:
            def post(self, url, json, **kwargs):
                text = json["prompt"]
                with lock:
                    posts.append((text, time.monotonic()))
                    in_flight.add(text)
                    peak[0] = max(peak[0], len(in_flight))
                try:
                    if text != retried.text:
                        both.wait()
                        together.append(time.monotonic())
                    elif len([t for t, _ in posts if t == text]) == 1:
                        return http_response(503, b"busy")
                    return http_response(200, b'{"text": "a"}')
                finally:
                    with lock:
                        in_flight.discard(text)

        config = http_config("http://generator.test/", backoff_base_s=0.2, max_in_flight=2)
        client = http_client(config, session=Session())
        client.prefetch([retried, *others])
        assert [client.generate(p) for p in (retried, *others)] == ["a"] * 3
        first, retry = [t for text, t in posts if text == retried.text]
        assert len(posts) == 4 and peak[0] == 2
        assert max(together) < retry and retry - first >= 0.2

    def test_an_inline_fetch_waits_for_a_free_slot(self):
        """At width 2, with both pool threads' POSTs held in flight, generate of a prompt
        that was not prefetched POSTs only once one of them has finished: the pool and
        the caller together keep at most max_in_flight requests under way."""
        import time

        held, inline = [make_prompt(query=f"question {i}") for i in range(2)], make_prompt()
        endpoint = MockEndpoint({p.text: (p.query_id, "a") for p in (*held, inline)})
        release = threading.Event()
        endpoint.gates = {p.text: release for p in held}
        client = http_client(http_config("http://generator.test/", max_in_flight=2), endpoint)
        client.prefetch(held)
        deadline = time.monotonic() + 10
        while len(endpoint.in_flight) < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        timer = threading.Timer(0.05, release.set)
        timer.start()
        assert client.generate(inline) == "a"
        assert [client.generate(p) for p in held] == ["a", "a"]
        timer.join(10)
        assert not timer.is_alive()
        assert (endpoint.posts, endpoint.peak_in_flight, endpoint.gate_timeouts) == (3, 2, [])

    def test_cancel_under_contention_keeps_every_answer_and_starts_nothing_after(
        self, tmp_path
    ):
        """Cancelling 300 queued prefetches at width 4 (set here, as the bound below is
        one POST per thread) while the threads switch every microsecond: a POST starts
        after cancel_prefetch is called only if it had passed its check before (at most
        one per thread); once it returns, no POST is in flight and none starts, and
        every answered POST has its cache entry."""
        import sys
        import time

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(10):
                prompts = [make_prompt(query=f"question {round_} {i}") for i in range(300)]
                endpoint = MockEndpoint({p.text: (p.query_id, "a") for p in prompts})
                cache = tmp_path / str(round_)
                client = http_client(
                    http_config("http://generator.test/", cache_dir=str(cache),
                                max_in_flight=4),
                    session=endpoint)
                client.prefetch(prompts)
                time.sleep(0.0005 * round_)
                before = endpoint.posts
                client.cancel_prefetch()
                posts = endpoint.posts
                time.sleep(0.01)
                assert endpoint.in_flight == [] and endpoint.posts == posts <= before + 4
                assert len(set(cache_log_keys(cache))) == posts
        finally:
            sys.setswitchinterval(interval)

    def test_every_prefetch_lands_once_and_every_retry_is_counted_under_contention(self):
        """200 prompts prefetched at width 8, more workers than cores, through an endpoint
        that fails the first attempt of 20% of them, while the threads switch every
        microsecond: each prefetch lands in ``landed`` once, with its answer, and
        ``retries`` equals the faults, which a lost update of either would break."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(5):
                prompts = [make_prompt(query=f"question {round_} {i}") for i in range(200)]
                endpoint = MockEndpoint({p.text: (p.query_id, p.query) for p in prompts},
                                        fault_rate=0.2, seed=round_)
                client = http_client(http_config("http://generator.test/", backoff_base_s=0,
                                                 max_in_flight=8), session=endpoint)
                entries = client.prefetch(prompts)
                deadline = time.monotonic() + 10
                while len(client.landed) < len(prompts) and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert sorted(map(id, client.landed)) == sorted(map(id, entries))
                assert [entry.text for entry in entries] == [p.query for p in prompts]
                assert [client.generate(p) for p in prompts] == [p.query for p in prompts]
                client.cancel_prefetch()
                assert client.retries == endpoint.faults == endpoint.posts - len(prompts) > 0
        finally:
            sys.setswitchinterval(interval)

    def test_no_search_is_resumed_ahead_while_a_prompt_of_its_text_waits_before_it(self):
        """Search A yields X, then X again; search B yields X in between, and search Z a
        prompt that the endpoint holds. At width 2, with no cache, B's X finds A's first
        prefetch pending and gets none of its own. A's second X, yielded once A's first
        is generated, gets a new prefetch, behind B's X in the line. It lands while Z, at
        the head, is held, yet A is not resumed ahead: B's generate takes that answer,
        and A's X is fetched again. The endpoint numbers its replies, so each search must
        get the answer of its own generate calls, in order."""
        x = make_prompt(query="x")
        z = make_prompt(query_id="z", query="z")
        release, lock, posts = threading.Event(), threading.Lock(), []

        class Numbering:
            def post(self, url, json, **kwargs):
                with lock:
                    posts.append(json["prompt"])
                    n = len(posts)
                if json["prompt"] == z.text:
                    release.wait(10)
                elif posts.count(x.text) == 2:  # A's second X: its prefetch lands, then z
                    threading.Timer(0.2, release.set).start()
                return http_response(200, b'{"text": "%d"}' % n)

        got = {}

        def search(name, *prompts):
            got[name] = []
            for prompt in prompts:
                [(output, _)] = yield (prompt,)
                got[name].append(output)

        client = http_client(http_config("http://generator.test/", max_in_flight=2),
                             session=Numbering())
        take_turns(client, [search("a", x, x), search("z", z), search("b", x)])
        assert posts.count(x.text) == 3 and release.is_set()
        numbers = [str(i) for i, text in enumerate(posts, 1) if text == x.text]
        assert got == {"a": [numbers[0], numbers[2]], "z": [got["z"][0]], "b": [numbers[1]]}

    def test_http_proxy_gets_the_absolute_target(self, monkeypatch):
        clear_proxy_env(monkeypatch)
        with ScriptedServer([(200, {"text": "via proxy"})]) as proxy:
            monkeypatch.setenv("http_proxy", proxy.url)
            # Nothing listens on localhost:9, so only the proxy can answer.
            client = http_client(http_config("http://localhost:9/v1/gen?x=1"))
            assert client.generate(make_prompt()) == "via proxy"
        assert proxy.paths == ["http://localhost:9/v1/gen?x=1"]
        assert proxy.headers_seen[0]["Host"] == "localhost:9"

    def test_https_through_a_proxy_goes_through_one_connect_tunnel(self, monkeypatch):
        """A CONNECT proxy in front of a TLS server whose certificate (a committed
        self-signed one for localhost and 127.0.0.1, made with ``openssl req -x509``)
        is trusted through SSL_CERT_FILE: two POSTs go over one tunnel, with
        origin-form targets, and the certificate is checked against the host."""
        clear_proxy_env(monkeypatch)
        monkeypatch.setenv("SSL_CERT_FILE", str(FIXTURES / "localhost-cert.pem"))
        server = ScriptedServer([(200, {"text": "tunnelled"})], keep_alive=True)
        tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        tls.load_cert_chain(FIXTURES / "localhost-cert.pem", FIXTURES / "localhost-key.pem")
        server.server.socket = tls.wrap_socket(server.server.socket, server_side=True)
        with server, ConnectProxy() as proxy:
            monkeypatch.setenv("https_proxy", proxy.url)
            port = server.server.server_port
            client = http_client(http_config(f"https://localhost:{port}/v1/gen"))
            for i in range(2):
                assert client.generate(make_prompt(query=f"question {i}")) == "tunnelled"
            client.session.close()
        assert proxy.targets == [f"localhost:{port}"]
        assert server.paths == ["/v1/gen", "/v1/gen"]

    def test_no_proxy_host_goes_direct(self, monkeypatch):
        clear_proxy_env(monkeypatch)
        monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{free_port()}")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        with ScriptedServer([(200, {"text": "direct"})]) as server:
            client = http_client(http_config(server.url, max_retries=0))
            assert client.generate(make_prompt()) == "direct"
        assert server.paths == ["/"]

    def test_concurrent_generation_is_safe(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        prompts = [make_prompt(query_id=f"q{i}", query=f"question {i}") for i in range(16)]
        with ScriptedServer([(200, {"text": "ok"})]) as server:
            client = http_client(
                http_config(server.url, cache_dir=str(tmp_path))
            )
            with ThreadPoolExecutor(max_workers=8) as pool:
                outputs = list(pool.map(client.generate, prompts * 2))
        assert outputs == ["ok"] * 32
        assert client.calls == 32


class TestHttpWire:
    """What HttpSession writes and how it reads each kind of reply, against a raw server;
    each case checks the outcome post_attempts prescribes for it."""

    def request(self, target, host, headers=b""):
        body = json.dumps({"model": "test-model", "prompt": make_prompt().text,
                           "temperature": 0.0, "max_tokens": 256}).encode()
        return (b"POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"
                b"Accept-Encoding: identity\r\n%sContent-Length: %d\r\n\r\n%s"
                % (target, host, headers, len(body), body))

    def test_request_bytes(self, monkeypatch):
        clear_proxy_env(monkeypatch)
        monkeypatch.setenv("TEST_GEN_KEY", "sekret")
        with RawServer([(raw_reply("ok"), False)]) as server:
            client = http_client(http_config(server.url + "v1/gen?x=1",
                                             api_key_env_var="TEST_GEN_KEY"))
            assert client.generate(make_prompt()) == "ok"
            client.session.close()
        host = server.url.split("/")[2].encode()
        assert server.requests == [
            self.request(b"/v1/gen?x=1", host, b"Authorization: Bearer sekret\r\n")]

    def test_request_bytes_leave_out_a_default_port(self, monkeypatch):
        """Through an http proxy, so that the endpoint can be on port 80."""
        clear_proxy_env(monkeypatch)
        with RawServer([(raw_reply("ok"), False)]) as proxy:
            monkeypatch.setenv("http_proxy", proxy.url)
            client = http_client(http_config("http://generator.test/gen"))
            assert client.generate(make_prompt()) == "ok"
            client.session.close()
        assert proxy.requests == [self.request(b"http://generator.test/gen", b"generator.test")]

    @pytest.mark.parametrize("url, host, authority", [
        ("http://[::1]:8080/gen", b"[::1]:8080", "[::1]:8080"),
        ("https://b\u00fccher.test/gen", b"xn--bcher-kva.test", "xn--bcher-kva.test:443"),
    ])
    def test_an_ipv6_or_international_host_is_written_as_http_client_wrote_it(
            self, monkeypatch, url, host, authority):
        """An IPv6 address in brackets, a name IDNA-encoded (the start of each request and
        the CONNECT authority; neither host can be reached from a test)."""
        clear_proxy_env(monkeypatch)
        _, _, head, connect_to = HttpSession()._route(url)
        assert head.startswith(b"POST /gen HTTP/1.1\r\nHost: %s\r\n" % host)
        assert connect_to == authority

    def test_a_header_value_with_a_line_break_is_never_sent(self, monkeypatch):
        monkeypatch.setenv("TEST_GEN_KEY", "sekret\r\nX-Injected: 1")
        with RawServer([(raw_reply("ok"), False)]) as server:
            client = http_client(http_config(server.url, api_key_env_var="TEST_GEN_KEY"))
            with pytest.raises(ValueError, match="CR or LF"):
                client.generate(make_prompt())
        assert server.requests == []

    @pytest.mark.parametrize("reply, close, reused", [
        pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                     b"9\r\n{\"text\": \r\n5;ext=1\r\n\"ok\"}\r\n0\r\nX-Trailer: t\r\n\r\n",
                     False, True, id="chunked"),
        pytest.param(b"HTTP/1.1 100 Continue\r\n\r\n" + raw_reply("ok"), False, True,
                     id="100-continue"),
        pytest.param(raw_reply("ok", b"HTTP/1.1 200 OK\r\n" + b"X-Filler: x\r\n" * 99),
                     False, True, id="100-header-lines"),
        pytest.param(b"HTTP/1.0 200 OK\r\n\r\n{\"text\": \"ok\"}", True, False,
                     id="http-1.0-read-to-close"),
        pytest.param(raw_reply("ok", b"HTTP/1.1 200 OK\r\nConnection: close\r\n"), False, False,
                     id="connection-close"),
    ])
    def test_a_reply_is_read_whole_and_its_connection_reused_if_it_allows(
            self, reply, close, reused, caplog):
        """Two POSTs each get the reply's text, with no retry; the second reuses the first's
        connection exactly when the reply allows it: HTTP/1.1, a length and no ``Connection:
        close``. The server keeps the ``Connection: close`` connection open, so only the
        client can have opened a new one."""
        with RawServer([(reply, close)]) as server, \
                caplog.at_level("WARNING", logger="ragtrim.generation"):
            client = http_client(http_config(server.url))
            for i in range(2):
                assert client.generate(make_prompt(query=f"question {i}")) == "ok"
            client.session.close()
        assert len(server.requests) == 2
        assert (server.ports[0] == server.ports[1]) is reused
        assert caplog.records == []

    @pytest.mark.parametrize("broken, error", [
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{\"text\"",
                     http.client.IncompleteRead, id="body-cut-short"),
        pytest.param(b"garbage\r\n\r\n", http.client.BadStatusLine, id="garbage-status-line"),
        pytest.param(raw_reply("ok", b"HTTP/1.1 200 OK\r\n" + b"X-Filler: x\r\n" * 101),
                     http.client.HTTPException, id="101-header-lines"),
        pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
                     http.client.IncompleteRead, id="bad-chunk-size"),
        pytest.param(b"HTTP/1.1 200 OK\r\nX-Long: " + b"x" * 65536 + b"\r\n\r\n",
                     http.client.LineTooLong, id="line-too-long"),
    ])
    def test_a_broken_reply_is_one_retry_on_a_new_connection(self, broken, error, caplog):
        """HttpSession raises the http.client error of the reply; post_attempts retries it."""
        script = [(broken, True), (broken, True), (raw_reply("ok"), False)]
        with RawServer(script) as server:
            with pytest.raises(error):
                HttpSession().post(server.url, json={})
            client = http_client(http_config(server.url, backoff_base_s=0))
            with caplog.at_level("WARNING", logger="ragtrim.generation"):
                assert client.generate(make_prompt()) == "ok"
            client.session.close()
        assert len(server.requests) == 3
        assert server.ports[1] != server.ports[2]
        assert [r.getMessage().split(" to ")[0] for r in caplog.records] == ["attempt 1/3"]

    def test_a_204_is_a_protocol_error_and_its_connection_is_pooled_again(self):
        """A 204 has no body to read, so nothing waits for one: the POST is not retried,
        the missing JSON is a ProtocolError, and the next POST reuses the connection."""
        script = [(b"HTTP/1.1 204 No Content\r\n\r\n", False), (raw_reply("ok"), False)]
        with RawServer(script) as server:
            client = http_client(http_config(server.url))
            with pytest.raises(ProtocolError, match="non-JSON"):
                client.generate(make_prompt(query="question 0"))
            assert client.generate(make_prompt(query="question 1")) == "ok"
            client.session.close()
        assert len(server.requests) == 2
        assert server.ports[0] == server.ports[1]

    def test_a_proxy_that_refuses_the_tunnel_is_retried_then_a_transport_error(
            self, monkeypatch):
        """A CONNECT answered with 407 fails the attempt, as a socket error would; once
        max_retries retries have failed too, generate raises TransportError."""
        clear_proxy_env(monkeypatch)
        refused = b"HTTP/1.1 407 Proxy Authentication Required\r\nContent-Length: 0\r\n\r\n"
        with RawServer([(refused, True)]) as proxy:
            monkeypatch.setenv("https_proxy", proxy.url)
            client = http_client(http_config("https://generator.test/gen", backoff_base_s=0))
            with pytest.raises(TransportError, match="status 407"):
                client.generate(make_prompt())
        assert [request.split(b"\r\n")[0] for request in proxy.requests] \
            == [b"CONNECT generator.test:443 HTTP/1.1"] * 3

    @pytest.mark.parametrize("value, seconds", [
        (b"1", 1), (b"120", 120), (b"999999999", 999999999),
        (b"Wed, 21 Oct 2015 07:28:00 GMT", None), (b"-1", None), (b"1.5", None),
        (b"1e3", None), (b"", None), (b"1234567890", None),
    ])
    def test_retry_after_is_read_as_whole_seconds(self, value, seconds):
        """A Retry-After of up to 9 digits is its seconds; an HTTP-date or any other value
        is None, so the retry waits its backoff alone."""
        reply = raw_reply("busy", b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: %s\r\n" % value)
        with RawServer([(reply, True)]) as server:
            response = HttpSession().post(server.url, json={})
        assert (response.status_code, response.retry_after) == (429, seconds)

    def test_a_connection_on_a_descriptor_above_1023_is_reused(self):
        """The idle check of a kept-alive connection works on any descriptor (select.select
        takes none at or above 1024)."""
        import resource

        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100:
            pytest.skip("the soft limit on open files is below 1,100")
        pipes = []
        with RawServer([(raw_reply("ok"), False)]) as server:
            try:
                while not pipes or pipes[-1] < 1023:  # the next descriptor is >= 1024
                    pipes.extend(os.pipe())
                client = http_client(http_config(server.url))
                for i in range(2):
                    assert client.generate(make_prompt(query=f"question {i}")) == "ok"
                client.session.close()
            finally:
                for fd in pipes:
                    os.close(fd)
        assert len(server.requests) == 2
        assert server.ports[0] == server.ports[1]


def test_mock_client_concurrent_calls():
    from concurrent.futures import ThreadPoolExecutor

    golds = {f"q{i}": ("Paris",) for i in range(8)}
    client = GeneratorClient(MockOracleBackend(MockOracleConfig(), golds))
    prompts = [make_prompt(query_id=f"q{i}", docs=["the answer is Paris"]) for i in range(8)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        outputs = list(pool.map(client.generate, prompts * 10))
    assert set(outputs) == {"Paris"}
    assert client.calls == 80


class ConnectProxy:
    """A local HTTP proxy that answers each CONNECT with 200 and relays the tunnel's bytes
    both ways; ``targets`` records each CONNECT target."""

    def __init__(self):
        self.targets: list[str] = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"

    def __enter__(self):
        threading.Thread(target=self._accept, daemon=True).start()
        return self

    def __exit__(self, *exc):
        self.listener.close()

    def _accept(self):
        while True:
            try:
                client, _ = self.listener.accept()
            except OSError:  # closed
                return
            head = b""
            while b"\r\n\r\n" not in head and (chunk := client.recv(4096)):
                head += chunk
            target = head.split()[1].decode()
            self.targets.append(target)
            host, port = target.rsplit(":", 1)
            upstream = socket.create_connection((host, int(port)))
            client.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
            for source, sink in ((client, upstream), (upstream, client)):
                threading.Thread(target=self._relay, args=(source, sink), daemon=True).start()

    @staticmethod
    def _relay(source, sink):
        try:
            while data := source.recv(65536):
                sink.sendall(data)
        except OSError:
            pass
        finally:
            sink.close()
