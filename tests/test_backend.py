"""Transport retry/rate-limit behavior and the three backends.

Everything here talks only to a scripted localhost server (or no server
at all); the conftest socket guard enforces that.
"""

import sys
import threading

import pytest
import requests
from stub_server import StubChatServer, content_reply

from dravlid.backends import BaselineBackend, LiveBackend, ReplayBackend
from dravlid.cache import ResponseCache, make_record
from dravlid.errors import FixtureMissError, ResponseFormatError, TransportError
from dravlid.fixtures import replay_fixture_path, smoke_corpus_path
from dravlid.prompting import ExperimentConfig, render_prompt
from dravlid.taxonomy import TaskLanguage
from dravlid.transport import ChatRequest, ChatTransport, RetryPolicy, TokenBucket

KN = TaskLanguage.KANNADA
TM = TaskLanguage.TAMIL


def word_from_prompt(prompt: str) -> str:
    return prompt.rsplit("The word is ", 1)[1][:-1]


def echo_server() -> StubChatServer:
    """200s forever, replying "reply:<word>" for the word in the prompt."""
    return StubChatServer(
        default_content=lambda body: "reply:" + word_from_prompt(
            body["messages"][0]["content"]
        )
    )


def make_transport(server, **kwargs) -> ChatTransport:
    kwargs.setdefault("sleep", lambda s: None)
    return ChatTransport(base_url=server.base_url, api_key="test-key", **kwargs)


def request(word="mane") -> ChatRequest:
    return ChatRequest(
        model_id="gpt-3.5-turbo",
        temperature=0.7,
        max_output_tokens=16,
        user_message=render_prompt(word, KN),
    )


class TestWireFormat:
    def test_request_body_and_headers(self):
        with echo_server() as server:
            transport = make_transport(server)
            content = transport.complete(request("mane"))
            assert content == "reply:mane"
            body = server.requests[0]
            assert body["model"] == "gpt-3.5-turbo"
            assert body["temperature"] == 0.7
            assert body["max_tokens"] == 16
            assert body["messages"] == [
                {"role": "user", "content": render_prompt("mane", KN)}
            ]
            assert server.paths[0] == "/v1/chat/completions"

    def test_content_returned_verbatim(self):
        with StubChatServer() as server:
            server.enqueue(200, content_reply("  En.\n"))
            assert make_transport(server).complete(request()) == "  En.\n"

    def test_unicode_content_survives(self):
        with StubChatServer() as server:
            server.enqueue(200, content_reply("ಕನ್ನಡ"))
            assert make_transport(server).complete(request()) == "ಕನ್ನಡ"


class TestRetries:
    def test_429_429_200_succeeds_on_attempt_three(self):
        delays = []
        with StubChatServer() as server:
            server.enqueue(429, {"error": "slow down"})
            server.enqueue(429, {"error": "slow down"})
            server.enqueue(200, content_reply("kn"))
            transport = ChatTransport(
                base_url=server.base_url,
                api_key="k",
                sleep=delays.append,
            )
            assert transport.complete(request()) == "kn"
            assert transport.requests_sent == 3
        # Default policy: base 1.0s doubling per attempt.
        assert delays == [1.0, 2.0]

    def test_500_is_retryable(self):
        with StubChatServer() as server:
            server.enqueue(503, {"error": "down"})
            server.enqueue(200, content_reply("en"))
            assert make_transport(server).complete(request()) == "en"

    def test_401_fails_fast_without_retry(self):
        with StubChatServer() as server:
            server.enqueue(401, {"error": "bad key"})
            transport = make_transport(server)
            with pytest.raises(TransportError) as excinfo:
                transport.complete(request())
            assert excinfo.value.status == 401
            assert transport.requests_sent == 1

    def test_exhausted_retries_reports_last_status(self):
        with StubChatServer() as server:
            for _ in range(3):
                server.enqueue(429, {"error": "nope"})
            transport = make_transport(
                server, retry=RetryPolicy(max_attempts=3, base_delay=0.0)
            )
            with pytest.raises(TransportError) as excinfo:
                transport.complete(request())
            assert excinfo.value.status == 429
            assert "3 attempts" in str(excinfo.value)
            assert transport.requests_sent == 3

    def test_default_policy_values(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 5
        assert policy.base_delay == 1.0
        assert policy.is_retryable(429)
        assert policy.is_retryable(500) and policy.is_retryable(599)
        assert not policy.is_retryable(401)
        assert [policy.delay_after(i) for i in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 8.0]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestRequestCount:
    def test_concurrent_completes_are_all_counted(self):
        class OkSession:
            def post(self, url, json, headers, timeout):
                resp = requests.Response()
                resp.status_code = 200
                resp._content = b'{"choices": [{"message": {"content": "en"}}]}'
                return resp

        transport = ChatTransport(
            base_url="http://127.0.0.1:9", api_key="k", session=OkSession()
        )
        replies = []

        def worker():
            for _ in range(25):
                replies.append(transport.complete(request()))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        # Switching threads often makes a lost update to the count likelier.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert replies == ["en"] * 100
        assert transport.requests_sent == 100


class TestResponseFormat:
    def test_no_choices_is_format_error(self):
        with StubChatServer() as server:
            server.enqueue(200, {"choices": []})
            with pytest.raises(ResponseFormatError, match="choices"):
                make_transport(server).complete(request())

    def test_missing_content_is_format_error(self):
        with StubChatServer() as server:
            server.enqueue(200, {"choices": [{"message": {}}]})
            with pytest.raises(ResponseFormatError):
                make_transport(server).complete(request())

    def test_non_object_body_is_format_error(self):
        with StubChatServer() as server:
            server.enqueue(200, "[1, 2]")
            with pytest.raises(ResponseFormatError, match="not an object"):
                make_transport(server).complete(request())

    def test_non_json_body_is_format_error(self):
        with StubChatServer() as server:
            server.enqueue(200, "this is not json")
            with pytest.raises(ResponseFormatError, match="JSON"):
                make_transport(server).complete(request())


class TestConfiguration:
    def test_env_fallback(self, monkeypatch):
        with StubChatServer() as server:
            server.enqueue(200, content_reply("en"))
            monkeypatch.setenv("LI_API_BASE", server.base_url)
            monkeypatch.setenv("LI_API_KEY", "env-key")
            assert ChatTransport().complete(request()) == "en"

    def test_missing_base_url_rejected(self):
        with pytest.raises(ValueError, match="LI_API_BASE"):
            ChatTransport(api_key="k")

    def test_missing_api_key_rejected(self):
        with pytest.raises(ValueError, match="LI_API_KEY"):
            ChatTransport(base_url="http://127.0.0.1:9")


class TestTokenBucket:
    def test_burst_up_to_capacity_without_waiting(self):
        waits = []
        bucket = TokenBucket(
            rate_per_minute=60.0, burst=3, clock=lambda: 0.0, sleep=waits.append
        )
        for _ in range(3):
            bucket.acquire()
        assert waits == []

    def test_blocks_when_empty(self):
        now = [0.0]
        waits = []

        def fake_sleep(seconds):
            waits.append(seconds)
            now[0] += seconds

        bucket = TokenBucket(
            rate_per_minute=60.0, burst=1, clock=lambda: now[0], sleep=fake_sleep
        )
        bucket.acquire()
        bucket.acquire()  # one token per second at 60/min
        assert waits == [pytest.approx(1.0)]

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_minute=0)


class TestLiveBackend:
    def test_classify_word_caches(self, tmp_path):
        with echo_server() as server:
            cache = ResponseCache(tmp_path / "cache.jsonl")
            backend = LiveBackend(cache, make_transport(server))
            config = ExperimentConfig(task=KN)
            first = backend.classify_words(["mane"], config)[0]
            assert first.raw_response == "reply:mane"
            assert first.from_cache is False
            second = backend.classify_words(["mane"], config)[0]
            assert second.from_cache is True
            assert server.request_count == 1

    def test_rerun_uses_disk_cache_only(self, tmp_path):
        words = [f"word{i}" for i in range(50)]
        path = tmp_path / "cache.jsonl"
        config = ExperimentConfig(task=KN)
        with echo_server() as server:
            first_backend = LiveBackend(ResponseCache(path), make_transport(server))
            first = first_backend.classify_words(words, config)
            assert server.request_count == 50

            second_backend = LiveBackend(ResponseCache(path), make_transport(server))
            second = second_backend.classify_words(words, config)
            assert server.request_count == 50  # unchanged
        assert [p.raw_response for p in second] == [p.raw_response for p in first]
        assert all(p.from_cache for p in second)

    def test_duplicate_words_fetch_once(self, tmp_path):
        with echo_server() as server:
            backend = LiveBackend(
                ResponseCache(tmp_path / "c.jsonl"), make_transport(server)
            )
            results = backend.classify_words(
                ["same", "other", "same", "same"], ExperimentConfig(task=KN)
            )
            assert server.request_count == 2
            assert [r.raw_response for r in results] == [
                "reply:same",
                "reply:other",
                "reply:same",
                "reply:same",
            ]
            assert [r.from_cache for r in results] == [False, False, True, True]

    def test_results_in_input_order_under_concurrency(self, tmp_path):
        words = [f"w{i}" for i in range(24)]
        with echo_server() as server:
            backend = LiveBackend(
                ResponseCache(tmp_path / "c.jsonl"),
                make_transport(server),
                max_workers=6,
            )
            results = backend.classify_words(words, ExperimentConfig(task=KN))
        assert [r.word for r in results] == words
        assert [r.raw_response for r in results] == [f"reply:{w}" for w in words]

    def test_temperature_isolates_cache_entries(self, tmp_path):
        with echo_server() as server:
            cache = ResponseCache(tmp_path / "c.jsonl")
            backend = LiveBackend(cache, make_transport(server))
            backend.classify_words(["mane"], ExperimentConfig(task=KN, temperature=0.7))[0]
            backend.classify_words(["mane"], ExperimentConfig(task=KN, temperature=0.9))[0]
            assert server.request_count == 2
            assert len(cache) == 2

    def test_invalid_max_workers(self, tmp_path):
        with pytest.raises(ValueError):
            LiveBackend(ResponseCache(None), object(), max_workers=0)


class TestReplayBackend:
    def test_answers_from_fixture(self):
        backend = ReplayBackend.from_jsonl(replay_fixture_path(KN))
        config = ExperimentConfig(task=KN, temperature=0.7)
        result = backend.classify_words(["hello"], config)[0]
        assert result.raw_response == "en"
        assert result.from_cache is True

    def test_covers_smoke_corpus_at_all_sweep_temperatures(self):
        from dravlid.corpus import parse_corpus_file

        for task in (KN, TM):
            backend = ReplayBackend.from_jsonl(replay_fixture_path(task))
            ds = parse_corpus_file(smoke_corpus_path(task), task)
            for temperature in (0.7, 0.8, 0.9):
                config = ExperimentConfig(task=task, temperature=temperature)
                results = backend.classify_words(ds.surfaces(), config)
                assert len(results) == len(ds)

    def test_miss_names_word_and_config(self):
        backend = ReplayBackend.from_jsonl(replay_fixture_path(KN))
        config = ExperimentConfig(task=KN, temperature=0.3)
        with pytest.raises(FixtureMissError) as excinfo:
            backend.classify_words(["hello"], config)[0]
        message = str(excinfo.value)
        assert "hello" in message
        assert "0.3" in message

    def test_live_backend_over_fixture_matches_replay(self):
        from dravlid.corpus import parse_corpus_file

        for task in (KN, TM):
            words = parse_corpus_file(smoke_corpus_path(task), task).surfaces()
            config = ExperimentConfig(task=task, temperature=0.7)
            replay = ReplayBackend.from_jsonl(replay_fixture_path(task))
            # object() has no complete(): any word reaching _miss fails the test.
            live = LiveBackend(
                ResponseCache(replay_fixture_path(task)), transport=object()
            )
            expected = replay.classify_words(words, config)
            assert live.classify_words(words, config) == expected

    def test_duplicate_fixture_keys_rejected(self):
        rec = make_record("m", 0.7, "The word is x.", "en")
        with pytest.raises(ValueError, match="duplicate"):
            ReplayBackend([rec, rec])


class TestBaselineBackend:
    def test_raw_response_is_wire_code(self):
        backend = BaselineBackend()
        config = ExperimentConfig(task=TM)
        result = backend.classify_words(["vanakkam"], config)[0]
        assert result.raw_response == "tm"
        assert result.from_cache is False

    def test_deterministic_batch(self):
        backend = BaselineBackend()
        config = ExperimentConfig(task=KN)
        words = ["hello", "mane", "%", "John", "bookalli"]
        first = backend.classify_words(words, config)
        second = backend.classify_words(words, config)
        assert first == second
        assert [r.raw_response for r in first] == ["en", "kn", "sym", "name", "mixed"]

    def test_kind_labels(self):
        assert LiveBackend(ResponseCache(None), object()).kind == "live"
        assert ReplayBackend([]).kind == "replay"
        assert BaselineBackend().kind == "baseline"
