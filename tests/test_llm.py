"""Backend, retry, and token-budget tests.

HTTP behaviour is exercised against the loopback stub server in
``conftest`` so the retry and error-classification paths run over a real
socket without leaving the machine.
"""

from __future__ import annotations

import json

import pytest
from conftest import StubHandler, ok_reply

from blockspot.llm import (
    FinishReason,
    HttpBackend,
    LlmAuthError,
    LlmConfig,
    LlmError,
    LlmReply,
    LlmRequestError,
    LlmTransientError,
    LlmTruncatedError,
    ReplayBackend,
    ScriptedBackend,
    TranscriptRecorder,
    complete,
    estimate_tokens,
    fits_context,
    prompt_fingerprint,
)
from blockspot.prompting import ChatPrompt

PROMPT = ChatPrompt(system="sys", user="user text")


def config(**overrides):
    defaults = dict(api_key="test-key", retry_backoff=0.0, request_timeout=5.0)
    defaults.update(overrides)
    return LlmConfig(**defaults)


class FlakyBackend:
    """Fails with transient errors a fixed number of times, then succeeds."""

    def __init__(self, failures: int, text: str = "recovered"):
        self.failures = failures
        self.calls = 0
        self.text = text

    def send(self, prompt, cfg, key):
        self.calls += 1
        if self.calls <= self.failures:
            raise LlmTransientError("synthetic outage")
        return LlmReply(text=self.text)


class TestConfig:
    def test_env_api_key_pickup(self, monkeypatch):
        monkeypatch.setenv("BLOCKSPOT_API_KEY", "from-env")
        assert LlmConfig().api_key == "from-env"

    def test_budget_ordering_enforced(self):
        with pytest.raises(ValueError):
            LlmConfig(max_context_tokens=100, max_output_tokens=100)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            LlmConfig(temperature=-0.1)


class TestTokenBudget:
    def test_tiny_prompt_fits(self):
        assert fits_context(PROMPT, config()) is True

    def test_huge_prompt_rejected(self):
        huge = ChatPrompt(system="s", user="x" * 100_000)
        assert estimate_tokens(huge) > 25_000 - 2
        assert fits_context(huge, config()) is False

    def test_boundary_is_inclusive(self):
        cfg = config(max_context_tokens=100, max_output_tokens=75)
        prompt = ChatPrompt(system="a" * 4, user="b" * 96)  # exactly 25 tokens
        assert estimate_tokens(prompt) == 25
        assert fits_context(prompt, cfg) is True
        over = ChatPrompt(system="a" * 4, user="b" * 97)
        assert fits_context(over, cfg) is False

    def test_monotone_in_length(self):
        cfg = config(max_context_tokens=64, max_output_tokens=32)
        fitting = None
        for n in range(1, 400):
            ok = fits_context(ChatPrompt(system="s", user="u" * n), cfg)
            if fitting is False:
                assert ok is False  # never flips back to fitting
            fitting = ok


class TestScripted:
    def test_keyed_reply(self):
        backend = ScriptedBackend({"block-1": "canned answer"})
        reply = complete(backend, PROMPT, config(), key="block-1")
        assert reply.text == "canned answer"
        assert reply.finish_reason is FinishReason.COMPLETE

    def test_missing_key_is_request_error(self):
        backend = ScriptedBackend({})
        with pytest.raises(LlmRequestError, match="no scripted reply"):
            complete(backend, PROMPT, config(), key="block-9")

    def test_deterministic_across_calls(self):
        backend = ScriptedBackend({"k": "same"})
        first = complete(backend, PROMPT, config(), key="k")
        second = complete(backend, PROMPT, config(), key="k")
        assert first.text == second.text == "same"

    def test_from_json(self, tmp_path):
        path = tmp_path / "replies.json"
        path.write_text(json.dumps({"block-0": "hello"}), encoding="utf-8")
        backend = ScriptedBackend.from_json(path)
        assert complete(backend, PROMPT, config(), key="block-0").text == "hello"

    def test_from_json_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(LlmRequestError):
            ScriptedBackend.from_json(path)


class TestRetries:
    def test_two_failures_then_success(self):
        backend = FlakyBackend(failures=2)
        reply = complete(backend, PROMPT, config(max_retries=3), key="k")
        assert reply.text == "recovered"
        assert backend.calls == 3

    def test_exhausted_retries_raise_transient(self):
        backend = FlakyBackend(failures=10)
        with pytest.raises(LlmTransientError, match="gave up after 3 attempts"):
            complete(backend, PROMPT, config(max_retries=2), key="k")
        assert backend.calls == 3

    def test_request_errors_not_retried(self):
        class Broken:
            calls = 0

            def send(self, *a):
                self.calls += 1
                raise LlmRequestError("bad request")

        backend = Broken()
        with pytest.raises(LlmRequestError):
            complete(backend, PROMPT, config(max_retries=5), key="k")
        assert backend.calls == 1

    def test_reply_whitespace_stripped(self):
        backend = ScriptedBackend({"k": "  answer \n"})
        assert complete(backend, PROMPT, config(), key="k").text == "answer"

    def test_empty_reply_raises(self):
        class Empty:
            def send(self, *a):
                return LlmReply(text=" ", finish_reason=FinishReason.TRUNCATED)

        with pytest.raises(LlmTruncatedError):
            complete(Empty(), PROMPT, config(), key="k")


class TestReplay:
    def test_record_then_replay(self, tmp_path):
        transcript = tmp_path / "session.jsonl"
        recorder = TranscriptRecorder(ScriptedBackend({"block-0": "logged"}), transcript)
        live = complete(recorder, PROMPT, config(), key="block-0")
        assert live.text == "logged"

        replay = ReplayBackend(transcript)
        again = complete(replay, PROMPT, config(), key="block-0")
        assert again.text == "logged"

    def test_replay_misses_are_request_errors(self, tmp_path):
        transcript = tmp_path / "session.jsonl"
        transcript.write_text(
            json.dumps({"key": "block-0", "prompt_hash": prompt_fingerprint(PROMPT), "reply": "x"})
            + "\n"
        )
        replay = ReplayBackend(transcript)
        with pytest.raises(LlmRequestError, match="no entry"):
            complete(replay, ChatPrompt(system="sys", user="different"), config(), key="block-0")

    def test_corrupt_transcript_rejected(self, tmp_path):
        transcript = tmp_path / "bad.jsonl"
        transcript.write_text('{"key": "a"}\n')
        with pytest.raises(LlmRequestError, match="bad transcript line"):
            ReplayBackend(transcript)


class TestHttpBackend:
    def test_missing_api_key_fails_without_network(self):
        backend = HttpBackend()
        cfg = LlmConfig(api_key="", retry_backoff=0.0)
        with pytest.raises(LlmAuthError, match="BLOCKSPOT_API_KEY"):
            complete(backend, PROMPT, cfg, key="k")

    def test_success_and_payload_shape(self, stub_server):
        StubHandler.script = [(200, ok_reply("the answer"))]
        cfg = config(endpoint_url=stub_server, model_name="test-model", temperature=0.0)
        reply = complete(HttpBackend(), PROMPT, cfg, key="k")
        assert reply.text == "the answer"
        seen = StubHandler.requests_seen[0]
        assert seen["auth"] == "Bearer test-key"
        assert seen["body"]["model"] == "test-model"
        assert seen["body"]["temperature"] == 0.0
        assert seen["body"]["messages"][0]["role"] == "system"
        assert seen["body"]["messages"][1]["content"] == PROMPT.user

    def test_retry_on_429_then_success(self, stub_server):
        StubHandler.script = [(429, {"error": "slow down"}), (200, ok_reply("after retry"))]
        cfg = config(endpoint_url=stub_server)
        reply = complete(HttpBackend(), PROMPT, cfg, key="k")
        assert reply.text == "after retry"
        assert len(StubHandler.requests_seen) == 2

    def test_auth_rejection_not_retried(self, stub_server):
        StubHandler.script = [(401, {"error": "nope"})]
        cfg = config(endpoint_url=stub_server)
        with pytest.raises(LlmAuthError):
            complete(HttpBackend(), PROMPT, cfg, key="k")
        assert len(StubHandler.requests_seen) == 1

    def test_invalid_request_not_retried(self, stub_server):
        StubHandler.script = [(404, {"error": "no such model"})]
        cfg = config(endpoint_url=stub_server)
        with pytest.raises(LlmRequestError):
            complete(HttpBackend(), PROMPT, cfg, key="k")
        assert len(StubHandler.requests_seen) == 1

    def test_truncated_reply_raises(self, stub_server):
        StubHandler.script = [(200, ok_reply("cut off mid", finish="length"))]
        cfg = config(endpoint_url=stub_server)
        with pytest.raises(LlmTruncatedError):
            complete(HttpBackend(), PROMPT, cfg, key="k")

    def test_server_errors_exhaust_into_transient(self, stub_server):
        StubHandler.script = [(500, {}), (502, {}), (503, {})]
        cfg = config(endpoint_url=stub_server, max_retries=2)
        with pytest.raises(LlmTransientError):
            complete(HttpBackend(), PROMPT, cfg, key="k")
        assert len(StubHandler.requests_seen) == 3


class TestReplyInvariant:
    def test_complete_reply_must_have_text(self):
        with pytest.raises(ValueError):
            LlmReply(text="", finish_reason=FinishReason.COMPLETE)

    def test_error_reply_may_be_empty(self):
        assert LlmReply(text="", finish_reason=FinishReason.ERROR).text == ""

    def test_llm_error_hierarchy(self):
        for cls in (LlmTransientError, LlmAuthError, LlmRequestError, LlmTruncatedError):
            assert issubclass(cls, LlmError)
