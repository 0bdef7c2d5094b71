"""Backend, retry, and token-budget tests.

HTTP behaviour is exercised against the loopback stub server in
``conftest`` so the retry and error-classification paths run over a real
socket without leaving the machine.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from conftest import StubHandler, ok_reply, sign_doc

from blockspot.llm import (
    MAX_IN_FLIGHT,
    HttpBackend,
    LlmConfig,
    LlmError,
    LlmRefusedError,
    LlmReply,
    LlmRequestError,
    LlmTransientError,
    ReplayBackend,
    ScriptedBackend,
    TranscriptRecorder,
    complete,
    estimate_tokens,
    fits_context,
    prompt_fingerprint,
)
from blockspot.pipeline import Strategy, run
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
        assert complete(backend, PROMPT, config(), key="block-1") == "canned answer"

    def test_missing_key_is_request_error(self):
        backend = ScriptedBackend({})
        with pytest.raises(LlmRequestError, match="no scripted reply"):
            complete(backend, PROMPT, config(), key="block-9")

    def test_deterministic_across_calls(self):
        backend = ScriptedBackend({"k": "same"})
        first = complete(backend, PROMPT, config(), key="k")
        second = complete(backend, PROMPT, config(), key="k")
        assert first == second == "same"

    def test_from_json(self, tmp_path):
        path = tmp_path / "replies.json"
        path.write_text(json.dumps({"block-0": "hello"}), encoding="utf-8")
        backend = ScriptedBackend.from_json(path)
        assert complete(backend, PROMPT, config(), key="block-0") == "hello"

    def test_from_json_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(LlmRequestError):
            ScriptedBackend.from_json(path)


class TestRetries:
    def test_two_failures_then_success(self):
        backend = FlakyBackend(failures=2)
        assert complete(backend, PROMPT, config(max_retries=3), key="k") == "recovered"
        assert backend.calls == 3

    def test_exhausted_retries_raise_transient(self):
        backend = FlakyBackend(failures=10)
        with pytest.raises(LlmTransientError, match="^gave up after 3 attempts: synthetic outage$"):
            complete(backend, PROMPT, config(max_retries=2), key="k")
        assert backend.calls == 3

    def test_set_stop_ends_the_backoff_with_the_last_error_text(self):
        backend = FlakyBackend(failures=10)
        stop = threading.Event()
        stop.set()
        with pytest.raises(LlmTransientError, match="^stopped after 1 attempts: synthetic outage$"):
            complete(backend, PROMPT, config(max_retries=2), key="k", stop=stop)
        assert backend.calls == 1

    def test_backoff_doubling_never_overflows(self):
        # 2 ** 1024 is past the largest float; a zero backoff must still
        # reach every retry and give up cleanly
        backend = FlakyBackend(failures=2000)
        with pytest.raises(LlmTransientError, match="gave up after 1101 attempts"):
            complete(backend, PROMPT, config(max_retries=1100), key="k")
        assert backend.calls == 1101

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
        assert complete(backend, PROMPT, config(), key="k") == "answer"

    def test_lone_surrogate_reply_is_request_error(self):
        backend = ScriptedBackend({"k": "TO \ud83d LOVE"})
        with pytest.raises(LlmRequestError, match="lone surrogate"):
            complete(backend, PROMPT, config(), key="k")
        paired = ScriptedBackend({"k": "TO \U0001f600 LOVE"})
        assert complete(paired, PROMPT, config(), key="k") == "TO \U0001f600 LOVE"

    def test_empty_reply_raises(self):
        class Empty:
            def send(self, *a):
                return LlmReply(text=" ", truncated=True)

        with pytest.raises(LlmRequestError, match="truncated"):
            complete(Empty(), PROMPT, config(), key="k")

    @pytest.mark.parametrize("text", ["", " \n\t"], ids=["empty", "whitespace"])
    def test_blank_reply_is_request_error(self, text):
        backend = ScriptedBackend({"k": text})
        assert backend.send(PROMPT, config(), "k") == LlmReply(text)  # the backend passes it on
        with pytest.raises(LlmRequestError, match="empty reply"):
            complete(backend, PROMPT, config(), key="k")


class TestReplay:
    def test_record_then_replay(self, tmp_path):
        transcript = tmp_path / "session.jsonl"
        recorder = TranscriptRecorder(ScriptedBackend({"block-0": "logged"}), transcript)
        assert complete(recorder, PROMPT, config(), key="block-0") == "logged"
        replay = ReplayBackend(transcript)
        assert complete(replay, PROMPT, config(), key="block-0") == "logged"

    def test_replay_misses_are_request_errors(self, tmp_path):
        transcript = tmp_path / "session.jsonl"
        transcript.write_text(
            json.dumps({"key": "block-0", "prompt_hash": prompt_fingerprint(PROMPT), "reply": "x"})
            + "\n"
        )
        replay = ReplayBackend(transcript)
        with pytest.raises(LlmRequestError, match="no entry"):
            complete(replay, ChatPrompt(system="sys", user="different"), config(), key="block-0")

    def test_non_utf8_transcript_is_a_request_error(self, tmp_path):
        transcript = tmp_path / "bad.bin"
        transcript.write_bytes(b"\xff\xfe{}")
        with pytest.raises(LlmRequestError, match=re.escape(f"{transcript}: cannot read transcript")):
            ReplayBackend(transcript)

    def test_corrupt_transcript_rejected(self, tmp_path):
        transcript = tmp_path / "bad.jsonl"
        transcript.write_text('{"key": "a"}\n')
        with pytest.raises(LlmRequestError, match="bad transcript line"):
            ReplayBackend(transcript)

    @pytest.mark.parametrize("reason", ["complete", "truncated"])
    def test_finish_reason_recorded_and_replayed(self, tmp_path, reason):
        class Answering:
            def send(self, *a):
                return LlmReply(text="partial", truncated=reason == "truncated")

        transcript = tmp_path / "session.jsonl"
        live = TranscriptRecorder(Answering(), transcript).send(PROMPT, config(), "block-0")
        assert json.loads(transcript.read_text())["finish_reason"] == reason
        assert ReplayBackend(transcript).send(PROMPT, config(), "block-0") == live

    def test_line_without_finish_reason_replays_complete(self, tmp_path):
        transcript = tmp_path / "old.jsonl"
        entry = {"key": "block-0", "prompt_hash": prompt_fingerprint(PROMPT), "reply": "x"}
        transcript.write_text(json.dumps(entry) + "\n")
        assert ReplayBackend(transcript).send(PROMPT, config(), "block-0") == LlmReply("x")

    def test_error_line_replays_blank(self, tmp_path):
        # an earlier recorder marked a blank reply "error"; its text is dropped
        transcript = tmp_path / "old.jsonl"
        entry = {"key": "block-0", "prompt_hash": prompt_fingerprint(PROMPT), "reply": "partial"}
        transcript.write_text(json.dumps({**entry, "finish_reason": "error"}) + "\n")
        replay = ReplayBackend(transcript)
        assert replay.send(PROMPT, config(), "block-0") == LlmReply("")
        with pytest.raises(LlmRequestError, match="empty reply"):
            complete(replay, PROMPT, config(), key="block-0")

    def test_blank_reply_replays_like_live(self, tmp_path):
        transcript = tmp_path / "session.jsonl"
        live = run(sign_doc(), TranscriptRecorder(ScriptedBackend({"block-0": ""}), transcript), config())
        line = json.loads(transcript.read_text())
        assert (line["reply"], line["finish_reason"]) == ("", "complete")
        replayed = run(sign_doc(), ReplayBackend(transcript), config())
        assert [o.strategy for o in live[1]] == [Strategy.GEOMETRIC_FALLBACK_ERROR]
        assert replayed == live

    @pytest.mark.parametrize(
        "extra",
        [{"finish_reason": "stop"}, {"reply": 7}],
        ids=["unknown-reason", "non-string"],
    )
    def test_invalid_entry_rejected(self, tmp_path, extra):
        transcript = tmp_path / "bad.jsonl"
        entry = {"key": "block-0", "prompt_hash": prompt_fingerprint(PROMPT), "reply": "x"}
        transcript.write_text(json.dumps({**entry, **extra}) + "\n")
        with pytest.raises(LlmRequestError, match=":1: bad transcript line"):
            ReplayBackend(transcript)

    def test_lone_surrogate_reply_recorded_and_replayed(self, tmp_path):
        transcript = tmp_path / "session.jsonl"
        live = TranscriptRecorder(ScriptedBackend({"k": "a\udc00b"}), transcript).send(PROMPT, config(), "k")
        assert "\\udc00" in transcript.read_text("utf-8")
        assert ReplayBackend(transcript).send(PROMPT, config(), "k") == live

    def test_line_separators_inside_replies_survive(self, tmp_path):
        transcript = tmp_path / "session.jsonl"
        text = "one\u2028two\x85three\u2029four"
        TranscriptRecorder(ScriptedBackend({"k": text}), transcript).send(PROMPT, config(), "k")
        assert ReplayBackend(transcript).send(PROMPT, config(), "k").text == text


class TestHttpBackend:
    def test_missing_api_key_fails_without_network(self):
        backend = HttpBackend()
        cfg = LlmConfig(api_key="", retry_backoff=0.0)
        with pytest.raises(LlmRefusedError, match="BLOCKSPOT_API_KEY"):
            complete(backend, PROMPT, cfg, key="k")

    def test_success_and_payload_shape(self, stub_server):
        StubHandler.script = [(200, ok_reply("the answer"))]
        cfg = config(endpoint_url=stub_server, model="test-model", temperature=0.0)
        assert complete(HttpBackend(), PROMPT, cfg, key="k") == "the answer"
        seen = StubHandler.requests_seen[0]
        assert seen["auth"] == "Bearer test-key"
        assert seen["body"]["model"] == "test-model"
        assert seen["body"]["temperature"] == 0.0
        assert seen["body"]["messages"][0]["role"] == "system"
        assert seen["body"]["messages"][1]["content"] == PROMPT.user

    def test_retry_on_429_then_success(self, stub_server):
        StubHandler.script = [(429, {"error": "slow down"}), (200, ok_reply("after retry"))]
        cfg = config(endpoint_url=stub_server)
        assert complete(HttpBackend(), PROMPT, cfg, key="k") == "after retry"
        assert len(StubHandler.requests_seen) == 2

    def test_auth_rejection_not_retried(self, stub_server):
        StubHandler.script = [(401, {"error": "nope"})]
        cfg = config(endpoint_url=stub_server)
        with pytest.raises(LlmRefusedError, match="HTTP 401"):
            complete(HttpBackend(), PROMPT, cfg, key="k")
        assert len(StubHandler.requests_seen) == 1

    def test_invalid_request_not_retried(self, stub_server):
        StubHandler.script = [(404, {"error": "no such model"})]
        cfg = config(endpoint_url=stub_server)
        with pytest.raises(LlmRefusedError, match="HTTP 404"):
            complete(HttpBackend(), PROMPT, cfg, key="k")
        assert len(StubHandler.requests_seen) == 1

    def test_truncated_reply_raises(self, stub_server):
        StubHandler.script = [(200, ok_reply("cut off mid", finish="length"))]
        cfg = config(endpoint_url=stub_server)
        with pytest.raises(LlmRequestError, match="truncated"):
            complete(HttpBackend(), PROMPT, cfg, key="k")

    @pytest.mark.parametrize("content", [None, " "], ids=["null", "blank"])
    def test_blank_content_is_an_empty_reply(self, stub_server, content):
        StubHandler.script = [(200, ok_reply(content))] * 2
        cfg = config(endpoint_url=stub_server)
        assert HttpBackend().send(PROMPT, cfg, "k") == LlmReply(content or "")
        with pytest.raises(LlmRequestError, match="empty reply"):
            complete(HttpBackend(), PROMPT, cfg, key="k")

    def test_server_errors_exhaust_into_transient(self, stub_server):
        StubHandler.script = [(500, {}), (502, {}), (503, {})]
        cfg = config(endpoint_url=stub_server, max_retries=2)
        with pytest.raises(LlmTransientError):
            complete(HttpBackend(), PROMPT, cfg, key="k")
        assert len(StubHandler.requests_seen) == 3

    def test_pool_keeps_every_connection_of_a_full_run(self, caplog):
        class Held(BaseHTTPRequestHandler):
            """Answers once MAX_IN_FLIGHT requests are open (or 10 s pass)."""

            open = 0
            cond = threading.Condition()

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                with self.cond:
                    type(self).open += 1
                    self.cond.notify_all()
                    self.cond.wait_for(lambda: self.open >= MAX_IN_FLIGHT, timeout=10)
                data = json.dumps(ok_reply("held")).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Held)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        backend = HttpBackend()
        cfg = config(endpoint_url=f"http://127.0.0.1:{server.server_port}/v1/chat/completions")
        replies = []
        senders = [
            threading.Thread(target=lambda: replies.append(backend.send(PROMPT, cfg, "k")))
            for _ in range(MAX_IN_FLIGHT)
        ]
        try:
            with caplog.at_level(logging.WARNING, logger="urllib3"):
                for sender in senders:
                    sender.start()
                for sender in senders:
                    sender.join()
        finally:
            server.shutdown()
            server.server_close()
        assert replies == [LlmReply("held")] * MAX_IN_FLIGHT
        assert Held.open == MAX_IN_FLIGHT
        # the default pool of 10 discards the connections past its size
        assert [r.getMessage() for r in caplog.records if r.name.startswith("urllib3")] == []


class TestReplyInvariant:
    def test_llm_error_hierarchy(self):
        for cls in (LlmTransientError, LlmRefusedError, LlmRequestError):
            assert issubclass(cls, LlmError)
        assert not issubclass(LlmRequestError, LlmRefusedError)
