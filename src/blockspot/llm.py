"""LLM transport: chat-completion backends, retries, and token budgeting.

Three interchangeable backends sit behind one protocol: an OpenAI-style
HTTP client, a scripted mock keyed by block identifier (for offline tests),
and a transcript replay that re-serves recorded replies.  The module-level
:func:`complete` adds retry-with-backoff around transient failures and is
the one judge of a reply; :func:`fits_context` implements the context-length
check that decides whether a block can be sent to the LLM at all.  A caller
acts on three outcomes of a send: :class:`LlmTransientError` is retried,
:class:`LlmRefusedError` aborts the run, and any other :class:`LlmError`
leaves the block to the geometric order.

Token counts are estimated as ceil(characters / 4).  That deliberately
overestimates for most tokenizers, which can only push borderline blocks
toward the geometric fallback, never past the provider's real limit.
"""

from __future__ import annotations

import json
import math
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple, Protocol

from .model import LONE_SURROGATE, read_json
from .prompting import ChatPrompt

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "BLOCKSPOT_API_KEY"
DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"
# Requests one pipeline run keeps in flight at most: pipeline.run's caller
# and up to MAX_IN_FLIGHT - 1 helper threads of that run.  HttpBackend's
# connection pool is sized from it too.
MAX_IN_FLIGHT = 16
# The stop of a caller that has none: never set, so a backoff waits in full.
_NEVER_STOP = threading.Event()


class LlmError(Exception):
    """Base class for backend failures."""


class LlmTransientError(LlmError):
    """Timeouts, connection drops, 429s, 5xx: worth retrying."""


class LlmRefusedError(LlmError):
    """The request is refused: missing or rejected credentials, an unknown
    model or endpoint.

    Every other block would be refused too, so this is never retried and
    never degraded to a per-block fallback.
    """


class LlmRequestError(LlmError):
    """No usable reply (truncated, blank, malformed, none on file), or an unloadable backend file."""


class _LlmSettings(NamedTuple):
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_context_tokens: int = 4096
    max_output_tokens: int = 512
    request_timeout: float = 30.0
    max_retries: int = 3
    endpoint_url: str = DEFAULT_ENDPOINT
    api_key: str | None = None
    retry_backoff: float = 0.5


class LlmConfig(_LlmSettings):
    """Connection and sampling settings for one pipeline run.

    An immutable 9-tuple of the fields above.  An ``api_key`` left out, or
    ``None``, is read from ``BLOCKSPOT_API_KEY`` when the config is built,
    and ``repr`` never shows the key.  The constructor (and so ``copy`` and
    ``pickle``) checks the ranges; the inherited ``_replace`` and ``_make``
    skip those checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "LlmConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.api_key is None:
            self = self._replace(api_key=os.environ.get(API_KEY_ENV, ""))
        if not 0 <= self.temperature < math.inf:  # also false for NaN, which json reads
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0 < self.max_output_tokens < self.max_context_tokens:
            raise ValueError("need max_context_tokens > max_output_tokens > 0")
        finite = 0 < self.request_timeout < math.inf and 0 <= self.retry_backoff < math.inf
        if self.max_retries < 0 or not finite:
            raise ValueError("invalid retry/timeout settings (each must be finite)")
        return self

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self) if k != "api_key")
        return f"LlmConfig({shown})"


class LlmReply(NamedTuple):
    """What the provider sent back, unjudged: :func:`complete` decides if it is usable."""

    text: str
    truncated: bool = False


class LlmBackend(Protocol):
    """One attempt at a chat completion; retries live in :func:`complete`."""

    def send(self, prompt: ChatPrompt, config: LlmConfig, key: str) -> LlmReply: ...


def estimate_tokens(prompt: ChatPrompt) -> int:
    """Conservative token estimate: ceil(total characters / 4)."""
    return math.ceil(prompt.total_chars / 4)


def fits_context(prompt: ChatPrompt, config: LlmConfig) -> bool:
    """Whether the prompt plus the output budget fits the context window."""
    return estimate_tokens(prompt) + config.max_output_tokens <= config.max_context_tokens


def complete(
    backend: LlmBackend,
    prompt: ChatPrompt,
    config: LlmConfig,
    key: str = "",
    stop: threading.Event | None = None,
) -> str:
    """Run one completion with retries on transient failures; return its text.

    This is the only place a reply is rejected: a truncated reply, one that
    is blank after stripping, or one holding a lone surrogate raises, so
    callers can fall back.  The accepted text comes back stripped.  Once
    ``stop`` is set, a backoff ends at once and no retry is sent.  The
    give-up and stop messages end with the last transient error's text;
    the error itself is not kept, so a retried send leaves no reference
    cycle through its traceback.
    """
    attempts = config.max_retries + 1
    last = ""  # the text only: the error's traceback holds this frame, a cycle
    for attempt in range(attempts):
        if attempt:
            delay = math.ldexp(config.retry_backoff, attempt - 1)
            if (stop or _NEVER_STOP).wait(delay):
                raise LlmTransientError(f"stopped after {attempt} attempts: {last}")
        try:
            reply = backend.send(prompt, config, key)
        except LlmTransientError as e:
            last = str(e)
            continue
        text = reply.text.strip()
        if reply.truncated:
            raise LlmRequestError(f"reply truncated after {len(text)} chars (key={key!r})")
        if not text:
            raise LlmRequestError(f"backend returned an empty reply (key={key!r})")
        if LONE_SURROGATE.search(text):
            raise LlmRequestError(f"reply holds a lone surrogate (key={key!r})")
        return text
    raise LlmTransientError(f"gave up after {attempts} attempts: {last}")


class HttpBackend:
    """OpenAI-style chat-completions client over plain HTTP; thread-safe.

    A missing or unusable API key or ``endpoint_url`` is refused before a
    request goes out; every other transport fault is transient, and a reply
    whose content is not a string is malformed.
    A session made here keeps up to :data:`MAX_IN_FLIGHT` connections per
    host; a session passed in is used as it is.
    """

    RETRYABLE_STATUS = {429, 500, 502, 503, 504}
    AUTH_STATUS = {401, 403}

    def __init__(self, session: requests.Session | None = None):
        import requests  # imported here so that offline backends never load it

        if session is None:
            session = requests.Session()
            adapter = requests.adapters.HTTPAdapter(pool_maxsize=MAX_IN_FLIGHT)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self._session = session

    def send(self, prompt: ChatPrompt, config: LlmConfig, key: str) -> LlmReply:
        import requests
        from requests.exceptions import InvalidHeader, InvalidSchema, InvalidURL, MissingSchema

        if not config.api_key:
            raise LlmRefusedError(f"no API key; set {API_KEY_ENV} or config.api_key")
        payload = {
            "model": config.model,
            "messages": [
                {"role": "system", "content": prompt.system},
                {"role": "user", "content": prompt.user},
            ],
            "temperature": config.temperature,
            "max_tokens": config.max_output_tokens,
        }
        try:
            response = self._session.post(
                config.endpoint_url,
                json=payload,
                headers={"Authorization": f"Bearer {config.api_key}"},
                timeout=config.request_timeout,
            )
        except (InvalidHeader, UnicodeEncodeError):  # a newline or non-Latin-1 key, quoted in e
            raise LlmRefusedError("the API key cannot be sent as an HTTP header") from None
        except (InvalidURL, MissingSchema, InvalidSchema) as e:
            raise LlmRefusedError(f"bad endpoint_url: {e}") from e
        except requests.RequestException as e:  # timeouts, drops, bodies cut off
            raise LlmTransientError(str(e)) from e
        if response.status_code in self.AUTH_STATUS:
            raise LlmRefusedError(f"authentication rejected (HTTP {response.status_code})")
        if response.status_code in self.RETRYABLE_STATUS:
            raise LlmTransientError(f"HTTP {response.status_code}")
        if response.status_code != 200:
            raise LlmRefusedError(
                f"request refused (HTTP {response.status_code}): {response.text[:200]}"
            )
        try:
            body = response.json()
            choice = body["choices"][0]
            text = choice["message"]["content"] or ""
            finish = choice.get("finish_reason", "stop")
            if not isinstance(text, str):
                raise TypeError(f"content is a {type(text).__name__}, not a string")
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as e:
            raise LlmRequestError(f"malformed provider response: {e}") from e
        return LlmReply(text, truncated=finish == "length")


class ScriptedBackend:
    """Deterministic mock returning canned replies keyed by block identifier."""

    def __init__(self, replies: Mapping[str, str]):
        self._replies = dict(replies)

    @classmethod
    def from_json(cls, path: str | Path) -> "ScriptedBackend":
        data = read_json(path, LlmRequestError, "scripted replies")
        if not isinstance(data, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in data.items()
        ):
            raise LlmRequestError(f"{path}: scripted replies must be a str->str object")
        return cls(data)

    def send(self, prompt: ChatPrompt, config: LlmConfig, key: str) -> LlmReply:
        try:
            return LlmReply(self._replies[key])
        except KeyError:
            raise LlmRequestError(f"no scripted reply for key {key!r}") from None


def prompt_fingerprint(prompt: ChatPrompt) -> str:
    """The sha256 of the system and user text, which keys a transcript entry.

    Only replay and recording hash a prompt, so ``hashlib`` is imported here
    and a run without a transcript never loads it.
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(prompt.system.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(prompt.user.encode("utf-8"))
    return digest.hexdigest()


class ReplayBackend:
    """Replays a recorded transcript.

    Each line is a JSON object ``{key, prompt_hash, reply, finish_reason}``
    with ``finish_reason`` ``complete`` (also when it is missing) or
    ``truncated``.  An earlier recorder marked a blank reply ``error``; such a
    line replays as a blank reply.  ``entries`` maps each
    ``(key, prompt_hash)`` to its reply.
    """

    def __init__(self, path: str | Path):
        self.entries: dict[tuple[str, str], LlmReply] = {}
        for ln, entry in read_json(path, LlmRequestError, "transcript", lines=True):
            try:
                text = entry["reply"]
                if not isinstance(text, str):
                    raise TypeError(f"reply must be a string, got {text!r}")
                reason = entry.get("finish_reason", "complete")
                if reason not in ("complete", "truncated", "error"):
                    raise ValueError(f"unknown finish_reason {reason!r}")
                reply = LlmReply("" if reason == "error" else text, truncated=reason == "truncated")
                self.entries[(entry["key"], entry["prompt_hash"])] = reply
            except (ValueError, KeyError, TypeError) as e:
                raise LlmRequestError(f"{path}:{ln}: bad transcript line: {e}") from e

    def send(self, prompt: ChatPrompt, config: LlmConfig, key: str) -> LlmReply:
        fingerprint = prompt_fingerprint(prompt)
        try:
            return self.entries[(key, fingerprint)]
        except KeyError:
            raise LlmRequestError(
                f"transcript has no entry for key {key!r} with this prompt"
            ) from None


class TranscriptRecorder:
    """Wraps a backend and appends every reply it returns to a transcript.

    Sends that raise (transient failures) are not recorded, so a replay
    serves the reply that the live run's retries ended with.
    """

    def __init__(self, inner: LlmBackend, path: str | Path):
        self._inner = inner
        self._path = Path(path)
        self._lock = threading.Lock()

    def send(self, prompt: ChatPrompt, config: LlmConfig, key: str) -> LlmReply:
        reply = self._inner.send(prompt, config, key)
        line = json.dumps(
            {
                "key": key,
                "prompt_hash": prompt_fingerprint(prompt),
                "reply": reply.text,
                "finish_reason": "truncated" if reply.truncated else "complete",
            },
            ensure_ascii=False,
        )
        # backslashreplace writes a lone surrogate as its JSON escape \udXXX
        with self._lock, self._path.open("a", encoding="utf-8", errors="backslashreplace") as sink:
            sink.write(line + "\n")
        return reply
