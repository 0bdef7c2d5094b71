"""The record types that are not dataclasses keep what their dataclasses had.

``Quad`` is a ``__slots__`` class, ``cli.Settings`` a ``SimpleNamespace``
and six more are ``NamedTuple`` forms.  Each keeps its fields, its checks,
its ``==`` and ``repr``, its immutability (``Settings`` stays mutable), and
survives ``pickle``, ``copy`` and ``deepcopy``; a round trip builds the
record again through its checks.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
import pkgutil
from typing import get_type_hints

import pytest

import blockspot
from blockspot.cli import Settings
from blockspot.fuzzy import MatchResult
from blockspot.llm import LlmConfig, LlmReply
from blockspot.metrics import MetricVector
from blockspot.model import Quad
from blockspot.pipeline import OrderingOutcome, Strategy
from blockspot.prompting import ChatPrompt

QUAD = Quad.from_points([[0, 0], [10, 0], [10, 5], [0, 5]])

RECORDS = [
    QUAD,
    MatchResult("CYCLING", 19, 26, 1),
    MetricVector(0.125, 0.75, 0.5),
    ChatPrompt("sys", "user text"),
    LlmConfig(model="m", api_key="k", retry_backoff=0.0),
    LlmReply("reply", truncated=True),
    OrderingOutcome(3, Strategy.LLM, "a b", 3, llm_len=3, wait_s=0.25),
    Settings(backend="scripted:r.json", min_iou=0.5, llm=LlmConfig(api_key="k")),
]


def clones(record):
    return pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_pickle_copy_and_deepcopy(record):
    for again in clones(record):
        assert type(again) is type(record) and again == record and repr(again) == repr(record)
        if isinstance(record, tuple):
            assert tuple(again) == tuple(record)  # wait_s too, which == ignores
        if isinstance(record, Quad):
            assert again.bounds == record.bounds  # which == ignores
        if not isinstance(record, Settings):
            assert hash(again) == hash(record)


# a record made with a check skipped, and the error its checks raise
UNCHECKED = [
    (lambda: MetricVector(0.0, 0.0, 0.0)._replace(nld=1.5), "nld out of"),
    (lambda: ChatPrompt("s", "u")._replace(user=""), "non-empty"),
    (lambda: LlmConfig(api_key="k")._replace(temperature=-1.0), "temperature"),
    (lambda: OrderingOutcome(0, Strategy.LLM, "x", 1, 1)._replace(llm_len=None), "reply length"),
]


@pytest.mark.parametrize(
    ("make", "message"), UNCHECKED, ids=["MetricVector", "ChatPrompt", "LlmConfig", "OrderingOutcome"]
)
def test_round_trips_check_again(make, message):
    bad = make()
    for clone in (lambda: pickle.loads(pickle.dumps(bad)), lambda: copy.copy(bad), lambda: copy.deepcopy(bad)):
        with pytest.raises(ValueError, match=message):
            clone()


def test_quad_round_trips_check_again():
    quad = Quad.from_points([[0, 0], [10, 0], [10, 5], [0, 5]])
    object.__setattr__(quad, "vertices", quad.vertices[:3])
    for clone in (lambda: pickle.loads(pickle.dumps(quad)), lambda: copy.copy(quad), lambda: copy.deepcopy(quad)):
        with pytest.raises(ValueError, match="4 vertices"):
            clone()


@pytest.mark.parametrize("record", RECORDS[:-1], ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_deleted(record):
    before = repr(record)
    name = type(record)._fields[0] if isinstance(record, tuple) else "vertices"
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.label = "x"
    assert repr(record) == before


def test_settings_stay_mutable():
    settings = Settings()
    assert settings == Settings("geometric-only", 0.0, LlmConfig())
    settings.backend, settings.min_iou = "http", 0.5
    assert (settings.backend, settings.min_iou) == ("http", 0.5)
    assert repr(settings) == f"Settings(backend='http', min_iou=0.5, llm={LlmConfig()!r})"


def test_type_hints_name_every_setting():
    # cli reads a config file's value types from these hints
    assert {k: v for k, v in get_type_hints(Settings).items() if k != "llm"} == {"backend": str, "min_iou": float}
    hints = get_type_hints(LlmConfig)
    assert list(hints) == list(LlmConfig._fields)
    assert (hints["temperature"], hints["max_retries"], hints["endpoint_url"]) == (float, int, str)


class TestApiKey:
    def test_repr_never_shows_the_key(self, monkeypatch):
        monkeypatch.setenv("BLOCKSPOT_API_KEY", "sk-from-env")
        for config in (LlmConfig(api_key="sk-secret"), LlmConfig()):
            assert config.api_key.startswith("sk-")
            assert "sk-" not in repr(config) and "sk-" not in str(config) and "api_key" not in repr(config)
        assert repr(LlmConfig(model="m", api_key="sk-secret")) == (
            "LlmConfig(model='m', temperature=0.0, max_context_tokens=4096, max_output_tokens=512, "
            "request_timeout=30.0, max_retries=3, "
            "endpoint_url='https://api.openai.com/v1/chat/completions', retry_backoff=0.5)"
        )

    def test_read_from_the_environment_when_built(self, monkeypatch):
        monkeypatch.setenv("BLOCKSPOT_API_KEY", "first")
        config = LlmConfig()
        monkeypatch.setenv("BLOCKSPOT_API_KEY", "second")
        assert (config.api_key, LlmConfig().api_key) == ("first", "second")
        assert copy.copy(config).api_key == "first"  # a copy does not read it again
        assert LlmConfig(api_key="").api_key == ""  # an empty key is a key given


class TestWaitIgnored:
    def outcome(self, **overrides):
        fields = dict(block_ref=1, strategy=Strategy.LLM, block_text="a b", expected_len=3, llm_len=3, wait_s=0.5)
        return OrderingOutcome(**{**fields, **overrides})

    def test_outcomes_that_differ_only_in_wait_s_are_equal(self):
        a, b = self.outcome(), self.outcome(wait_s=None)
        assert a == b and not a != b and hash(a) == hash(b)
        assert {a: 1}[b] == 1 and [a] == [b]

    @pytest.mark.parametrize(
        "change", [{"block_ref": 2}, {"block_text": "b a"}, {"expected_len": 4}, {"llm_len": 4}]
    )
    def test_any_other_field_counts(self, change):
        a, b = self.outcome(), self.outcome(**change)
        assert a != b and not a == b


def test_the_four_dataclasses():
    # Each @dataclass costs about 0.8 ms of start-up, and start-up is most
    # of what `blockspot order` on one sign takes.  These four stay
    # dataclasses: the benchmark and the tests call dataclasses.replace on them.
    found = set()
    for info in pkgutil.iter_modules(blockspot.__path__):
        module = importlib.import_module(f"blockspot.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__.startswith("blockspot"):
                found.add(f"{obj.__module__}.{obj.__name__}")
    assert found == {
        "blockspot.model.Block",
        "blockspot.model.Document",
        "blockspot.evaluation.EvalPair",
        "blockspot.evaluation.EvalReport",
    }
