"""Ordering and evaluating a document leave no reference cycle.

Each check runs a path once to warm it up, then again with the cyclic
garbage collector disabled and ``gc.DEBUG_SAVEALL`` set, and asserts that
``gc.collect()`` finds nothing: everything the path allocated was freed by
reference counting alone.  Garbage is counted rather than weakref deaths,
because a helper thread may still hold its finished work item for a moment
after ``run`` returns.
"""

from __future__ import annotations

import collections
import gc
import threading
import time

import pytest
from conftest import sign_doc, sign_gt, synthetic_gt

from blockspot.evaluation import evaluate, report_to_json
from blockspot.llm import LlmConfig, LlmReply, LlmTransientError, ScriptedBackend, complete
from blockspot.model import DocumentKind, parse_document, serialize_document
from blockspot.pipeline import EchoRecognizer, Strategy, build_block_prompt, recognize_document, run

FIGURE_TEXT = "20 REASONS TO LOVE CYCLING"


def config(**overrides):
    return LlmConfig(**{"api_key": "k", "retry_backoff": 0.0, **overrides})


class FailsFirst:
    """The first ``failures`` sends fail transiently; later ones answer."""

    def __init__(self, failures=1):
        self.failures = failures
        self.sends = 0

    def send(self, prompt, cfg, key):
        self.sends += 1
        if self.sends <= self.failures:
            raise LlmTransientError("provider unavailable")
        return LlmReply(FIGURE_TEXT)


class Sleeping:
    """Sleeps 5 ms per send, as a provider round trip; records the sending threads."""

    def __init__(self):
        self.threads = []

    def send(self, prompt, cfg, key):
        self.threads.append(threading.get_ident())
        time.sleep(0.005)
        return LlmReply("reply")


def strategies(backend, cfg=None, doc=None):
    _, outcomes = run(doc or sign_doc(), backend, cfg or config())
    return [o.strategy for o in outcomes]


def no_backend():
    assert strategies(None) == [Strategy.GEOMETRIC_ONLY]


def scripted():
    assert strategies(ScriptedBackend({"block-0": FIGURE_TEXT})) == [Strategy.LLM]


def fails_once_then_answers():
    assert strategies(FailsFirst()) == [Strategy.LLM]


def always_transient():
    assert strategies(FailsFirst(failures=10), config(max_retries=2)) == [Strategy.GEOMETRIC_FALLBACK_ERROR]


def length_guard_fallback():
    assert strategies(ScriptedBackend({"block-0": "X"})) == [Strategy.GEOMETRIC_FALLBACK_LENGTH]


def context_fallback():
    cfg = config(max_context_tokens=2, max_output_tokens=1)
    assert strategies(ScriptedBackend({}), cfg) == [Strategy.GEOMETRIC_FALLBACK_CONTEXT]


def helpers_start():
    doc = synthetic_gt(24)
    doc = doc.with_blocks(tuple(b for b in doc.blocks if len(b.line_ids) > 1)[:8])
    backend = Sleeping()
    strategies(backend, doc=doc)
    assert len(backend.threads) == 8
    assert len(set(backend.threads)) > 1
    # let the helpers drop their finished work items, so a cycle they held is garbage
    time.sleep(0.05)


def bare_complete_retry():
    prompt = build_block_prompt(sign_doc(), sign_doc().blocks[0])
    assert complete(FailsFirst(), prompt, config(), key="block-0") == FIGURE_TEXT


def parse_both_kinds():
    blob = serialize_document(sign_gt())
    parse_document(blob)
    assert parse_document(blob, DocumentKind.GROUND_TRUTH) == sign_gt()


def echo_recognition():
    doc = sign_doc()
    assert recognize_document(doc, EchoRecognizer(doc)) is doc


def evaluate_and_report():
    pred = parse_document(serialize_document(sign_gt()))
    assert '"pairs"' in report_to_json(evaluate(pred, sign_gt()))


def cyclic_garbage(path) -> collections.Counter:
    """The objects of each type that only the cyclic collector would free after ``path``."""
    path()  # first calls may fill caches and start threads that live on
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        path()
        gc.collect()
        return collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


ORDER_PATHS = [
    no_backend,
    scripted,
    fails_once_then_answers,
    always_transient,
    length_guard_fallback,
    context_fallback,
    helpers_start,
    bare_complete_retry,
]
EVAL_PATHS = [parse_both_kinds, echo_recognition, evaluate_and_report]


@pytest.mark.parametrize("path", ORDER_PATHS + EVAL_PATHS, ids=lambda path: path.__name__)
def test_path_leaves_no_cyclic_garbage(path):
    assert cyclic_garbage(path) == collections.Counter()

