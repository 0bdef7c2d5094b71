"""Per-block orchestration: geometric pre-order, LLM call, guarded fallback.

For every block the pipeline computes the geometric line order, builds the
code-interleaved prompt, and asks the LLM for the block text.  The LLM is
skipped for single-line blocks and for prompts that exceed the context
budget; transport errors and replies failing the length guard degrade to
the geometric order joined with spaces, while a request the provider
refuses fails the whole run.  Every block always ends up with a text and
an :class:`OrderingOutcome` explaining which strategy produced it.
:func:`run` orders the blocks on the calling thread.  With a backend whose
sends wait, a thread that takes a block which may send first hands the
queue to one more long-lived helper thread, so that up to
:data:`~blockspot.llm.MAX_IN_FLIGHT` of a run's provider waits overlap.  A
backend whose last run that sent anything shows, in its outcomes'
``wait_s``, that it answers at once (an offline replay or a scripted
backend) gets no hand-off: a helper would have no wait to overlap.

The recognizer side is an interface: :func:`plan_recognition` describes the
rotate/crop/split work per line as one tuple-backed
:class:`RecognizerRequest`, an external engine fills in part texts, and
:func:`recognize_document` joins them into line texts.  The plan is cheap
enough to run on every order path: a line that snaps to rotation 0 takes
its box's bounds as the crop, the very floats the rotation would give.
Scripted and echo recognizers are provided for tests and offline runs.
"""

from __future__ import annotations

import enum
import os
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, NamedTuple, Protocol, Sequence

from .geo_order import geometric_order
from .geometry import (
    AlignedRect,
    GeometryError,
    checked_crop,
    crop_rect,
    snap_rotation,
    split_for_recognizer,
)
from .llm import (
    MAX_IN_FLIGHT,
    LlmBackend,
    LlmConfig,
    LlmError,
    LlmRefusedError,
    complete,
    fits_context,
)
from .model import Block, Document, Line
from .prompting import ChatPrompt, build_prompt, length_guard

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor


# A run's blocks in flight at once: the caller and up to MAX_IN_FLIGHT - 1
# helpers, each submitted by a thread about to wait on a send.  Only
# provider waits overlap, because the GIL serializes the pure-Python work
# around them, so a run of a backend in _INSTANT_BACKENDS submits none: the
# caller orders its blocks alone.  The helpers are shared by every run.
# Their executor, and with it concurrent.futures, is made on the process's
# first hand-off, so a process that never hands off loads neither.  A
# forked child has none of its parent's threads, so it forgets the executor
# and makes its own.
_HELPERS: ThreadPoolExecutor | None = None
_HELPERS_LOCK = threading.Lock()

# The backends whose last run that sent anything had a median
# OrderingOutcome.wait_s of at most _WAIT_S: 2 ms lies above an in-memory
# reply and below any provider round trip.  A median, because host noise
# alone can hold one send off the CPU for several milliseconds.  Weak, so a
# backend the caller drops is forgotten.  Each run reads it once and writes
# it once; of two concurrent runs of one backend, the later writer wins.
_WAIT_S = 0.002
_INSTANT_BACKENDS: weakref.WeakSet = weakref.WeakSet()


def _helpers() -> ThreadPoolExecutor:
    global _HELPERS
    with _HELPERS_LOCK:
        if _HELPERS is None:
            from concurrent.futures import ThreadPoolExecutor

            _HELPERS = ThreadPoolExecutor(MAX_IN_FLIGHT - 1, thread_name_prefix="blockspot-helper")
        return _HELPERS


def _forget_helpers() -> None:
    global _HELPERS, _HELPERS_LOCK
    _HELPERS, _HELPERS_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


class PipelineError(RuntimeError):
    """One or more blocks violated an invariant; message lists all of them."""


class Strategy(enum.Enum):
    LLM = "llm"
    GEOMETRIC_FALLBACK_CONTEXT = "geometric_fallback_context"
    GEOMETRIC_FALLBACK_LENGTH = "geometric_fallback_length"
    GEOMETRIC_FALLBACK_ERROR = "geometric_fallback_error"
    SINGLE_LINE = "single_line"
    GEOMETRIC_ONLY = "geometric_only"  # LLM disabled by configuration


@dataclass(frozen=True)
class OrderingOutcome:
    """How one block's text was produced.

    ``wait_s`` is set on the blocks that sent a request: the wall time of
    the send, retries included, minus the CPU time its thread spent, and
    never below 0.0.  ``==`` ignores it.  :func:`run` reads it to decide
    whether the backend's next run hands its blocks to helper threads.
    """

    block_ref: int
    strategy: Strategy
    block_text: str
    expected_len: int
    llm_len: int | None = None
    wait_s: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.strategy is Strategy.LLM and self.llm_len is None:
            raise ValueError("llm outcomes must record the reply length")


class RecognizerRequest(NamedTuple):
    """Preprocessing plan for one line: rotate, crop, split.

    An immutable 4-tuple ``(line_id, rotation, crop, parts)``: it unpacks,
    hashes and compares equal as one.
    """

    line_id: int
    rotation: float
    crop: AlignedRect
    parts: tuple[AlignedRect, ...]


class Recognizer(Protocol):
    """Fills in the text for each part of a planned crop."""

    def recognize_parts(self, request: RecognizerRequest) -> Sequence[str]: ...


class ScriptedRecognizer:
    """Returns pre-set part texts per line id; parts default to empty."""

    def __init__(self, parts_by_line: Mapping[int, Sequence[str]]):
        self._parts = {k: list(v) for k, v in parts_by_line.items()}

    def recognize_parts(self, request: RecognizerRequest) -> Sequence[str]:
        return self._parts.get(request.line_id, [""] * len(request.parts))


class EchoRecognizer:
    """No-op recognition: replays the text already on a document's lines.

    Useful when the input was recognized upstream and only the ordering
    stages are being exercised.
    """

    def __init__(self, doc: Document):
        self._texts = {line.id: line.text for line in doc.lines}

    def recognize_parts(self, request: RecognizerRequest) -> Sequence[str]:
        text = self._texts.get(request.line_id, "")
        return [text] + [""] * (len(request.parts) - 1)


def plan_recognition(doc: Document) -> list[RecognizerRequest]:
    """One request per line, in document order."""
    requests = []
    for line in doc.lines:
        box = line.box
        try:
            rotation = snap_rotation(box.vertices)
            # An upright crop is the line's bounds; crop_rect differs from
            # them only in the sign of a zero, so zeros take crop_rect.
            if rotation == 0.0 and 0.0 not in box.bounds:
                crop = checked_crop(box.bounds)
            else:
                crop = crop_rect(box.vertices, rotation)
            parts = tuple(split_for_recognizer(crop))
        except GeometryError as e:
            raise GeometryError(f"line {line.id}: {e}") from e
        requests.append(RecognizerRequest(line.id, rotation, crop, parts))
    return requests


def recognize_document(doc: Document, recognizer: Recognizer) -> Document:
    """Run the recognition plan and return a document with line texts set.

    A line's parts are read left to right and joined with no separator.  A
    line whose text is unchanged is kept as it is, and a document with no
    changed line is returned itself.
    """
    lines = []
    for line, request in zip(doc.lines, plan_recognition(doc)):
        parts = recognizer.recognize_parts(request)
        if len(parts) != len(request.parts):
            raise ValueError(
                f"line {line.id}: recognizer returned {len(parts)} parts, "
                f"expected {len(request.parts)}"
            )
        text = "".join(parts)
        lines.append(line if line.text == text else Line(line.id, line.box, text, line.recognizer_confidence))
    new_lines = tuple(lines)
    return doc if new_lines == doc.lines else replace(doc, lines=new_lines)


def _geometric_entries(doc: Document, block: Block) -> tuple[list[str], list[AlignedRect]]:
    """Texts and bounds of the block's lines, in geometric order."""
    lines = [doc.line_by_id(lid) for lid in block.line_ids]
    order = geometric_order(lines)
    by_id = {line.id: line for line in lines}
    ordered = [by_id[lid] for lid in order]
    return [line.text for line in ordered], [line.box.bounds for line in ordered]


def block_key(block_index: int) -> str:
    """Identifier used to key scripted/replay backends."""
    return f"block-{block_index}"


def build_block_prompt(doc: Document, block: Block) -> ChatPrompt:
    """The exact prompt :func:`order_block` would send for this block."""
    return build_prompt(*_geometric_entries(doc, block))


def order_block(
    doc: Document,
    block: Block,
    backend: LlmBackend | None,
    config: LlmConfig,
    block_index: int = 0,
    stop: threading.Event | None = None,
) -> OrderingOutcome:
    """Produce the text for one block.

    Backend failures degrade the block to the geometric order, except
    :class:`LlmRefusedError` (missing or rejected credentials, unknown
    model or endpoint), which no other block could escape either and
    therefore propagates.  A set ``stop`` ends a retry backoff at once (see
    :func:`complete`).  A block that sent a request records how long the
    send waited in ``wait_s``.
    """
    if len(block.line_ids) == 1:
        line = doc.line_by_id(block.line_ids[0])
        return OrderingOutcome(
            block_ref=block_index,
            strategy=Strategy.SINGLE_LINE,
            block_text=line.text,
            expected_len=len(line.text),
        )

    texts, bounds = _geometric_entries(doc, block)
    block_text = " ".join(texts)
    expected = len(block_text)
    llm_len = wait_s = None
    if backend is None:
        strategy = Strategy.GEOMETRIC_ONLY
    elif not fits_context(prompt := build_prompt(texts, bounds), config):
        strategy = Strategy.GEOMETRIC_FALLBACK_CONTEXT
    else:
        wall = time.perf_counter()  # read first and last, so the CPU span lies inside the wall span
        cpu = time.thread_time()
        try:
            reply = complete(backend, prompt, config, key=block_key(block_index), stop=stop)
        except LlmRefusedError:
            raise
        except LlmError:
            reply = None
        cpu = time.thread_time() - cpu
        wait_s = max(0.0, time.perf_counter() - wall - cpu)
        if reply is None:
            strategy = Strategy.GEOMETRIC_FALLBACK_ERROR
        else:
            llm_len = len(reply)
            if length_guard(reply, expected):
                strategy, block_text = Strategy.LLM, reply
            else:
                strategy = Strategy.GEOMETRIC_FALLBACK_LENGTH
    return OrderingOutcome(
        block_ref=block_index,
        strategy=strategy,
        block_text=block_text,
        expected_len=expected,
        llm_len=llm_len,
        wait_s=wait_s,
    )


def run(
    doc: Document,
    backend: LlmBackend | None,
    config: LlmConfig,
) -> tuple[Document, list[OrderingOutcome]]:
    """Order every block; returns the texted document and per-block outcomes.

    Lines outside any block are appended as singleton blocks (in line
    order) so the output covers every detected line.  The calling thread
    takes blocks from a shared queue and orders them.  With a backend, a
    thread that takes a block of more than one line (only those can send)
    first submits one more copy of that loop to the shared helper threads,
    if blocks are still queued and no helper of this run is waiting to
    start; so up to :data:`~blockspot.llm.MAX_IN_FLIGHT` of the run's sends
    wait on the provider at once.  Once the queue is empty the caller
    cancels the helpers that never started and waits only for those that
    did, never for ones queued behind another run.

    A run of a backend whose last run that sent anything had a median
    ``wait_s`` of at most 2 ms submits no helper, because its sends have
    no wait to overlap; the caller orders every block alone.  Every other
    backend hands off from its first run: a new one, one whose sends
    waited, and one that cannot be hashed or weakly referenced.  A run that
    sends nothing leaves the decision as it was.

    Results are merged back in block order, so a deterministic backend
    gives a deterministic output.  An :class:`LlmRefusedError` from any
    block stops the run, so that no block starts and no send is retried
    after it, and is re-raised as is, with its traceback; other exceptions
    are invariant violations, gathered into one :class:`PipelineError`.
    Anything that escapes the caller's own blocks, such as
    ``KeyboardInterrupt``, stops the helpers the same way and is re-raised
    at once.  A run that returns or raises one of those two errors leaves
    no reference cycle, so its document, outcomes and helper state are
    freed as soon as the caller drops them, without the cyclic garbage
    collector.
    """
    blocks = list(doc.blocks)
    blocks.extend(Block(line_ids=(lid,)) for lid in doc.ungrouped_line_ids())
    todo = deque(enumerate(blocks))
    results: list[OrderingOutcome | Exception | None] = [None] * len(blocks)
    stop = threading.Event()  # set by a refusal, or when the caller is interrupted
    helpers: list[Future] = []
    handoff = threading.Lock()
    hands_off = backend is not None and not _answers_at_once(backend)

    def work() -> None:
        while not stop.is_set():
            try:
                index, block = todo.popleft()
            except IndexError:
                return
            if hands_off and len(block.line_ids) > 1:
                with handoff:  # before this thread waits on a send, one more takes the queue
                    if todo and not (helpers and _waiting(helpers[-1])):
                        helpers.append(_helpers().submit(work))
            try:
                results[index] = order_block(doc, block, backend, config, block_index=index, stop=stop)
            except Exception as e:  # refused requests and bugs; reported after the merge
                if isinstance(e, LlmRefusedError):
                    stop.set()
                results[index] = e

    try:
        work()
    except BaseException:
        stop.set()
        for helper in helpers:
            helper.cancel()
        raise
    for helper in helpers:
        if not helper.cancel():
            helper.result()
    del work  # it names itself in its hand-off: a cycle that only the cyclic GC would free

    if backend is not None:
        waits = [r.wait_s for r in results if isinstance(r, OrderingOutcome) and r.wait_s is not None]
        _remember(backend, waits)
    failures = [(i, r) for i, r in enumerate(results) if isinstance(r, Exception)]
    if failures:
        if stop.is_set():
            error = next(e for _, e in failures if isinstance(e, LlmRefusedError))
        else:
            error = PipelineError("; ".join(f"block {i}: {e}" for i, e in failures))
        # A stored error's traceback holds the frames of the work loop that
        # caught it, and through them this one: keep no name here for any error.
        del failures
        results.clear()
        try:
            raise error
        finally:
            del error

    new_blocks = tuple(replace(b, text=o.block_text) for b, o in zip(blocks, results))
    return doc.with_blocks(new_blocks), results


def _answers_at_once(backend: LlmBackend) -> bool:
    try:
        return backend in _INSTANT_BACKENDS
    except TypeError:  # unhashable: never remembered
        return False


def _remember(backend: LlmBackend, waits: list[float]) -> None:
    """Record whether this run's sends waited; a run that sent nothing says nothing."""
    if not waits:
        return
    try:
        if sorted(waits)[len(waits) // 2] <= _WAIT_S:
            _INSTANT_BACKENDS.add(backend)
        else:
            _INSTANT_BACKENDS.discard(backend)
    except TypeError:  # not hashable or not weakly referenceable
        pass


def _waiting(helper: Future) -> bool:
    """Submitted, and not yet taken up by a helper thread."""
    return not (helper.running() or helper.done())
