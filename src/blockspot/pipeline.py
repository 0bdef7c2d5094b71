"""Per-block orchestration: geometric pre-order, LLM call, guarded fallback.

For every block the pipeline computes the geometric line order, builds the
code-interleaved prompt, and asks the LLM for the block text.  The LLM is
skipped for single-line blocks and for prompts that exceed the context
budget; transport errors and replies failing the length guard degrade to
the geometric order joined with spaces.  Every block always ends up with a
text and an :class:`OrderingOutcome` explaining which strategy produced it.

The recognizer side is an interface: :func:`plan_recognition` describes the
rotate/crop/split work per line, an external engine fills in part texts,
and :func:`assemble_line_text` joins them.  Scripted and echo recognizers
are provided for tests and offline runs.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping, Protocol, Sequence

from .geo_order import geometric_order
from .geometry import (
    AlignedRect,
    GeometryError,
    RecognizerSpec,
    crop_rect,
    quad_bounds,
    snap_rotation,
    split_for_recognizer,
    translate_block_boxes,
)
from .llm import LlmAuthError, LlmBackend, LlmConfig, LlmError, complete, fits_context
from .model import Block, Document, Line
from .prompting import (
    BlockPromptInput,
    ChatPrompt,
    build_prompt,
    expected_length,
    length_guard,
)

DEFAULT_CONCURRENCY = 4


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
    """How one block's text was produced."""

    block_ref: int
    strategy: Strategy
    block_text: str
    expected_len: int
    llm_len: int | None = None

    def __post_init__(self) -> None:
        if self.strategy is Strategy.LLM and self.llm_len is None:
            raise ValueError("llm outcomes must record the reply length")


@dataclass(frozen=True)
class RecognizerRequest:
    """Preprocessing plan for one line: rotate, crop, split."""

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
        parts = self._parts.get(request.line_id)
        if parts is None:
            return [""] * len(request.parts)
        if len(parts) != len(request.parts):
            raise ValueError(
                f"line {request.line_id}: scripted {len(parts)} parts, planned {len(request.parts)}"
            )
        return parts


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


def plan_recognition(doc: Document, spec: RecognizerSpec | None = None) -> list[RecognizerRequest]:
    """One request per line, in document order."""
    if spec is None:
        spec = RecognizerSpec()
    requests = []
    for line in doc.lines:
        try:
            rotation = snap_rotation(line.box.vertices)
            crop = crop_rect(line.box.vertices, rotation)
            parts = tuple(split_for_recognizer(crop, spec))
        except GeometryError as e:
            raise GeometryError(f"line {line.id}: {e}") from e
        requests.append(
            RecognizerRequest(line_id=line.id, rotation=rotation, crop=crop, parts=parts)
        )
    return requests


def assemble_line_text(part_texts: Sequence[str]) -> str:
    """Parts are read left to right and concatenated without separators."""
    return "".join(part_texts)


def recognize_document(
    doc: Document, recognizer: Recognizer, spec: RecognizerSpec | None = None
) -> Document:
    """Run the recognition plan and return a document with line texts set."""
    texts: dict[int, str] = {}
    for request in plan_recognition(doc, spec):
        parts = recognizer.recognize_parts(request)
        if len(parts) != len(request.parts):
            raise ValueError(
                f"line {request.line_id}: recognizer returned {len(parts)} parts, "
                f"expected {len(request.parts)}"
            )
        texts[request.line_id] = assemble_line_text(parts)
    new_lines = tuple(replace(line, text=texts[line.id]) for line in doc.lines)
    return replace(doc, lines=new_lines)


def _geometric_entries(doc: Document, block: Block) -> tuple[list[Line], list[str]]:
    """Block lines in geometric order, with their texts."""
    lines = [doc.line_by_id(lid) for lid in block.line_ids]
    pairs = [(line, quad_bounds(line.box.vertices)) for line in lines]
    order = geometric_order(pairs)
    by_id = {line.id: line for line in lines}
    ordered = [by_id[lid] for lid in order]
    return ordered, [line.text for line in ordered]


def block_key(block_index: int) -> str:
    """Identifier used to key scripted/replay backends."""
    return f"block-{block_index}"


def _prompt_for(ordered: Sequence[Line], texts: Sequence[str]) -> ChatPrompt:
    """Prompt for lines already in geometric order, boxes block-anchored."""
    boxes = translate_block_boxes([line.box.vertices for line in ordered])
    return build_prompt(BlockPromptInput(entries=tuple(zip(texts, boxes))))


def build_block_prompt(doc: Document, block: Block) -> ChatPrompt:
    """The exact prompt :func:`order_block` would send for this block."""
    return _prompt_for(*_geometric_entries(doc, block))


def order_block(
    doc: Document,
    block: Block,
    backend: LlmBackend | None,
    config: LlmConfig,
    block_index: int = 0,
) -> OrderingOutcome:
    """Produce the text for one block.

    Backend failures degrade the block to the geometric order, except
    :class:`LlmAuthError`, which no other block could escape either and
    therefore propagates.
    """
    if len(block.line_ids) == 1:
        line = doc.line_by_id(block.line_ids[0])
        return OrderingOutcome(
            block_ref=block_index,
            strategy=Strategy.SINGLE_LINE,
            block_text=line.text,
            expected_len=len(line.text),
        )

    ordered, texts = _geometric_entries(doc, block)
    expected = expected_length(texts)
    fallback_text = " ".join(texts)

    def fallback(strategy: Strategy, llm_len: int | None = None) -> OrderingOutcome:
        return OrderingOutcome(
            block_ref=block_index,
            strategy=strategy,
            block_text=fallback_text,
            expected_len=expected,
            llm_len=llm_len,
        )

    if backend is None:
        return fallback(Strategy.GEOMETRIC_ONLY)

    prompt = _prompt_for(ordered, texts)
    if not fits_context(prompt, config):
        return fallback(Strategy.GEOMETRIC_FALLBACK_CONTEXT)

    try:
        reply = complete(backend, prompt, config, key=block_key(block_index))
    except LlmAuthError:
        raise
    except LlmError:
        return fallback(Strategy.GEOMETRIC_FALLBACK_ERROR)

    if not length_guard(reply.text, expected):
        return fallback(Strategy.GEOMETRIC_FALLBACK_LENGTH, llm_len=len(reply.text))
    return OrderingOutcome(
        block_ref=block_index,
        strategy=Strategy.LLM,
        block_text=reply.text,
        expected_len=expected,
        llm_len=len(reply.text),
    )


def run(
    doc: Document,
    backend: LlmBackend | None,
    config: LlmConfig,
    *,
    concurrency: int = DEFAULT_CONCURRENCY,
) -> tuple[Document, list[OrderingOutcome]]:
    """Order every block; returns the texted document and per-block outcomes.

    Lines outside any block are appended as singleton blocks (in line
    order) so the output covers every detected line.  Blocks are processed
    independently, up to ``concurrency`` at a time, and results are merged
    back in block order, so a deterministic backend gives a deterministic
    output.  An :class:`LlmAuthError` from any block is re-raised as is;
    other exceptions are invariant violations, gathered into one
    :class:`PipelineError`.
    """
    blocks = list(doc.blocks)
    blocks.extend(Block(line_ids=(lid,)) for lid in doc.ungrouped_line_ids())

    def work(item: tuple[int, Block]) -> OrderingOutcome | Exception:
        index, block = item
        try:
            return order_block(doc, block, backend, config, block_index=index)
        except Exception as e:  # auth failures and bugs; reported after the merge
            return e

    items = list(enumerate(blocks))
    if concurrency > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            results = list(pool.map(work, items))
    else:
        results = [work(item) for item in items]

    failures = [(i, r) for (i, _), r in zip(items, results) if isinstance(r, Exception)]
    for _, e in failures:
        if isinstance(e, LlmAuthError):
            raise e
    if failures:
        raise PipelineError(
            "; ".join(f"block {i}: {e}" for i, e in failures)
        )
    outcomes = results

    new_blocks = tuple(
        replace(block, text=outcome.block_text) for block, outcome in zip(blocks, outcomes)
    )
    return doc.with_blocks(new_blocks), outcomes
