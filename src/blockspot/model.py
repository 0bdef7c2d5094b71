"""Domain types and the JSON document schema.

A document is a set of detected text lines (quadrilateral box + recognized
text) grouped into blocks.  The same schema serves predictions and ground
truth; in ground-truth files the order of ``line_ids`` inside a block is
the gold reading order and a block's ``text`` is the gold block string.

Schema (UTF-8 JSON)::

    {
      "image_width": int,
      "image_height": int,
      "lines": [
        {"id": int, "vertices": [[x, y], [x, y], [x, y], [x, y]],
         "text": str, "confidence": number?}
      ],
      "blocks": [
        {"line_ids": [int, ...], "text": str?}
      ]
    }

Line texts hold no control characters, and no text holds a lone surrogate.
Documents are immutable after parsing and safe to share between workers.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Sequence

from .geometry import AlignedRect

BOX_MARGIN_PX = 5.0
# exact JSON value types: bool is an int subclass, and float() takes "10" too
_INT, _NUMBER = frozenset((int,)), frozenset((int, float))


class DocumentError(ValueError):
    """A document failed schema or invariant validation."""

    def __init__(self, message: str, *, source: str = "<memory>"):
        super().__init__(f"{source}: {message}")
        self.source = source
        self.reason = message


class DocumentKind(enum.Enum):
    PREDICTION = "prediction"
    GROUND_TRUTH = "ground_truth"


@dataclass(frozen=True)
class Quad:
    """Convex quadrilateral, counter-clockwise (clockwise input is reversed),
    positive area.  Its axis-aligned box, ``bounds``, is computed here once
    for every layer to read; ``==``, ``hash`` and ``repr`` ignore it."""

    vertices: tuple[tuple[float, float], ...]
    bounds: AlignedRect = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = self.vertices
        if len(pts) != 4:
            raise ValueError(f"quad needs 4 vertices, got {len(pts)}")
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts
        # Cross product of the edges meeting at each corner (at d, a, b, c);
        # the four sum to 4x the signed area, positive counter-clockwise, and
        # are not finite if any coordinate is.
        kd = (dx - cx) * (ay - dy) - (dy - cy) * (ax - dx)
        ka = (ax - dx) * (by - ay) - (ay - dy) * (bx - ax)
        kb = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        kc = (cx - bx) * (dy - cy) - (cy - by) * (dx - cx)
        if kd + ka + kb + kc < 0:
            # reversing the winding negates every cross exactly and permutes them
            pts = ((ax, ay), (dx, dy), (cx, cy), (bx, by))
            object.__setattr__(self, "vertices", pts)
            bx, by, dx, dy = dx, dy, bx, by
            kd, ka, kb, kc = -kb, -ka, -kd, -kc
        area4 = kd + ka + kb + kc
        if not math.isfinite(area4):
            raise ValueError(f"non-finite vertex in {pts}")
        if area4 <= 0:
            raise ValueError("quad has zero area (collinear, repeated or crossing vertices)")
        if min(kd, ka, kb, kc) < -1e-9 * max(kd, ka, kb, kc):  # a corner turning the other way
            raise ValueError("quad is not convex")
        bounds = AlignedRect(min(ax, bx, cx, dx), min(ay, by, cy, dy), max(ax, bx, cx, dx), max(ay, by, cy, dy))
        object.__setattr__(self, "bounds", bounds)

    @classmethod
    def from_points(cls, points: Sequence[Sequence[float]]) -> "Quad":
        """Build a quad from four JSON points: every coordinate must be an int
        or a float (not a bool or a string), and is converted to a float."""
        if len(points) != 4:
            raise ValueError(f"quad needs 4 vertices, got {len(points)}")
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = points
        if not _NUMBER.issuperset(map(type, (ax, ay, bx, by, cx, cy, dx, dy))):
            raise ValueError(f"vertex coordinates must be numbers, got {points!r}")
        return cls(
            ((float(ax), float(ay)), (float(bx), float(by)), (float(cx), float(cy)), (float(dx), float(dy)))
        )


# No C0 control or DEL within a line; no lone surrogate (UTF-8 cannot encode one)
_BAD_LINE_TEXT = re.compile(r"[\x00-\x1f\x7f\ud800-\udfff]")
LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")


@dataclass(frozen=True)
class Line:
    """One detected text line."""

    id: int
    box: Quad
    text: str = ""
    recognizer_confidence: float | None = None

    def __post_init__(self) -> None:
        if _BAD_LINE_TEXT.search(self.text):
            raise ValueError(f"line {self.id}: text contains control characters or lone surrogates")
        if self.recognizer_confidence is not None and not 0.0 <= self.recognizer_confidence <= 1.0:
            raise ValueError(f"line {self.id}: confidence outside [0, 1]")


@dataclass(frozen=True)
class Block:
    """An ordered group of line ids, with the block text once ordered."""

    line_ids: tuple[int, ...]
    text: str | None = None

    def __post_init__(self) -> None:
        if not self.line_ids:
            raise ValueError("block has no lines")
        if len(set(self.line_ids)) != len(self.line_ids):
            raise ValueError(f"block repeats line ids: {self.line_ids}")


@dataclass(frozen=True)
class Document:
    """Image dimensions plus detected lines and their block grouping."""

    image_width: int
    image_height: int
    lines: tuple[Line, ...] = ()
    blocks: tuple[Block, ...] = ()
    is_ground_truth: bool = False

    @cached_property
    def _lines_by_id(self) -> dict[int, Line]:
        # reversed, so the first of repeated ids (unvalidated documents) wins
        return {line.id: line for line in reversed(self.lines)}

    def line_by_id(self, line_id: int) -> Line:
        try:
            return self._lines_by_id[line_id]
        except KeyError:
            raise KeyError(f"unknown line id {line_id}") from None

    def ungrouped_line_ids(self) -> list[int]:
        grouped = {lid for block in self.blocks for lid in block.line_ids}
        return [line.id for line in self.lines if line.id not in grouped]

    def with_blocks(self, blocks: Iterable[Block]) -> "Document":
        return replace(self, blocks=tuple(blocks))


def validate_document(doc: Document, *, source: str = "<memory>") -> None:
    """Check cross-object invariants; raises DocumentError on the first hit."""
    if doc.image_width <= 0 or doc.image_height <= 0:
        raise DocumentError(
            f"image dimensions must be positive, got {doc.image_width}x{doc.image_height}",
            source=source,
        )
    seen_ids: set[int] = set()
    for line in doc.lines:
        if line.id in seen_ids:
            raise DocumentError(f"duplicate line id {line.id}", source=source)
        seen_ids.add(line.id)
        rect = line.box.bounds
        if (
            rect.x_min < -BOX_MARGIN_PX
            or rect.y_min < -BOX_MARGIN_PX
            or rect.x_max > doc.image_width + BOX_MARGIN_PX
            or rect.y_max > doc.image_height + BOX_MARGIN_PX
        ):
            raise DocumentError(
                f"line {line.id} box leaves the image by more than {BOX_MARGIN_PX}px",
                source=source,
            )
    claimed: set[int] = set()
    for i, block in enumerate(doc.blocks):
        for lid in block.line_ids:
            if lid not in seen_ids:
                raise DocumentError(f"block {i}: unknown line id {lid}", source=source)
            if lid in claimed:
                raise DocumentError(f"line {lid} appears in multiple blocks", source=source)
            claimed.add(lid)


def parse_document(
    raw: bytes | str,
    kind: DocumentKind | str = DocumentKind.PREDICTION,
    *,
    source: str = "<memory>",
) -> Document:
    """Parse and validate a document from JSON bytes or text.

    Line order inside each block is preserved exactly as given; for
    ground-truth documents that order is the gold reading order.
    """
    if isinstance(kind, str):
        kind = DocumentKind(kind)
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DocumentError(f"not valid UTF-8: {e}", source=source) from e
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as e:  # also over-long integers, deep nesting
        raise DocumentError(f"malformed JSON: {e}", source=source) from e
    if not isinstance(data, dict):
        raise DocumentError("top level must be a JSON object", source=source)

    try:
        width = _expect_int(data, "image_width")
        height = _expect_int(data, "image_height")
        lines = tuple(_parse_line(obj, i, source) for i, obj in enumerate(_expect_list(data, "lines")))
        blocks = tuple(_parse_block(obj, i, source) for i, obj in enumerate(_expect_list(data, "blocks")))
        doc = Document(
            image_width=width,
            image_height=height,
            lines=lines,
            blocks=blocks,
            is_ground_truth=kind is DocumentKind.GROUND_TRUTH,
        )
        validate_document(doc, source=source)
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # overflow: ints beyond float
        raise DocumentError(str(e), source=source) from e
    return doc


def load_document(path: str | Path, kind: DocumentKind | str = DocumentKind.PREDICTION) -> Document:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise DocumentError(f"cannot read file: {e}", source=str(path)) from e
    return parse_document(raw, kind, source=str(path))


def serialize_document(doc: Document) -> bytes:
    """Deterministic compact UTF-8 JSON; parse(serialize(doc)) equals doc."""
    lines = []
    for line in doc.lines:
        obj = {"id": line.id, "vertices": [[x, y] for x, y in line.box.vertices], "text": line.text}
        if line.recognizer_confidence is not None:
            obj["confidence"] = line.recognizer_confidence
        lines.append(obj)
    blocks = []
    for block in doc.blocks:
        obj = {"line_ids": list(block.line_ids)}
        if block.text is not None:
            obj["text"] = block.text
        blocks.append(obj)
    data = {"image_width": doc.image_width, "image_height": doc.image_height, "lines": lines, "blocks": blocks}
    return json.dumps(data, ensure_ascii=False).encode("utf-8")


def save_document(doc: Document, path: str | Path) -> None:
    Path(path).write_bytes(serialize_document(doc) + b"\n")


def _expect_int(data: dict, key: str) -> int:
    v = data[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"{key!r} must be an integer, got {v!r}")
    return v


def _expect_list(data: dict, key: str) -> list:
    v = data[key]
    if not isinstance(v, list):
        raise ValueError(f"{key!r} must be a list")
    return v


def _parse_line(obj: Any, index: int, source: str) -> Line:
    if not isinstance(obj, dict):
        raise DocumentError(f"lines[{index}] must be an object", source=source)
    try:
        line_id = _expect_int(obj, "id")
        text = obj.get("text", "")
        confidence = obj.get("confidence")
        if not isinstance(text, str):
            raise ValueError(f"line {line_id}: text must be a string")
        if confidence is not None:
            if type(confidence) not in _NUMBER:
                raise ValueError(f"confidence must be a number, got {confidence!r}")
            confidence = float(confidence)
        box = Quad.from_points(obj["vertices"])
        return Line(id=line_id, box=box, text=text, recognizer_confidence=confidence)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DocumentError(f"lines[{index}]: {e}", source=source) from e


def _parse_block(obj: Any, index: int, source: str) -> Block:
    if not isinstance(obj, dict):
        raise DocumentError(f"blocks[{index}] must be an object", source=source)
    try:
        line_ids = obj["line_ids"]
        if not isinstance(line_ids, list) or not _INT.issuperset(map(type, line_ids)):
            raise ValueError("line_ids must be a list of integers")
        text = obj.get("text")
        if text is not None and (not isinstance(text, str) or LONE_SURROGATE.search(text)):
            raise ValueError("block text must be a string without lone surrogates")
        return Block(line_ids=tuple(line_ids), text=text)
    except (KeyError, TypeError, ValueError) as e:
        raise DocumentError(f"blocks[{index}]: {e}", source=source) from e
