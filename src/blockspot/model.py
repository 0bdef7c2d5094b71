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

Each rule has one home.  ``Quad`` checks a box and ``Quad.from_points`` the
JSON coordinate types; ``Line(...)`` checks a line's id, text (no control
character, no lone surrogate) and confidence; ``Block`` checks that its ids
are there and distinct; ``validate_document`` checks the rest: image
dimensions (positive integers no larger than the largest float), unique
line ids, boxes on the page, block ids and block texts.  ``parse_document``
only maps JSON onto those constructors and validates, so a document that
passes ``validate_document`` round-trips through ``serialize_document``.
Documents are immutable and safe to share between workers.  ``read_json``
reads the other JSON files a run takes (config, scripted replies, replay
transcripts) with one set of failure rules.
"""

from __future__ import annotations

import enum
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

from .geometry import AlignedRect

BOX_MARGIN_PX = 5.0
# A box bound is a float, so a page dimension must fit one too; it then has at
# most 309 digits, and a box limit (dimension + margin) cannot overflow.
_MAX_DIMENSION = int(sys.float_info.max)
# exact JSON number types: bool is an int subclass, and float() takes "10" too
_NUMBER = frozenset((int, float))


def _not_int(key: str, value: Any) -> str:
    return f"{key!r} must be an integer, got {value!r}"


class DocumentError(ValueError):
    """A document failed schema or invariant validation."""

    def __init__(self, message: str, *, source: str = "<memory>"):
        super().__init__(f"{source}: {message}")
        self.source = source
        self.reason = message


class DocumentKind(enum.Enum):
    PREDICTION = "prediction"
    GROUND_TRUTH = "ground_truth"


class Quad:
    """Convex quadrilateral, counter-clockwise (clockwise input is reversed),
    positive area.  Its axis-aligned box, ``bounds``, is computed here once
    for every layer to read; ``==``, ``hash`` and ``repr`` ignore it.  A
    quad is immutable, and ``copy`` and ``pickle`` build it again from its
    vertices."""

    __slots__ = ("vertices", "bounds")

    def __init__(self, vertices: tuple[tuple[float, float], ...]) -> None:
        pts = vertices
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
        area4 = kd + ka + kb + kc
        if area4 < 0:
            # reversing the winding negates every cross exactly and permutes them
            pts = ((ax, ay), (dx, dy), (cx, cy), (bx, by))
            bx, by, dx, dy = dx, dy, bx, by
            kd, ka, kb, kc = -kb, -ka, -kd, -kc
            # summed again in the new order: -area4 can round a crossing quad's
            # near-zero area to the other side of zero
            area4 = kd + ka + kb + kc
        if not math.isfinite(area4):
            raise ValueError(f"non-finite vertex in {pts}")
        if area4 <= 0:
            raise ValueError("quad has zero area (collinear, repeated or crossing vertices)")
        # a corner turning the other way; only a negative cross can be one
        if (kd < 0 or ka < 0 or kb < 0 or kc < 0) and min(kd, ka, kb, kc) < -1e-9 * max(kd, ka, kb, kc):
            raise ValueError("quad is not convex")
        # Comparison chains keep the first of equal values, as min and max do,
        # so a -0.0 or 0.0 bound is the one min and max would pick.
        x0 = x1 = ax
        if bx < x0:
            x0 = bx
        elif bx > x1:
            x1 = bx
        if cx < x0:
            x0 = cx
        elif cx > x1:
            x1 = cx
        if dx < x0:
            x0 = dx
        elif dx > x1:
            x1 = dx
        y0 = y1 = ay
        if by < y0:
            y0 = by
        elif by > y1:
            y1 = by
        if cy < y0:
            y0 = cy
        elif cy > y1:
            y1 = cy
        if dy < y0:
            y0 = dy
        elif dy > y1:
            y1 = dy
        object.__setattr__(self, "vertices", pts)
        object.__setattr__(self, "bounds", AlignedRect(x0, y0, x1, y1))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Quad(vertices={self.vertices!r})"

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"a quad is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return Quad, (self.vertices,)

    @classmethod
    def from_points(cls, points: Sequence[Sequence[float]]) -> "Quad":
        """Build a quad from four JSON points: every coordinate must be an int
        or a float (not a bool or a string), and is converted to a float."""
        if len(points) != 4:
            raise ValueError(f"quad needs 4 vertices, got {len(points)}")
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = points
        if not {type(ax), type(ay), type(bx), type(by), type(cx), type(cy), type(dx), type(dy)} <= _NUMBER:
            raise ValueError(f"vertex coordinates must be numbers, got {points!r}")
        return cls(
            ((float(ax), float(ay)), (float(bx), float(by)), (float(cx), float(cy)), (float(dx), float(dy)))
        )


# No C0 control or DEL within a line; no lone surrogate (UTF-8 cannot encode one)
_BAD_LINE_TEXT = re.compile(r"[\x00-\x1f\x7f\ud800-\udfff]")
LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")


class _LineFields(NamedTuple):
    id: int
    box: Quad
    text: str
    recognizer_confidence: float | None


class Line(_LineFields):
    """One detected text line.

    A line is an immutable 4-tuple ``(id, box, text, recognizer_confidence)``:
    it unpacks, hashes and compares equal as one.  The constructor (and so
    ``copy`` and ``pickle``) checks the id (an ``int``), the text (a ``str``)
    and the confidence (``None`` or an ``int`` or ``float`` in [0, 1], stored
    as a float); build a changed line with ``Line(...)``, not with the
    inherited ``_replace`` or ``_make``, which skip those checks.
    ``dataclasses.fields`` and ``asdict`` do not apply to it.
    """

    __slots__ = ()

    def __new__(cls, id: int, box: Quad, text: str = "", recognizer_confidence: float | None = None) -> "Line":
        if type(id) is not int:
            raise ValueError(_not_int("id", id))
        if type(text) is not str:
            raise ValueError(f"line {id}: text must be a string")
        if _BAD_LINE_TEXT.search(text):
            raise ValueError(f"line {id}: text contains control characters or lone surrogates")
        if recognizer_confidence is not None:
            if type(recognizer_confidence) not in _NUMBER:
                raise ValueError(f"confidence must be a number, got {recognizer_confidence!r}")
            # compared before float(): an int too large for a float is just out of range
            if not 0.0 <= recognizer_confidence <= 1.0:
                raise ValueError(f"line {id}: confidence outside [0, 1]")
            recognizer_confidence = float(recognizer_confidence)
        return tuple.__new__(cls, (id, box, text, recognizer_confidence))


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
    """Check the rules no constructor owns; raises DocumentError on the first hit."""
    for key, value in (("image_width", doc.image_width), ("image_height", doc.image_height)):
        if type(value) is not int:  # a NaN width would pass every box bound check below
            raise DocumentError(_not_int(key, value), source=source)
        if not 0 < value <= _MAX_DIMENSION:
            raise DocumentError(f"{key!r} must be a positive integer that fits a float", source=source)
    x_limit = doc.image_width + BOX_MARGIN_PX
    y_limit = doc.image_height + BOX_MARGIN_PX
    seen_ids: set[int] = set()
    for line_id, box, _, _ in doc.lines:
        if line_id in seen_ids:
            raise DocumentError(f"duplicate line id {line_id}", source=source)
        seen_ids.add(line_id)
        x_min, y_min, x_max, y_max = box.bounds
        if x_min < -BOX_MARGIN_PX or y_min < -BOX_MARGIN_PX or x_max > x_limit or y_max > y_limit:
            raise DocumentError(
                f"line {line_id} box leaves the image by more than {BOX_MARGIN_PX}px",
                source=source,
            )
    claimed: set[int] = set()
    for i, block in enumerate(doc.blocks):
        text = block.text
        if text is not None and (type(text) is not str or LONE_SURROGATE.search(text)):
            raise DocumentError(f"block {i}: text must be a string without lone surrogates", source=source)
        for lid in block.line_ids:
            if type(lid) is not int:  # 1.0 and True would match line 1
                raise DocumentError(f"block {i}: line ids must be integers, got {lid!r}", source=source)
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
        doc = Document(
            image_width=data["image_width"],
            image_height=data["image_height"],
            lines=tuple([_parse_line(obj, i) for i, obj in enumerate(_expect_list(data, "lines"))]),
            blocks=tuple([_parse_block(obj, i) for i, obj in enumerate(_expect_list(data, "blocks"))]),
            is_ground_truth=kind is DocumentKind.GROUND_TRUTH,
        )
    except (KeyError, ValueError) as e:
        raise DocumentError(str(e), source=source) from e
    validate_document(doc, source=source)
    return doc


def load_document(path: str | Path, kind: DocumentKind | str = DocumentKind.PREDICTION) -> Document:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise DocumentError(f"cannot read file: {e}", source=str(path)) from e
    return parse_document(raw, kind, source=str(path))


def read_json(path: str | Path, error: type[Exception], what: str, *, lines: bool = False) -> Any:
    """The JSON value in the UTF-8 file at ``path``; with ``lines``, a list of
    ``(line number, value)`` for each non-blank line.

    Lines are split on ``"\\n"`` only: JSON strings may hold U+0085 or
    U+2028, which ``json.dumps`` leaves unescaped and ``str.splitlines``
    would split on.  Every way the read or the decode fails (``OSError``,
    ``UnicodeDecodeError``, ``ValueError`` such as an over-long integer,
    and ``RecursionError`` from deep nesting) raises ``error``, with a
    message that names the file (and the line) and the ``what`` it held.
    """
    ln = 0
    try:
        text = Path(path).read_text("utf-8")
        if not lines:
            return json.loads(text)
        values = []
        for ln, raw in enumerate(text.split("\n"), 1):
            if raw.strip():
                values.append((ln, json.loads(raw)))
        return values
    except (OSError, ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
        where = f"{path}:{ln}" if ln else path
        raise error(f"{where}: cannot read {what}: {e}") from e


def serialize_document(doc: Document) -> bytes:
    """Deterministic compact UTF-8 JSON; parse(serialize(doc)) equals doc.

    The JSON does not say what kind of document it holds, so a ground-truth
    document comes back equal only when parsed with ``kind="ground_truth"``.
    """
    lines = []
    for line in doc.lines:
        obj = {"id": line.id, "vertices": line.box.vertices, "text": line.text}
        if line.recognizer_confidence is not None:
            obj["confidence"] = line.recognizer_confidence
        lines.append(obj)
    blocks = []
    for block in doc.blocks:
        obj = {"line_ids": block.line_ids}
        if block.text is not None:
            obj["text"] = block.text
        blocks.append(obj)
    data = {"image_width": doc.image_width, "image_height": doc.image_height, "lines": lines, "blocks": blocks}
    return json.dumps(data, ensure_ascii=False).encode("utf-8")


def save_document(doc: Document, path: str | Path) -> None:
    Path(path).write_bytes(serialize_document(doc) + b"\n")


def _expect_list(data: dict, key: str) -> list:
    v = data[key]
    if not isinstance(v, list):
        raise ValueError(f"{key!r} must be a list")
    return v


def _parse_line(obj: Any, index: int) -> Line:
    if not isinstance(obj, dict):
        raise ValueError(f"lines[{index}] must be an object")
    try:
        return Line(obj["id"], Quad.from_points(obj["vertices"]), obj.get("text", ""), obj.get("confidence"))
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # overflow: coordinates beyond a float
        raise ValueError(f"lines[{index}]: {e}") from e


def _parse_block(obj: Any, index: int) -> Block:
    if not isinstance(obj, dict):
        raise ValueError(f"blocks[{index}] must be an object")
    try:
        return Block(tuple(_expect_list(obj, "line_ids")), obj.get("text"))
    except (KeyError, TypeError, ValueError) as e:  # TypeError: unhashable ids
        raise ValueError(f"blocks[{index}]: {e}") from e
