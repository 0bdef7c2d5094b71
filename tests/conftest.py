"""Shared fixture builders: sign-photo document, ground truth, synthetic docs,
and a loopback chat-completions stub server."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from blockspot.model import Block, Document, Line, Quad, validate_document


def rect_box(x0, y0, x1, y1) -> Quad:
    return Quad.from_points([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def make_line(line_id: int, x0, y0, x1, y1, text: str = "") -> Line:
    return Line(id=line_id, box=rect_box(x0, y0, x1, y1), text=text)


def sign_doc() -> Document:
    """Two-line sign: big left text sharing a row with smaller right text.

    Reading the boxes alone gives "TO LOVE CYCLING 20 REASONS"; the
    meaningful order is "20 REASONS TO LOVE CYCLING".
    """
    doc = Document(
        image_width=500,
        image_height=120,
        lines=(
            make_line(0, 310, 20, 420, 60, "20 REASONS"),
            make_line(1, 0, 10, 300, 90, "TO LOVE CYCLING"),
        ),
        blocks=(Block(line_ids=(0, 1)),),
    )
    validate_document(doc)
    return doc


def sign_gt() -> Document:
    base = sign_doc()
    doc = Document(
        image_width=base.image_width,
        image_height=base.image_height,
        lines=base.lines,
        blocks=(Block(line_ids=(0, 1), text="20 REASONS TO LOVE CYCLING"),),
        is_ground_truth=True,
    )
    validate_document(doc)
    return doc


def synthetic_gt(num_blocks: int = 20) -> Document:
    """Stacked multi-line blocks with gold order and gold text."""
    lines = []
    blocks = []
    next_id = 0
    y = 0
    for b in range(num_blocks):
        ids = []
        texts = []
        for i in range(1 + (b % 3)):
            text = f"BLOCK {b} LINE {i}"
            lines.append(make_line(next_id, 10, y, 10 + 12 * len(text), y + 20, text))
            ids.append(next_id)
            texts.append(text)
            next_id += 1
            y += 28
        blocks.append(Block(line_ids=tuple(ids), text=" ".join(texts)))
        y += 60
    doc = Document(
        image_width=400,
        image_height=y + 10,
        lines=tuple(lines),
        blocks=tuple(blocks),
        is_ground_truth=True,
    )
    validate_document(doc)
    return doc


def _one_line_doc(
    vertex: str = "10", confidence: str = "0.5", text: str = '"EXIT"', block_text: str = "null"
) -> str:
    return (
        '{"image_width": 800, "image_height": 600, "lines": [{"id": 1, "vertices": '
        f'[[{vertex}, 10], [110, 10], [110, 40], [10, 40]], "text": {text}, '
        f'"confidence": {confidence}}}], "blocks": [{{"line_ids": [1], "text": {block_text}}}]}}'
    )


# Inputs that once escaped parse_document as something other than DocumentError.
HOSTILE_DOCUMENTS = {
    "deep-nesting": "[" * 100_000,  # RecursionError in the JSON decoder
    "huge-int-vertex": _one_line_doc(vertex="9" * 400),  # OverflowError in float()
    "huge-int-confidence": _one_line_doc(confidence="9" * 400),
    "over-long-integer": _one_line_doc(vertex="9" * 5000),  # int digit limit ValueError
    "nan-vertex": _one_line_doc(vertex="NaN"),
    "infinity-vertex": _one_line_doc(vertex="-Infinity"),
    # JSON escapes of lone surrogates, which UTF-8 output cannot encode
    "lone-surrogate-line-text": _one_line_doc(text='"EX\\ud800IT"'),
    "lone-surrogate-block-text": _one_line_doc(block_text='"EXIT\\udfff"'),
    # Inputs that once parsed although coordinates and confidence must be numbers.
    "string-vertex": _one_line_doc(vertex='"10"'),
    "bool-vertex": _one_line_doc(vertex="true"),
    "string-confidence": _one_line_doc(confidence='"0.5"'),
    "mixed-non-numbers": (
        '{"image_width": 800, "image_height": 600, "lines": [{"id": 1, "vertices": '
        '[["10", true], ["1e2", 1], [110, " 40 "], [10, 40]], "text": "EXIT", '
        '"confidence": "0.5"}], "blocks": [{"line_ids": [1]}]}'
    ),
}


@pytest.fixture
def figure_doc() -> Document:
    return sign_doc()


@pytest.fixture
def figure_gt() -> Document:
    return sign_gt()


class StubHandler(BaseHTTPRequestHandler):
    script: list[tuple[int, dict]] = []
    requests_seen: list[dict] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        status, payload = self.script.pop(0) if self.script else (200, ok_reply("fallback"))
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def ok_reply(text, finish="stop"):
    return {"choices": [{"message": {"content": text}, "finish_reason": finish}]}


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    StubHandler.script = []
    StubHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()
