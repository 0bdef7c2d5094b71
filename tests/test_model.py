"""Document schema parsing, validation, and round-trip tests."""

from __future__ import annotations

import copy
import json
import math
import pickle
import re
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest
from conftest import HOSTILE_DOCUMENTS
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blockspot.geometry import AlignedRect, quad_bounds
from blockspot.model import (
    Block,
    Document,
    DocumentError,
    DocumentKind,
    Line,
    Quad,
    load_document,
    parse_document,
    serialize_document,
    validate_document,
)


def doc_dict(**overrides):
    base = {
        "image_width": 800,
        "image_height": 600,
        "lines": [
            {
                "id": 1,
                "vertices": [[10, 10], [110, 10], [110, 40], [10, 40]],
                "text": "EXIT",
                "confidence": 0.93,
            }
        ],
        "blocks": [{"line_ids": [1]}],
    }
    base.update(overrides)
    return base


def parse(data, kind=DocumentKind.PREDICTION):
    return parse_document(json.dumps(data), kind)


# the largest image dimension: a box bound is a float, so a dimension must fit one
_MAX_DIMENSION = int(sys.float_info.max)
NO_LINES = {"lines": [], "blocks": []}


# Reference quad validator in four passes: shoelace area for the flip,
# per-coordinate finiteness, shoelace area again, corner convexity.


def shoelace_area(vertices) -> float:
    """Signed shoelace area; positive for counter-clockwise winding."""
    area = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return area / 2


def _finite(v: float) -> bool:
    return isinstance(v, (int, float)) and v == v and abs(v) != float("inf")


def _is_convex(vertices) -> bool:
    crosses = []
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        cx, cy = vertices[(i + 2) % n]
        crosses.append((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
    scale = max(abs(c) for c in crosses) or 1.0
    return all(c >= -1e-9 * scale for c in crosses)


def reference_quad(points):
    """("ok", vertices) or (error class, None), as ``Quad.from_points`` decided."""
    pts = tuple((float(x), float(y)) for x, y in points)
    if shoelace_area(pts) < 0:
        pts = (pts[0], pts[3], pts[2], pts[1])
    if not all(_finite(x) and _finite(y) for x, y in pts):
        return "non-finite", None
    if shoelace_area(pts) <= 0:
        return "zero-area", None
    if not _is_convex(pts):
        return "convex", None
    return "ok", pts


def quad_decision(points):
    try:
        return "ok", Quad.from_points(points).vertices
    except ValueError as e:
        classes = (("non-finite", "non-finite"), ("zero-area", "zero area"), ("convex", "convex"))
        for cls, needle in classes:
            if needle in str(e):
                return cls, None
        raise


class TestParse:
    def test_minimal_round_trip(self):
        doc = parse(doc_dict())
        assert len(doc.lines) == 1
        assert len(doc.blocks) == 1
        assert doc.lines[0].text == "EXIT"
        assert doc.lines[0].recognizer_confidence == pytest.approx(0.93)
        assert parse_document(serialize_document(doc)) == doc

    def test_ground_truth_flag_and_order_preserved(self):
        data = doc_dict(
            lines=[
                {"id": 7, "vertices": [[0, 0], [50, 0], [50, 10], [0, 10]], "text": "b"},
                {"id": 3, "vertices": [[0, 20], [50, 20], [50, 30], [0, 30]], "text": "a"},
            ],
            blocks=[{"line_ids": [7, 3], "text": "b a"}],
        )
        doc = parse(data, DocumentKind.GROUND_TRUTH)
        assert doc.is_ground_truth
        assert doc.blocks[0].line_ids == (7, 3)
        assert doc.blocks[0].text == "b a"

    def test_unknown_line_id_rejected(self):
        data = doc_dict(blocks=[{"line_ids": [99]}])
        with pytest.raises(DocumentError, match="unknown line id 99"):
            parse(data)

    def test_line_in_two_blocks_rejected(self):
        data = doc_dict(
            lines=[
                {"id": 3, "vertices": [[0, 0], [50, 0], [50, 10], [0, 10]], "text": "x"},
            ],
            blocks=[{"line_ids": [3]}, {"line_ids": [3]}],
        )
        with pytest.raises(DocumentError, match="multiple blocks"):
            parse(data)

    def test_duplicate_line_id_rejected(self):
        line = {"id": 1, "vertices": [[0, 0], [50, 0], [50, 10], [0, 10]], "text": "x"}
        data = doc_dict(lines=[line, dict(line, text="y")], blocks=[])
        with pytest.raises(DocumentError, match="duplicate line id 1"):
            parse(data)

    def test_malformed_json_names_source(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError) as err:
            load_document(path)
        assert str(path) in str(err.value)
        assert "malformed JSON" in str(err.value)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read file"):
            load_document(tmp_path / "absent.json")

    def test_degenerate_quad_rejected(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[0, 0], [10, 0], [20, 0], [30, 0]], "text": "x"}]
        )
        with pytest.raises(DocumentError, match="lines\\[0\\]"):
            parse(data)

    def test_bowtie_quad_rejected(self):
        # zero signed area, so the area check trips before convexity
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[0, 0], [10, 10], [10, 0], [0, 10]], "text": "x"}]
        )
        with pytest.raises(DocumentError, match="lines\\[0\\]"):
            parse(data)

    def test_nonconvex_quad_rejected(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[0, 0], [10, 0], [1, 1], [0, 10]], "text": "x"}]
        )
        with pytest.raises(DocumentError, match="convex"):
            parse(data)

    def test_newline_in_text_rejected(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[0, 0], [10, 0], [10, 5], [0, 5]], "text": "a\nb"}]
        )
        with pytest.raises(DocumentError, match="control characters"):
            parse(data)

    def test_box_far_outside_image_rejected(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[700, 10], [900, 10], [900, 40], [700, 40]], "text": "x"}],
            blocks=[],
        )
        with pytest.raises(DocumentError, match="leaves the image"):
            parse(data)

    def test_box_slightly_outside_tolerated(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[-3, 10], [110, 10], [110, 40], [-3, 40]], "text": "x"}],
            blocks=[{"line_ids": [1]}],
        )
        assert parse(data).lines[0].id == 1

    def test_clockwise_input_normalized_to_ccw(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[10, 40], [110, 41], [110, 10], [10, 11]], "text": "x"}],
            blocks=[{"line_ids": [1]}],
        )
        doc = parse(data)
        assert shoelace_area(doc.lines[0].box.vertices) > 0

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(DocumentError, match="'image_width' must be a positive integer that fits a float"):
            parse(doc_dict(image_width=0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, True, 100.0], ids=["nan", "inf", "bool", "float"])
    @pytest.mark.parametrize("key", ["image_width", "image_height"])
    def test_non_int_dims_rejected_by_validate_as_by_parse(self, key, bad):
        # a NaN width would let every box bound check pass
        with pytest.raises(DocumentError) as parsed:
            parse(doc_dict(**{key: bad}))
        doc = Document(**{"image_width": 800, "image_height": 600, key: bad})
        with pytest.raises(DocumentError) as validated:
            validate_document(doc)
        assert validated.value.reason == parsed.value.reason == f"{key!r} must be an integer, got {bad!r}"

    def test_error_corpus_never_crashes(self):
        fixtures = [
            "",
            "[]",
            "{}",
            '{"image_width": 10}',
            '{"image_width": "x", "image_height": 5, "lines": [], "blocks": []}',
            '{"image_width": 10, "image_height": 5, "lines": [5], "blocks": []}',
            '{"image_width": 10, "image_height": 5, "lines": [], "blocks": [{}]}',
            '{"image_width": 10, "image_height": 5, "lines": [], "blocks": [7]}',
            '{"image_width": 10, "image_height": 5, "lines": [{"id": 1}], "blocks": []}',
            '{"image_width": 10, "image_height": 5, "lines": [{"id": 1, "vertices": [[0,0]]}], "blocks": []}',
            '{"image_width": 10, "image_height": 5, "lines": [], "blocks": [{"line_ids": "no"}]}',
            '{"image_width": 10, "image_height": 5, "lines": [], "blocks": [{"line_ids": []}]}',
            b"\xff\xfe garbage",
        ]
        for raw in fixtures:
            with pytest.raises(DocumentError):
                parse_document(raw)


class TestHostileInput:
    @pytest.mark.parametrize("raw", list(HOSTILE_DOCUMENTS.values()), ids=list(HOSTILE_DOCUMENTS))
    def test_raises_document_error(self, raw):
        with pytest.raises(DocumentError):
            parse_document(raw)

    # JSON tokens for one value slot, including numbers beyond a float or
    # beyond the interpreter's integer-string limit and nested arrays.
    _TOKENS = st.one_of(
        st.integers(-(10**6), 10**6).map(str),
        st.integers(300, 5000).map(lambda n: "9" * n),
        st.floats().map(json.dumps),
        st.text(max_size=6).map(json.dumps),
        st.integers(1, 3000).map(lambda n: "[" * n + "]" * n),
        st.sampled_from(["null", "true", "{}", '[[0, 0], [1, 0], [1, 1], [0, 1]]', "1e400"]),
    )

    @staticmethod
    def _document_text(w, h, lid, x, y, conf, text, block_id):
        return (
            f'{{"image_width": {w}, "image_height": {h}, "lines": [{{"id": {lid}, '
            f'"vertices": [[{x}, {y}], [110, 10], [110, 40], [10, 40]], "text": {text}, '
            f'"confidence": {conf}}}], "blocks": [{{"line_ids": [{block_id}]}}]}}'
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.builds(_document_text.__func__, *[_TOKENS] * 8),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
                lambda inner: st.lists(inner, max_size=4)
                | st.dictionaries(
                    st.sampled_from(["image_width", "image_height", "lines", "blocks", "id",
                                     "vertices", "text", "confidence", "line_ids"]),
                    inner,
                    max_size=5,
                ),
                max_leaves=30,
            ).map(json.dumps),
            st.text(max_size=40),
            st.binary(max_size=40),
        )
    )
    def test_parse_raises_only_document_error(self, raw):
        try:
            parse_document(raw)
        except DocumentError:
            pass


def _quads(coord):
    """Random, convex, clockwise, collinear, bowtie and dented quads."""
    point = st.tuples(coord, coord)
    rect = st.tuples(coord, coord, coord, coord).map(
        lambda r: [(r[0], r[1]), (r[2], r[1]), (r[2], r[3]), (r[0], r[3])]
    )
    dented = st.tuples(point, point, point).map(  # a triangle and (about) its centroid
        lambda t: [t[0], t[1], tuple(sum(c) // 3 for c in zip(*t)), t[2]]
    )
    shape = st.one_of(st.lists(point, min_size=4, max_size=4), rect, dented)
    arrange = st.sampled_from([
        lambda q: q,
        lambda q: q[::-1],  # clockwise
        lambda q: [q[0], q[2], q[1], q[3]],  # bowtie
        lambda q: q[1:] + q[:1],
    ])
    return st.builds(lambda q, f: f(q), shape, arrange)


def _collinear(coord):
    steps = st.lists(st.integers(-3, 3), min_size=4, max_size=4)
    return st.tuples(coord, coord, coord, coord, steps).map(
        lambda t: [(t[0] + k * t[2], t[1] + k * t[3]) for k in t[4]]
    )


def _kites(size):
    """Vertex 2 just off the chord from vertex 1 to 3: near the convexity allowance."""
    return st.builds(
        lambda n, off: [(0.0, 0.0), (n, 0.0), (n / 2 + off * n, n / 2 + off * n), (0.0, n)],
        size,
        st.floats(-1e-8, 1e-8),
    )


def _exact_area(points) -> Fraction:
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])) / 2


_INT = st.integers(-(2**20), 2**20)


class TestQuadMatchesReference:
    """One pass of corner cross products decides as the shoelace/finite/convex trio."""

    @settings(max_examples=1500, deadline=None)
    @given(st.one_of(_quads(_INT), _collinear(st.integers(-(2**18), 2**18))))
    def test_integer_quads(self, points):
        # integers of at most 21 bits: every product and sum is exact in floats
        assert quad_decision(points) == reference_quad(points)

    @settings(max_examples=1500, deadline=None)
    @given(st.one_of(_quads(st.floats(-1e6, 1e6, allow_nan=False)), _kites(st.floats(1.0, 1e6))))
    def test_float_quads_clear_of_rounding(self, points):
        scale = max(abs(c) for p in points for c in p)
        assume(abs(_exact_area(points)) > Fraction(1e-9) * Fraction(scale) ** 2)
        assert quad_decision(points) == reference_quad(points)

    @settings(max_examples=300, deadline=None)
    @given(_quads(_INT), st.integers(0, 7), st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_vertex(self, points, slot, bad):
        coords = [c for p in points for c in p]
        coords[slot] = bad
        points = list(zip(coords[::2], coords[1::2]))
        assert quad_decision(points) == reference_quad(points) == ("non-finite", None)


# The loop Quad, kept as the reference for the unrolled one: crosses from a
# loop over the vertices, their ``sum``, a list permutation on a flip, and
# ``quad_bounds``.


def _corner_crosses(vertices) -> list[float]:
    """Cross product of the edges meeting at each vertex; the four sum to 4x the
    signed area (positive counter-clockwise), not finite if any coordinate is."""
    (px, py), (qx, qy) = vertices[-2], vertices[-1]
    crosses = []
    for rx, ry in vertices:
        crosses.append((qx - px) * (ry - qy) - (qy - py) * (rx - qx))
        px, py, qx, qy = qx, qy, rx, ry
    return crosses


def loop_quad(pts):
    """(vertices, bounds) of ``Quad(pts)`` as the loop decided, or its ValueError."""
    if len(pts) != 4:
        raise ValueError(f"quad needs 4 vertices, got {len(pts)}")
    crosses = _corner_crosses(pts)
    if sum(crosses) < 0:
        pts = (pts[0], pts[3], pts[2], pts[1])
        crosses = [-crosses[2], -crosses[1], -crosses[0], -crosses[3]]
    area4 = sum(crosses)
    if not math.isfinite(area4):
        raise ValueError(f"non-finite vertex in {pts}")
    if area4 <= 0:
        raise ValueError("quad has zero area (collinear, repeated or crossing vertices)")
    if min(crosses) < -1e-9 * max(crosses):
        raise ValueError("quad is not convex")
    return pts, quad_bounds(pts)


def loop_from_points(points):
    if not {int, float}.issuperset(map(type, chain.from_iterable(points))):
        raise ValueError(f"vertex coordinates must be numbers, got {points!r}")
    return loop_quad(tuple((float(x), float(y)) for x, y in points))


def two_pass_quad(points):
    """``Quad.from_points`` as it was when the crosses were computed twice:
    once for the winding flip, once more on the vertices kept."""
    pts = tuple((float(x), float(y)) for x, y in points)
    if len(pts) == 4 and sum(_corner_crosses(pts)) < 0:
        pts = (pts[0], pts[3], pts[2], pts[1])
    if len(pts) != 4:
        raise ValueError(f"quad needs 4 vertices, got {len(pts)}")
    crosses = _corner_crosses(pts)
    area4 = sum(crosses)
    if not math.isfinite(area4):
        raise ValueError(f"non-finite vertex in {pts}")
    if area4 <= 0:
        raise ValueError("quad has zero area (collinear, repeated or crossing vertices)")
    if min(crosses) < -1e-9 * max(crosses):
        raise ValueError("quad is not convex")
    return pts


def outcome(build, points):
    """("ok", repr of the result) or ("error", message); repr tells -0.0 from 0.0."""
    try:
        return "ok", repr(build(points))
    except ValueError as e:
        return "error", str(e)


def unrolled(quad: Quad):
    return quad.vertices, quad.bounds


def _with_bad_coordinate(points, slot, bad):
    coords = [c for p in points for c in p]
    coords[slot % len(coords)] = bad
    return list(zip(coords[::2], coords[1::2]))


_ANY_QUAD = st.one_of(
    _quads(_INT),
    _quads(st.floats(-1e6, 1e6, allow_nan=False)),
    _collinear(st.integers(-(2**18), 2**18)),
    _kites(st.floats(1.0, 1e6)),
    st.builds(
        _with_bad_coordinate,
        _quads(_INT),
        st.integers(0, 7),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    ),
    st.lists(st.tuples(_INT, _INT), max_size=6),
)


class TestQuadMatchesTwoPass:
    """Crosses computed once, unrolled, and permuted on a flip, decide as two
    passes did, and give the loop's vertices and bounds bit for bit."""

    @settings(max_examples=1500, deadline=None)
    @given(_ANY_QUAD)
    def test_from_points(self, points):
        unrolled_outcome = outcome(lambda q: unrolled(Quad.from_points(q)), points)
        assert unrolled_outcome == outcome(loop_from_points, points)
        assert outcome(lambda q: Quad.from_points(q).vertices, points) == outcome(two_pass_quad, points)

    @settings(max_examples=500, deadline=None)
    @given(_ANY_QUAD)
    def test_direct_construction(self, points):
        # Quad(...) follows the winding rule of from_points: clockwise input is reversed
        pts = tuple((float(x), float(y)) for x, y in points)
        assert outcome(lambda q: unrolled(Quad(q)), pts) == outcome(loop_quad, pts)
        assert outcome(lambda q: Quad(q).vertices, pts) == outcome(two_pass_quad, pts)

    @settings(max_examples=300, deadline=None)
    @given(_quads(_INT), st.integers(0, 7), st.sampled_from([True, False, "10", None, [1.0], 1j]))
    def test_odd_typed_coordinate(self, points, slot, bad):
        points = _with_bad_coordinate(points, slot, bad)
        assert outcome(lambda q: unrolled(Quad.from_points(q)), points) == outcome(loop_from_points, points)


class TestQuadBounds:
    """``Quad.bounds`` is the axis-aligned box of the vertices, and only a cache."""

    @settings(max_examples=1000, deadline=None)
    @given(_ANY_QUAD)
    def test_bounds_of_every_accepted_quad(self, points):
        pts = tuple((float(x), float(y)) for x, y in points)
        try:
            quad = Quad(pts)
        except ValueError:
            return
        assert quad.bounds == quad_bounds(pts) == quad_bounds(quad.vertices)
        assert type(quad.bounds) is AlignedRect
        assert repr(quad.bounds) == repr(loop_quad(pts)[1])
        twin = Quad(quad.vertices)
        object.__setattr__(twin, "bounds", AlignedRect(0, 0, 1, 1))
        assert twin == quad and hash(twin) == hash(quad)
        assert repr(twin) == repr(quad) == f"Quad(vertices={quad.vertices!r})"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), min_size=4, max_size=4), st.floats(1, 1e6), st.floats(1, 1e6), st.booleans())
    def test_signed_zeros_kept(self, negative, w, h, clockwise):
        # -0.0 == 0.0 with other bits, and min and max keep the first of equals
        z = [-0.0 if neg else 0.0 for neg in negative]
        pts = ((z[0], z[1]), (w, z[2]), (w, h), (z[3], h))
        pts = pts[::-1] if clockwise else pts
        assert outcome(lambda q: unrolled(Quad(q)), pts) == outcome(loop_quad, pts)


# The parse path over the loop quad, kept as the reference: ``_parse_line``
# with the loop quad, then ``validate_document`` over the line bounds.  It
# returns a snapshot of what a Document holds, or raises.

_BAD_TEXT = re.compile(r"[\x00-\x1f\x7f\ud800-\udfff]")
_PARSE_ERRORS = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


def _reference_int(obj, key):
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"{key!r} must be an integer, got {v!r}")
    return v


def reference_line(obj):
    if not isinstance(obj, dict):
        raise ValueError("line must be an object")
    line_id = _reference_int(obj, "id")
    text = obj.get("text", "")
    confidence = obj.get("confidence")
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    if confidence is not None:
        if type(confidence) not in (int, float):
            raise ValueError("confidence must be a number")
        confidence = float(confidence)
    vertices, bounds = loop_from_points(obj["vertices"])
    if _BAD_TEXT.search(text):
        raise ValueError("control characters or lone surrogates")
    if confidence is not None and not 0.0 <= confidence <= 1.0:
        raise ValueError("confidence outside [0, 1]")
    return line_id, vertices, bounds, text, confidence


def reference_block(obj):
    if not isinstance(obj, dict):
        raise ValueError("block must be an object")
    line_ids = obj["line_ids"]
    if not isinstance(line_ids, list) or not {int}.issuperset(map(type, line_ids)):
        raise ValueError("line_ids must be a list of integers")
    text = obj.get("text")
    if text is not None and (not isinstance(text, str) or re.search(r"[\ud800-\udfff]", text)):
        raise ValueError("block text must be a string without lone surrogates")
    if not line_ids or len(set(line_ids)) != len(line_ids):
        raise ValueError("empty block or repeated ids")
    return tuple(line_ids), text


def reference_parse(raw: str):
    data = json.loads(raw)
    if not isinstance(data, dict):
        raise ValueError("top level must be a JSON object")
    width, height = _reference_int(data, "image_width"), _reference_int(data, "image_height")
    for key in ("lines", "blocks"):
        if not isinstance(data[key], list):
            raise ValueError(f"{key!r} must be a list")
    lines = tuple(reference_line(obj) for obj in data["lines"])
    blocks = tuple(reference_block(obj) for obj in data["blocks"])
    # validate_document
    if not (0 < width <= _MAX_DIMENSION and 0 < height <= _MAX_DIMENSION):
        raise ValueError("image dimensions must be positive integers that fit a float")
    seen_ids = set()
    for line_id, _, rect, _, _ in lines:
        if line_id in seen_ids:
            raise ValueError(f"duplicate line id {line_id}")
        seen_ids.add(line_id)
        if (rect.x_min < -5.0 or rect.y_min < -5.0
                or rect.x_max > width + 5.0 or rect.y_max > height + 5.0):
            raise ValueError("box leaves the image")
    claimed = set()
    for line_ids, _ in blocks:
        for lid in line_ids:
            if lid not in seen_ids or lid in claimed:
                raise ValueError(f"unknown or repeated line id {lid}")
            claimed.add(lid)
    return width, height, lines, blocks


def snapshot(doc: Document):
    lines = tuple(
        (line.id, line.box.vertices, line.box.bounds, line.text, line.recognizer_confidence)
        for line in doc.lines
    )
    return doc.image_width, doc.image_height, lines, tuple((b.line_ids, b.text) for b in doc.blocks)


_ODD_VALUES = st.sampled_from([True, None, "10", 1.5, math.nan, math.inf, -math.inf, 10**400, [], {}])
_COORDINATE = st.one_of(st.integers(-12, 130), st.floats(-12, 130), _ODD_VALUES)
_TEXT = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["EX\ud800IT", "\udfff", "a\nb", "tab\t", "ok \U0001f600", 7, None]),
)


@st.composite
def _bad_vertices(draw):
    """Clockwise, concave, collinear, crossing or empty boxes, any four
    points, 3 or 5 points, or not a list of points at all."""
    x, y = draw(st.integers(-10, 100)), draw(st.integers(-10, 100))
    w, h = draw(st.integers(0, 40)), draw(st.integers(0, 20))
    box = [[x, y], [x + w, y], [x + w, y + h], [x, y + h]]
    return draw(st.one_of(
        st.just(box[::-1]),
        st.just([box[0], box[2], box[1], box[3]]),
        st.just([box[0], box[1], [x + w / 2, y + h / 2], box[3]]),
        _quads(st.floats(-12, 130, allow_nan=False)),
        _collinear(st.integers(-5, 60)),
        st.lists(st.lists(_COORDINATE, min_size=2, max_size=2), min_size=3, max_size=5),
        _COORDINATE,
    ))


_PAGE = 120


@st.composite
def documents(draw):
    """A valid document on a 120x120 page, then at most one corruption: an
    odd-typed, NaN or infinite value, a bad quad, a duplicate id, a box off
    the page, a bad text, or a bad block."""
    lines = []
    for lid in draw(st.lists(st.integers(0, 50), max_size=6, unique=True)):
        x, y = draw(st.integers(-5, 90) | st.floats(-5, 90)), draw(st.integers(-5, 100) | st.floats(-5, 100))
        w, h = draw(st.integers(1, 30) | st.floats(1, 30)), draw(st.integers(1, 20) | st.floats(1, 20))
        box = [[x, y], [x + w, y], [x + w, y + h], [x, y + h]]
        text = draw(st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=4))
        line = {"id": lid, "vertices": box[::-1] if draw(st.booleans()) else box, "text": text}
        confidence = draw(st.none() | st.floats(0.0, 1.0))
        if confidence is not None:
            line["confidence"] = confidence
        lines.append(line)
    ids = draw(st.permutations([line["id"] for line in lines]))[: draw(st.integers(0, len(lines)))]
    blocks = []
    while ids:
        size = draw(st.integers(1, 3))
        block = {"line_ids": ids[:size]}
        if draw(st.booleans()):
            block["text"] = draw(st.text(max_size=6))
        blocks.append(block)
        ids = ids[size:]
    data = {"image_width": _PAGE, "image_height": _PAGE, "lines": lines, "blocks": blocks}

    corruption = draw(st.sampled_from(
        [None, "coordinate", "vertices", "id", "text", "confidence", "off page", "block", "dims", "key"]
    ))
    line = lines[draw(st.integers(0, len(lines) - 1))] if lines else {}
    if corruption == "coordinate" and line:
        line["vertices"][draw(st.integers(0, 3))][draw(st.integers(0, 1))] = draw(_COORDINATE)
    elif corruption == "vertices" and line:
        line["vertices"] = draw(_bad_vertices())
    elif corruption == "id" and line:
        line["id"] = draw(st.sampled_from([other["id"] for other in lines]) | _ODD_VALUES)
    elif corruption == "text" and line:
        line["text"] = draw(_TEXT)
    elif corruption == "confidence" and line:
        line["confidence"] = draw(st.floats(-0.5, 1.5) | _ODD_VALUES)
    elif corruption == "off page" and line:
        dx, dy = draw(st.sampled_from([(_PAGE, 0), (0, _PAGE), (-20, 0), (0, -20), (3, 3)]))
        line["vertices"] = [[x + dx, y + dy] for x, y in line["vertices"]]
    elif corruption == "block":
        blocks.append(draw(st.fixed_dictionaries(
            {"line_ids": st.lists(st.integers(0, 50), max_size=3) | _ODD_VALUES},
            optional={"text": _TEXT},
        )))
    elif corruption == "dims":
        data[draw(st.sampled_from(["image_width", "image_height"]))] = draw(st.integers(-1, 2) | _ODD_VALUES)
    elif corruption == "key":
        target = draw(st.sampled_from(["doc", "line"])) if line else "doc"
        obj = data if target == "doc" else line
        del obj[draw(st.sampled_from(sorted(obj)))]
    return json.dumps(data)


class TestParseMatchesReference:
    """``parse_document`` and the reference parse path agree on every document:
    the same lines, vertices and bounds bit for bit, or both reject it."""

    @staticmethod
    def _both(raw):
        try:
            expected = ("ok", repr(reference_parse(raw)))
        except _PARSE_ERRORS:
            expected = ("rejected", None)
        try:
            doc = parse_document(raw)
        except DocumentError:
            return ("rejected", None), expected
        assert all(type(line.box.bounds) is AlignedRect for line in doc.lines)
        again = parse_document(serialize_document(doc))
        assert again == doc and repr(snapshot(again)) == repr(snapshot(doc))
        return ("ok", repr(snapshot(doc))), expected

    @settings(max_examples=1500, deadline=None)
    @given(documents())
    def test_same_document_or_both_reject(self, raw):
        got, expected = self._both(raw)
        assert got == expected

    def test_corpus_reaches_both_outcomes(self):
        # the strategies above are not vacuous: some documents parse, some do not
        outcomes = set()

        @settings(max_examples=200, deadline=None, database=None)
        @given(documents())
        def collect(raw):
            outcomes.add(self._both(raw)[0][0])

        collect()
        assert outcomes == {"ok", "rejected"}


class TestText:
    def test_paired_surrogate_escape_accepted(self):
        data = doc_dict(blocks=[{"line_ids": [1], "text": "EXIT \U0001f600"}])
        data["lines"][0]["text"] = "EXIT \U0001f600"
        raw = json.dumps(data)  # ASCII, so each emoji is the escape pair below
        assert raw.count("\\ud83d\\ude00") == 2
        doc = parse_document(raw)
        assert doc.lines[0].text == doc.blocks[0].text == "EXIT \U0001f600"
        assert parse_document(serialize_document(doc)) == doc

    def test_block_text_may_span_lines(self):
        # LLM replies may hold line breaks, so ordered block texts can too
        doc = parse(doc_dict(blocks=[{"line_ids": [1], "text": "EX\nIT"}]))
        assert parse_document(serialize_document(doc)) == doc


class TestSerialize:
    def test_empty_blocks_round_trip(self):
        doc = parse(doc_dict(blocks=[]))
        again = parse_document(serialize_document(doc))
        assert again == doc
        assert again.blocks == ()

    def test_unicode_survives_byte_exact(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[0, 0], [99, 0], [99, 20], [0, 20]], "text": "ÉCOLE"}],
            blocks=[{"line_ids": [1], "text": "ÉCOLE"}],
        )
        doc = parse(data)
        payload = serialize_document(doc)
        assert "ÉCOLE".encode("utf-8") in payload
        assert parse_document(payload) == doc

    def test_serialization_is_deterministic(self):
        doc = parse(doc_dict())
        assert serialize_document(doc) == serialize_document(doc)

    def test_ground_truth_round_trip_keeps_gold_order(self):
        data = doc_dict(
            lines=[
                {"id": 2, "vertices": [[0, 0], [50, 0], [50, 10], [0, 10]], "text": "two"},
                {"id": 1, "vertices": [[0, 20], [50, 20], [50, 30], [0, 30]], "text": "one"},
            ],
            blocks=[{"line_ids": [2, 1], "text": "two one"}],
        )
        doc = parse(data, "ground_truth")
        again = parse_document(serialize_document(doc), "ground_truth")
        assert again == doc


class TestTypes:
    def test_quad_needs_four_vertices(self):
        with pytest.raises(ValueError):
            Quad(((0, 0), (1, 0), (1, 1)))

    @pytest.mark.parametrize("bad, slot", [(True, 0), ("10", 3), (None, 6)], ids=["bool", "string", "none"])
    def test_from_points_rejects_non_number_coordinates(self, bad, slot):
        coords = [0, 0, 10, 0, 10, 5, 0, 5]
        coords[slot] = bad
        with pytest.raises(ValueError, match="vertex coordinates must be numbers"):
            Quad.from_points(list(zip(coords[::2], coords[1::2])))

    def test_block_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Block(line_ids=(1, 1))
        with pytest.raises(ValueError):
            Block(line_ids=())

    def test_line_confidence_bounds(self):
        box = Quad.from_points([[0, 0], [10, 0], [10, 5], [0, 5]])
        with pytest.raises(ValueError):
            Line(id=1, box=box, text="ok", recognizer_confidence=1.5)

    def test_ungrouped_line_ids(self):
        box = Quad.from_points([[0, 0], [10, 0], [10, 5], [0, 5]])
        box2 = Quad.from_points([[0, 10], [10, 10], [10, 15], [0, 15]])
        doc = Document(
            image_width=100,
            image_height=100,
            lines=(Line(1, box, "a"), Line(2, box2, "b")),
            blocks=(Block((1,)),),
        )
        validate_document(doc)
        assert doc.ungrouped_line_ids() == [2]
        assert doc.line_by_id(2).text == "b"
        with pytest.raises(KeyError, match="unknown line id 99"):
            doc.line_by_id(99)

    def test_line_by_id_first_of_repeated_ids_wins(self):
        box = Quad.from_points([[0, 0], [10, 0], [10, 5], [0, 5]])
        doc = Document(image_width=100, image_height=100, lines=(Line(1, box, "first"), Line(1, box, "second")))
        assert doc.line_by_id(1).text == "first"

    def test_line_by_id_follows_replaced_lines(self):
        box = Quad.from_points([[0, 0], [10, 0], [10, 5], [0, 5]])
        doc = Document(image_width=100, image_height=100, lines=(Line(1, box, "old"),))
        assert doc.line_by_id(1).text == "old"
        new = replace(doc, lines=(Line(1, box, "new"),))
        assert new.line_by_id(1).text == "new"
        assert doc.line_by_id(1).text == "old"
        assert doc == Document(image_width=100, image_height=100, lines=(Line(1, box, "old"),))


class TestLine:
    """A line is an immutable 4-tuple (id, box, text, recognizer_confidence)
    that repeats what the dataclass it replaced showed: its repr and hash."""

    BOX = Quad.from_points([[0, 0], [10, 0], [10, 5], [0, 5]])

    def test_is_a_tuple_of_its_fields(self):
        line = Line(1, self.BOX, "EXIT", 0.5)
        line_id, box, text, confidence = line
        assert (line_id, box, text, confidence) == (line.id, line.box, line.text, line.recognizer_confidence)
        assert len(line) == 4 and line[0] == 1 and line[2] == "EXIT" and line[-1] == 0.5
        assert line == (1, self.BOX, "EXIT", 0.5) and tuple(line) == (1, self.BOX, "EXIT", 0.5)

    def test_hash_is_the_hash_of_its_fields(self):
        # a frozen dataclass hashed the tuple of its fields too
        line = Line(1, self.BOX, "EXIT", 0.5)
        assert hash(line) == hash((1, self.BOX, "EXIT", 0.5))
        assert {line: 1}[Line(1, self.BOX, "EXIT", 0.5)] == 1

    def test_repr_is_the_dataclass_repr(self):
        assert repr(Line(1, self.BOX, "EXIT", 0.5)) == (
            "Line(id=1, box=Quad(vertices=((0.0, 0.0), (10.0, 0.0), (10.0, 5.0), (0.0, 5.0))), "
            "text='EXIT', recognizer_confidence=0.5)"
        )

    def test_keyword_construction_and_defaults(self):
        line = Line(id=1, box=self.BOX, text="ok")
        assert line == Line(1, self.BOX, "ok") == (1, self.BOX, "ok", None)
        assert Line(2, self.BOX).text == ""

    def test_pickle_copy_and_deepcopy_check_again(self):
        line = Line(1, self.BOX, "EXIT", 0.5)
        for again in (pickle.loads(pickle.dumps(line)), copy.copy(line), copy.deepcopy(line)):
            assert type(again) is Line and again == line and hash(again) == hash(line)
        bad = line._replace(text="EX\x07IT")  # _replace skips the checks
        for clone in (lambda: pickle.loads(pickle.dumps(bad)), lambda: copy.copy(bad), lambda: copy.deepcopy(bad)):
            with pytest.raises(ValueError, match="control characters"):
                clone()

    def test_fields_cannot_be_assigned(self):
        line = Line(1, self.BOX, "EXIT")
        for name in ("id", "box", "text", "recognizer_confidence"):
            with pytest.raises(AttributeError):
                setattr(line, name, None)
        with pytest.raises(AttributeError):
            line.label = "x"
        assert line == (1, self.BOX, "EXIT", None)


def _box(k: int) -> Quad:
    return Quad.from_points([[0, 10 * k], [50, 10 * k], [50, 10 * k + 5], [0, 10 * k + 5]])


def round_trip_outcome(build):
    """How an in-memory document ends: its constructor raises ValueError,
    ``validate_document`` raises DocumentError, or it round-trips through
    JSON to an equal document with an equal snapshot."""
    try:
        doc = build()
    except DocumentError:
        raise
    except ValueError:
        return "constructor"
    try:
        validate_document(doc)
    except DocumentError:
        return "validate"
    again = parse_document(serialize_document(doc))
    assert again == doc and repr(snapshot(again)) == repr(snapshot(doc))
    return "round-trips"


_ODD_ID = st.integers(0, 4) | st.sampled_from([1.5, True, False, 1.0, 0.0])
_ODD_CONFIDENCE = st.sampled_from([None, 0, 1, 0.25, 1.0, True, False, 1.5, math.nan, 10**400, "0.5"])
_ODD_BLOCK_TEXT = st.sampled_from([None, "", "ok", "EX\nIT", "\U0001f600", "\ud800", "a\udfffb", 7, b"ok"])
_ODD_DIMENSION = st.sampled_from([100, 100, 100, 1, 100.0, True, 10**400])


@st.composite
def in_memory_documents(draw):
    """Arguments for a Document built in memory from odd ids, confidences,
    block ids, block texts and image dimensions."""
    lines = [
        (draw(_ODD_ID), k, draw(st.sampled_from(["", "EXIT", "a\nb", "\ud800"])), draw(_ODD_CONFIDENCE))
        for k in range(draw(st.integers(0, 4)))
    ]
    known = [line_id for line_id, _, _, _ in lines]
    block_id = st.sampled_from(known) | _ODD_ID if known else _ODD_ID
    blocks = draw(st.lists(st.tuples(st.lists(block_id, max_size=3), _ODD_BLOCK_TEXT), max_size=3))
    return draw(_ODD_DIMENSION), draw(_ODD_DIMENSION), lines, blocks


def build_document(width, height, lines, blocks):
    return Document(
        width,
        height,
        tuple(Line(line_id, _box(k), text, confidence) for line_id, k, text, confidence in lines),
        tuple(Block(tuple(ids), text) for ids, text in blocks),
    )


class TestValidatedDocumentsRoundTrip:
    """A document that passes ``validate_document`` serializes and parses back
    to itself: no rule is checked only by the parser."""

    @settings(max_examples=1500, deadline=None)
    @given(in_memory_documents())
    @example((100, 100, [(1.5, 0, "x", None)], [((1.5,), None)]))
    @example((100, 100, [(True, 0, "x", None)], [((True,), None)]))
    @example((100, 100, [(1, 0, "x", True)], []))
    @example((100, 100, [(1, 0, "x", None)], [((1,), "EX\ud800IT")]))
    @example((10**5000, 1, [], []))
    @example((-(10**5000), 1, [], []))
    def test_constructor_or_validate_rejects_or_it_round_trips(self, args):
        round_trip_outcome(lambda: build_document(*args))

    def test_corpus_reaches_every_outcome(self):
        outcomes = set()

        @settings(max_examples=300, deadline=None, database=None)
        @given(in_memory_documents())
        def collect(args):
            outcomes.add(round_trip_outcome(lambda: build_document(*args)))

        collect()
        assert outcomes == {"constructor", "validate", "round-trips"}

    @pytest.mark.parametrize(
        "lines, blocks, reason",
        [
            ([(1.5, 0, "x", None)], [((1.5,), None)], "'id' must be an integer, got 1.5"),
            ([(True, 0, "x", None)], [((True,), None)], "'id' must be an integer, got True"),
            ([(1, 0, "x", True)], [], "confidence must be a number, got True"),
        ],
        ids=["float-id", "bool-id", "bool-confidence"],
    )
    def test_line_field_types_are_checked_by_the_constructor(self, lines, blocks, reason):
        with pytest.raises(ValueError) as err:
            build_document(100, 100, lines, blocks)
        assert str(err.value) == reason
        # the parser reports the same rule for the same JSON
        data = doc_dict(lines=[{"id": 1, "vertices": [[0, 0], [50, 0], [50, 5], [0, 5]], "text": "x"}], blocks=[])
        line_id, _, _, confidence = lines[0]
        data["lines"][0].update(id=line_id, confidence=confidence)
        with pytest.raises(DocumentError) as parsed:
            parse(data)
        assert parsed.value.reason == f"lines[0]: {reason}"

    @pytest.mark.parametrize(
        "ids, text, reason",
        [
            ((1,), "EX\ud800IT", "block 0: text must be a string without lone surrogates"),
            ((1,), 7, "block 0: text must be a string without lone surrogates"),
            ((1.0,), None, "block 0: line ids must be integers, got 1.0"),
            ((True,), None, "block 0: line ids must be integers, got True"),
        ],
        ids=["lone-surrogate-text", "int-text", "float-id", "bool-id"],
    )
    def test_block_rules_are_checked_by_validate(self, ids, text, reason):
        doc = build_document(100, 100, [(1, 0, "x", None)], [(ids, text)])
        with pytest.raises(DocumentError) as err:
            validate_document(doc)
        assert err.value.reason == reason

    def test_integer_confidence_is_stored_as_a_float(self):
        line = Line(1, _box(0), "x", 1)
        assert type(line.recognizer_confidence) is float and repr(line.recognizer_confidence) == "1.0"
        assert round_trip_outcome(lambda: Document(100, 100, (line,))) == "round-trips"

    def test_confidence_too_large_for_a_float_is_out_of_range(self):
        with pytest.raises(ValueError, match=re.escape("line 1: confidence outside [0, 1]")):
            Line(1, _box(0), "x", 10**400)


class TestHugeDimensions:
    """One rule for each image dimension: a positive integer no larger than the
    largest float, on a page with or without lines; the error names the field."""

    @pytest.mark.parametrize("lines", [True, False], ids=["lines", "bare"])
    @pytest.mark.parametrize(
        "value",
        [0, -1, _MAX_DIMENSION + 1, 10**400, 10**5000, -(10**5000)],
        ids=["0", "-1", "max+1", "1e400", "1e5000", "neg-1e5000"],
    )
    @pytest.mark.parametrize("key", ["image_width", "image_height"], ids=["width", "height"])
    def test_out_of_range_is_named(self, key, value, lines):
        reason = f"{key!r} must be a positive integer that fits a float"
        line = (Line(1, _box(0)),) if lines else ()
        doc = Document(**{"image_width": 100, "image_height": 100, key: value, "lines": line})
        with pytest.raises(DocumentError) as validated:
            validate_document(doc)
        assert validated.value.reason == reason
        if abs(value) <= 10**400:  # 5,000 digits are more than json.dumps can write
            with pytest.raises(DocumentError) as parsed:
                parse(doc_dict(**{key: value}, **({} if lines else NO_LINES)))
            assert parsed.value.reason == reason

    @pytest.mark.parametrize("lines", [True, False], ids=["lines", "bare"])
    @pytest.mark.parametrize("key", ["image_width", "image_height"], ids=["width", "height"])
    def test_largest_float_accepted_and_round_trips(self, key, lines):
        doc = parse(doc_dict(**{key: _MAX_DIMENSION}, **({} if lines else NO_LINES)))
        assert getattr(doc, key) == _MAX_DIMENSION
        assert parse_document(serialize_document(doc)) == doc
