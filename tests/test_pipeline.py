"""Pipeline orchestration tests: recognition planning, ordering, fallbacks."""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
import tempfile
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import pytest
import requests
from conftest import StubHandler, make_line, sign_doc, synthetic_gt
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockspot import pipeline
from blockspot.geometry import (
    RECOGNIZER_ASPECT,
    AlignedRect,
    GeometryError,
    quad_bounds,
    rotate_point,
    snap_rotation,
    split_for_recognizer,
)
from blockspot.llm import (
    MAX_IN_FLIGHT,
    HttpBackend,
    LlmConfig,
    LlmRefusedError,
    LlmReply,
    LlmTransientError,
    ReplayBackend,
    ScriptedBackend,
    TranscriptRecorder,
)
from blockspot.model import Block, Document, Line, Quad
from blockspot.pipeline import (
    EchoRecognizer,
    OrderingOutcome,
    PipelineError,
    RecognizerRequest,
    ScriptedRecognizer,
    Strategy,
    block_key,
    build_block_prompt,
    order_block,
    plan_recognition,
    recognize_document,
    run,
)


def config(**overrides):
    defaults = dict(api_key="k", retry_backoff=0.0)
    defaults.update(overrides)
    return LlmConfig(**defaults)


class CountingBackend(ScriptedBackend):
    def __init__(self, replies):
        super().__init__(replies)
        self.keys_seen = []
        self.prompts_seen = []

    def send(self, prompt, cfg, key):
        self.keys_seen.append(key)
        self.prompts_seen.append(prompt)
        return super().send(prompt, cfg, key)


class FaultySession:
    """Stands in for ``requests.Session``: every post ends in ``fault()``."""

    def __init__(self, fault):
        self.fault = fault
        self.posts = 0

    def post(self, *args, **kwargs):
        self.posts += 1
        return self.fault()


class Gathering:
    """Holds each send until ``target`` are in flight (or 10 s pass)."""

    def __init__(self, target):
        self.target = target
        self.in_flight = 0
        self.peak = 0
        self.cond = threading.Condition()

    def send(self, prompt, cfg, key):
        with self.cond:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.cond.notify_all()
            self.cond.wait_for(lambda: self.peak >= self.target, timeout=10)
            self.in_flight -= 1
        return LlmReply(text="reply")


class NeverStarts:
    """Stands in for the shared helper threads: no submitted helper starts."""

    def __init__(self):
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return Future()


@pytest.fixture
def ordering_threads(monkeypatch):
    """``use(n)`` has the caller and ``n - 1`` helper threads order a run."""
    pools = []

    def use(n):
        if n == 1:
            pool = NeverStarts()
        else:
            pool = ThreadPoolExecutor(n - 1)
            pools.append(pool)
        monkeypatch.setattr(pipeline, "_HELPERS", pool)

    yield use
    for pool in pools:
        pool.shutdown()


def cut_off_body():
    raise requests.exceptions.ChunkedEncodingError("Connection broken: IncompleteRead")


def ok_response(body: bytes) -> requests.Response:
    response = requests.Response()
    response.status_code = 200
    response._content = body
    return response


def list_content():
    """A 200 reply whose content is a list of parts, not a string."""
    parts = [{"type": "text", "text": "20 REASONS TO LOVE CYCLING"}]
    return ok_response(
        json.dumps({"choices": [{"message": {"content": parts}, "finish_reason": "stop"}]}).encode()
    )


def nested_body():
    """A 200 reply nested too deeply for the JSON decoder to recurse through."""
    return ok_response(b"[" * 100_000 + b"]" * 100_000)


class TestPlanRecognition:
    def test_wide_line_split_into_five(self):
        doc = Document(
            image_width=700,
            image_height=100,
            lines=(make_line(4, 10, 30, 650, 62, "wide"),),
        )
        plans = plan_recognition(doc)
        assert len(plans) == 1
        req = plans[0]
        assert req.line_id == 4
        assert req.rotation == pytest.approx(0.0, abs=1e-9)
        assert len(req.parts) == 5
        assert req.parts[0].x_min == req.crop.x_min
        assert req.parts[-1].x_max == req.crop.x_max

    def test_rotated_line_snaps_back(self):
        quad = Quad.from_points(
            [rotate_point(p, 30.0) for p in ((100, 100), (300, 100), (300, 140), (100, 140))]
        )
        doc = Document(
            image_width=500,
            image_height=500,
            lines=(Line(id=1, box=quad, text="tilted"),),
        )
        plans = plan_recognition(doc)
        assert plans[0].rotation == pytest.approx(-30.0, abs=1e-9)

    def test_empty_document(self):
        assert plan_recognition(Document(image_width=10, image_height=10)) == []

    def test_geometry_error_names_line(self):
        thin = Quad.from_points([[0, 0], [10, 0], [10, 0.2], [0, 0.2]])
        doc = Document(image_width=20, image_height=20, lines=(Line(id=7, box=thin),))
        with pytest.raises(GeometryError, match="line 7"):
            plan_recognition(doc)


def loop_snap_rotation(vertices):
    """Reference for ``snap_rotation``: an angle for every edge, in index order."""
    n = len(vertices)
    best_angle = None
    best_len = 0.0
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        dx, dy = x1 - x0, y1 - y0
        length = math.hypot(dx, dy)
        if length < 1e-9:
            continue
        angle = math.degrees(math.atan2(dy, dx))
        if angle <= -90.0:
            angle += 180.0
        elif angle > 90.0:
            angle -= 180.0
        better = length > best_len + 1e-9
        if not better and abs(length - best_len) <= 1e-9 and best_angle is not None:
            better = (abs(angle), -angle) < (abs(best_angle), -best_angle)
        if better or best_angle is None:
            best_len = length
            best_angle = angle
    if best_angle is None:
        raise GeometryError("degenerate quad: all edges have zero length")
    if abs(best_angle) <= 45.0:
        return -best_angle
    return math.copysign(90.0, best_angle) - best_angle


def loop_split(rect):
    """Reference for ``split_for_recognizer``: every part through the constructor."""
    n = max(1, math.ceil(rect.width / (rect.height * RECOGNIZER_ASPECT) - 1e-12))
    if n == 1:
        return [rect]
    edges = [rect.x_min + rect.width * i / n for i in range(n)]
    edges.append(rect.x_max)
    return [AlignedRect(edges[i], rect.y_min, edges[i + 1], rect.y_max) for i in range(n)]


def reference_plan(doc):
    """Reference for ``plan_recognition``: every crop rotates every vertex."""
    requests = []
    for line in doc.lines:
        try:
            rotation = loop_snap_rotation(line.box.vertices)
            crop = quad_bounds([rotate_point(p, rotation) for p in line.box.vertices])
            if crop.width < 1.0 - 1e-9 or crop.height < 1.0 - 1e-9:
                raise GeometryError(f"crop smaller than one pixel: {crop}")
            parts = tuple(loop_split(crop))
        except GeometryError as e:
            raise GeometryError(f"line {line.id}: {e}") from e
        requests.append(RecognizerRequest(line.id, rotation, crop, parts))
    return requests


def outcome(call):
    """("ok", repr of the result) or the error; repr tells -0.0 from 0.0."""
    try:
        return "ok", repr(call())
    except GeometryError as e:
        return "GeometryError", str(e)


_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def plan_quads(draw):
    """Upright, vertical, rotated, sub-pixel and huge-coordinate line boxes;
    a zero coordinate takes either sign, drawn per vertex."""
    scale = draw(st.sampled_from([1.0, 1.0, 1e6, 1e17]))  # edges collapse near 1e17
    x = draw(st.one_of(_ZERO, st.floats(-1e3, 1e3))) * scale
    y = draw(st.one_of(_ZERO, st.floats(-1e3, 1e3))) * scale
    w, h = draw(st.floats(0.2, 400.0)), draw(st.floats(0.2, 100.0))  # below 1: sub-pixel
    if draw(st.booleans()):
        w, h = h, w  # vertical
    corners = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
    angle = draw(st.one_of(st.sampled_from([0.0, 90.0, -90.0, 45.0]), st.floats(-90.0, 90.0)))
    if angle:
        corners = [rotate_point((px - x, py - y), angle) for px, py in corners]
        corners = [(px + x, py + y) for px, py in corners]
    corners = [(draw(_ZERO) if px == 0 else px, draw(_ZERO) if py == 0 else py) for px, py in corners]
    try:
        return Quad(tuple(corners))
    except ValueError:  # rounding at a huge scale left no valid quad
        assume(False)


class TestPlanMatchesLoopReference:
    """The cheap plan gives the reference's requests and errors exactly."""

    @settings(max_examples=600, deadline=None)
    @given(st.lists(plan_quads(), min_size=1, max_size=3))
    def test_same_requests_and_errors(self, quads):
        lines = tuple(Line(id=i, box=q) for i, q in enumerate(quads))
        doc = Document(image_width=10, image_height=10, lines=lines)
        assert outcome(lambda: plan_recognition(doc)) == outcome(lambda: reference_plan(doc))

    @settings(max_examples=600, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)) | st.tuples(_ZERO, st.floats(-5, 5)),
                    max_size=6))
    def test_snap_rotation_on_any_vertex_count(self, vertices):
        # small integer grids give many equally long edges, so the tie rule decides
        assert outcome(lambda: snap_rotation(vertices)) == outcome(lambda: loop_snap_rotation(vertices))

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([1.0, 1e6, 1e16, 1e17, 1e18]), st.floats(-2.0, 2.0),
           st.floats(1.0, 400.0), st.floats(1.0, 50.0))
    def test_split_parts_and_errors(self, scale, x, width, height):
        x_min = x * scale
        assume(x_min < x_min + width)
        rect = AlignedRect(x_min, 0.0, x_min + width, height)
        assert outcome(lambda: split_for_recognizer(rect)) == outcome(lambda: loop_split(rect))

    def test_collapsed_part_still_raises(self):
        # near 1e17 floats are 16 apart, so 8-pixel edges round onto each other
        doc = Document(image_width=10**18, image_height=10, lines=(
            Line(id=3, box=Quad.from_points([[1e17, 0.0], [1e17 + 96.0, 0.0], [1e17 + 96.0, 2.0], [1e17, 2.0]])),
        ))
        message = "line 3: empty rectangle: AlignedRect(x_min=1e+17, y_min=0.0, x_max=1e+17, y_max=2.0)"
        assert outcome(lambda: plan_recognition(doc)) == ("GeometryError", message)
        assert outcome(lambda: reference_plan(doc)) == ("GeometryError", message)

    def test_signed_zero_vertex_takes_the_rotated_crop(self):
        # the box's bounds start at -0.0, but the rotated crop starts at 0.0
        quad = Quad(((-0.0, 0.0), (100.0, 0.0), (100.0, 20.0), (0.0, 20.0)))
        assert repr(quad.bounds) == "AlignedRect(x_min=-0.0, y_min=0.0, x_max=100.0, y_max=20.0)"
        doc = Document(image_width=100, image_height=20, lines=(Line(id=1, box=quad),))
        (request,) = plan_recognition(doc)
        assert repr(request.crop) == "AlignedRect(x_min=0.0, y_min=0.0, x_max=100.0, y_max=20.0)"
        assert repr([request]) == repr(reference_plan(doc))

    def test_request_is_a_tuple(self):
        (request,) = plan_recognition(Document(image_width=700, image_height=100,
                                               lines=(make_line(4, 10, 30, 650, 62),)))
        line_id, rotation, crop, parts = request
        assert request == (4, rotation, crop, parts) and hash(request) == hash((4, rotation, crop, parts))
        assert repr(request).startswith("RecognizerRequest(line_id=4, rotation=-0.0, crop=AlignedRect(")


class TestRecognizeDocument:
    def test_parts_assembled_per_line(self):
        doc = Document(
            image_width=700,
            image_height=200,
            lines=(
                make_line(0, 10, 30, 266, 62, ""),  # 256 wide -> 2 parts
                make_line(1, 10, 70, 110, 95, ""),
                make_line(2, 10, 110, 266, 142, ""),
            ),
        )
        rec = ScriptedRecognizer({0: ["HEL", "LO"], 1: ["ONLY"], 2: ["A ", "B"]})
        out = recognize_document(doc, rec)
        # read left to right, joined with no separator; an interior space is kept
        assert [line.text for line in out.lines] == ["HELLO", "ONLY", "A B"]
        # original is untouched
        assert doc.line_by_id(0).text == ""

    def test_unchanged_lines_are_kept(self):
        doc = Document(
            image_width=700,
            image_height=200,
            lines=(
                make_line(0, 10, 30, 110, 62, "EXIT"),
                make_line(1, 10, 70, 110, 95, "EXTI"),
                make_line(2, 10, 110, 110, 140, "WAY OUT"),
            ),
        )
        rec = ScriptedRecognizer({0: ["EXIT"], 1: ["EXIT"], 2: ["WAY OUT"]})
        out = recognize_document(doc, rec)
        assert out is not doc
        assert [line.text for line in out.lines] == ["EXIT", "EXIT", "WAY OUT"]
        assert out.lines[0] is doc.lines[0] and out.lines[2] is doc.lines[2]
        assert out.lines[1] is not doc.lines[1]

    def test_part_count_mismatch_rejected(self):
        doc = Document(
            image_width=700, image_height=100, lines=(make_line(0, 10, 30, 650, 62),)
        )
        with pytest.raises(ValueError, match="parts"):
            recognize_document(doc, ScriptedRecognizer({0: ["just one"]}))

    def test_echo_recognizer_preserves_texts(self):
        doc = Document(
            image_width=700,
            image_height=100,
            lines=(
                make_line(0, 10, 30, 650, 62, "WIDE SIGN TEXT"),  # splits into parts
                make_line(1, 10, 70, 110, 95, "EXIT"),
            ),
        )
        assert recognize_document(doc, EchoRecognizer(doc)) is doc

    def test_changed_control_character_text_rejected(self):
        doc = Document(
            image_width=700, image_height=100, lines=(make_line(0, 10, 70, 110, 95, "EXIT"),)
        )
        with pytest.raises(ValueError, match="control characters"):
            recognize_document(doc, ScriptedRecognizer({0: ["EX\x07IT"]}))

    def test_changed_line_is_rebuilt_through_the_checks(self):
        line = make_line(0, 10, 70, 110, 95, "EXIT")
        doc = Document(image_width=700, image_height=100, lines=(line,))
        out = recognize_document(doc, ScriptedRecognizer({0: ["EXTI"]}))
        assert type(out.lines[0]) is Line and out.lines[0] == (0, line.box, "EXTI", None)
        # a line whose confidence slipped past the checks (``_replace`` skips
        # them) is refused once the recognizer changes its text
        bad = Document(image_width=700, image_height=100, lines=(line._replace(recognizer_confidence=1.5),))
        with pytest.raises(ValueError, match=r"confidence outside \[0, 1\]"):
            recognize_document(bad, ScriptedRecognizer({0: ["EXTI"]}))
        with pytest.raises(ValueError, match="control characters"):
            recognize_document(bad, ScriptedRecognizer({0: ["EX\x07IT"]}))


# One order_block case per strategy on the two-line sign, as block 2:
# line ids, scripted replies (None: no backend), config overrides, and the
# expected strategy, block text, expected_len and llm_len.
OUTCOME_CASES = [
    ((0, 1), {"block-2": "20 REASONS TO LOVE CYCLING"}, {}, Strategy.LLM, "20 REASONS TO LOVE CYCLING", 26, 26),
    ((0, 1), {}, {"max_context_tokens": 50, "max_output_tokens": 10},
     Strategy.GEOMETRIC_FALLBACK_CONTEXT, "TO LOVE CYCLING 20 REASONS", 26, None),
    ((0, 1), {"block-2": "20 REASONS T"}, {}, Strategy.GEOMETRIC_FALLBACK_LENGTH, "TO LOVE CYCLING 20 REASONS", 26, 12),
    ((0, 1), {}, {}, Strategy.GEOMETRIC_FALLBACK_ERROR, "TO LOVE CYCLING 20 REASONS", 26, None),
    ((1,), {}, {}, Strategy.SINGLE_LINE, "TO LOVE CYCLING", 15, None),
    ((0, 1), None, {}, Strategy.GEOMETRIC_ONLY, "TO LOVE CYCLING 20 REASONS", 26, None),
]


class TestOrderBlock:
    def test_llm_strategy_with_scripted_backend(self, figure_doc):
        backend = ScriptedBackend({"block-0": "20 REASONS TO LOVE CYCLING"})
        outcome = order_block(figure_doc, figure_doc.blocks[0], backend, config(), 0)
        assert outcome.strategy is Strategy.LLM
        assert outcome.block_text == "20 REASONS TO LOVE CYCLING"
        assert outcome.expected_len == 26
        assert outcome.llm_len == 26

    def test_sends_the_prompt_build_block_prompt_shows(self, figure_doc):
        backend = CountingBackend({"block-0": "20 REASONS TO LOVE CYCLING"})
        order_block(figure_doc, figure_doc.blocks[0], backend, config(), 0)
        assert backend.prompts_seen == [build_block_prompt(figure_doc, figure_doc.blocks[0])]

    def test_short_reply_falls_back_to_geometry(self, figure_doc):
        backend = ScriptedBackend({"block-0": "20 REASONS T"})  # 12 chars
        outcome = order_block(figure_doc, figure_doc.blocks[0], backend, config(), 0)
        assert outcome.strategy is Strategy.GEOMETRIC_FALLBACK_LENGTH
        assert outcome.block_text == "TO LOVE CYCLING 20 REASONS"
        assert outcome.llm_len == 12

    def test_backend_error_falls_back(self, figure_doc):
        class Exploding:
            def send(self, *a):
                raise LlmTransientError("down")

        outcome = order_block(figure_doc, figure_doc.blocks[0], Exploding(), config(max_retries=0), 0)
        assert outcome.strategy is Strategy.GEOMETRIC_FALLBACK_ERROR
        assert outcome.block_text == "TO LOVE CYCLING 20 REASONS"

    def test_truncated_reply_falls_back(self, figure_doc):
        class Truncating:
            def send(self, *a):
                return LlmReply(text="x", truncated=True)

        outcome = order_block(figure_doc, figure_doc.blocks[0], Truncating(), config(), 0)
        assert outcome.strategy is Strategy.GEOMETRIC_FALLBACK_ERROR

    def test_auth_error_propagates(self, figure_doc):
        class Revoked:
            def send(self, *a):
                raise LlmRefusedError("authentication rejected (HTTP 401)")

        with pytest.raises(LlmRefusedError):
            order_block(figure_doc, figure_doc.blocks[0], Revoked(), config(), 0)

    def test_context_overflow_never_calls_backend(self, figure_doc):
        backend = CountingBackend({"block-0": "never used"})
        tight = config(max_context_tokens=50, max_output_tokens=10)
        outcome = order_block(figure_doc, figure_doc.blocks[0], backend, tight, 0)
        assert outcome.strategy is Strategy.GEOMETRIC_FALLBACK_CONTEXT
        assert backend.keys_seen == []

    def test_single_line_block_skips_backend(self):
        doc = Document(
            image_width=200,
            image_height=50,
            lines=(make_line(3, 10, 10, 110, 40, "EXIT"),),
            blocks=(Block(line_ids=(3,)),),
        )
        backend = CountingBackend({})
        outcome = order_block(doc, doc.blocks[0], backend, config(), 0)
        assert outcome.strategy is Strategy.SINGLE_LINE
        assert outcome.block_text == "EXIT"
        assert backend.keys_seen == []

    def test_disabled_backend_uses_geometry(self, figure_doc):
        outcome = order_block(figure_doc, figure_doc.blocks[0], None, config(), 0)
        assert outcome.strategy is Strategy.GEOMETRIC_ONLY
        assert outcome.block_text == "TO LOVE CYCLING 20 REASONS"

    @pytest.mark.parametrize(
        ("block", "backend", "overrides", "strategy", "text", "expected_len", "llm_len"),
        OUTCOME_CASES,
        ids=[case[3].value for case in OUTCOME_CASES],
    )
    def test_every_outcome_field_per_strategy(
        self, figure_doc, block, backend, overrides, strategy, text, expected_len, llm_len
    ):
        # an empty script makes the one request fail: the error fallback
        scripted = None if backend is None else ScriptedBackend(backend)
        outcome = order_block(figure_doc, Block(line_ids=block), scripted, config(**overrides), 2)
        assert outcome == OrderingOutcome(
            block_ref=2, strategy=strategy, block_text=text, expected_len=expected_len, llm_len=llm_len
        )
        unsent = {Strategy.SINGLE_LINE, Strategy.GEOMETRIC_ONLY, Strategy.GEOMETRIC_FALLBACK_CONTEXT}
        assert (outcome.wait_s is None) == (strategy in unsent)

    def test_llm_outcome_requires_reply_length(self):
        with pytest.raises(ValueError):
            OrderingOutcome(block_ref=0, strategy=Strategy.LLM, block_text="x", expected_len=1)


class TestRun:
    def make_doc(self):
        lines = (
            make_line(0, 10, 10, 160, 30, "alpha one"),
            make_line(1, 10, 40, 160, 60, "alpha two"),
            make_line(2, 10, 120, 160, 140, "beta one"),
            make_line(3, 10, 150, 160, 170, "beta two"),
            make_line(4, 10, 230, 160, 250, "loner"),
        )
        return Document(
            image_width=300,
            image_height=300,
            lines=lines,
            blocks=(Block(line_ids=(0, 1)), Block(line_ids=(2, 3))),
        )

    def test_all_blocks_texted_and_outcomes_parallel(self):
        doc = self.make_doc()
        backend = ScriptedBackend({"block-0": "alpha one alpha two", "block-1": "beta one beta two"})
        out, outcomes = run(doc, backend, config())
        assert len(out.blocks) == 3  # two grouped + one singleton
        assert [o.block_ref for o in outcomes] == [0, 1, 2]
        assert out.blocks[0].text == "alpha one alpha two"
        assert out.blocks[1].text == "beta one beta two"
        assert out.blocks[2].text == "loner"
        assert outcomes[0].strategy is Strategy.LLM
        assert outcomes[2].strategy is Strategy.SINGLE_LINE

    def test_empty_document_unchanged(self):
        doc = Document(image_width=10, image_height=10)
        out, outcomes = run(doc, None, config())
        assert out == doc
        assert outcomes == []

    def test_oversized_block_falls_back_others_succeed(self):
        doc = self.make_doc()
        backend = CountingBackend(
            {"block-0": "alpha one alpha two", "block-1": "beta one beta two"}
        )
        # budget chosen so both prompts overflow only for the bigger block
        base = config()
        out, outcomes = run(doc, backend, base)
        assert all(o.strategy is Strategy.LLM for o in outcomes[:2])

        tight = config(max_context_tokens=120, max_output_tokens=4)
        backend2 = CountingBackend({"block-0": "alpha one alpha two", "block-1": "beta one beta two"})
        out2, outcomes2 = run(doc, backend2, tight)
        assert outcomes2[0].strategy is Strategy.GEOMETRIC_FALLBACK_CONTEXT
        assert outcomes2[1].strategy is Strategy.GEOMETRIC_FALLBACK_CONTEXT
        assert backend2.keys_seen == []  # singletons never call either

    def test_no_loss_for_fallback_strategies(self):
        doc = self.make_doc()
        out, outcomes = run(doc, None, config())
        for block, outcome in zip(out.blocks, outcomes):
            assert outcome.strategy in (Strategy.GEOMETRIC_ONLY, Strategy.SINGLE_LINE)
            for lid in block.line_ids:
                assert doc.line_by_id(lid).text in outcome.block_text

    def test_deterministic_with_scripted_backend(self):
        doc = self.make_doc()
        backend = ScriptedBackend({"block-0": "alpha one alpha two", "block-1": "beta one beta two"})
        first = run(doc, backend, config())
        second = run(doc, backend, config())
        assert first == second

    def test_block_permutation_permutes_outcomes(self):
        doc = self.make_doc()
        swapped = doc.with_blocks((doc.blocks[1], doc.blocks[0]))
        out_a, outcomes_a = run(doc, None, config())
        out_b, outcomes_b = run(swapped, None, config())
        texts_a = [o.block_text for o in outcomes_a]
        texts_b = [o.block_text for o in outcomes_b]
        assert texts_b[0] == texts_a[1]
        assert texts_b[1] == texts_a[0]
        assert texts_b[2] == texts_a[2]

    def test_equals_order_block_block_by_block(self):
        doc = synthetic_gt(11)  # more blocks than pool workers; 1-, 2- and 3-line blocks
        backend = ScriptedBackend({f"block-{i}": b.text for i, b in enumerate(doc.blocks)})
        out, outcomes = run(doc, backend, config())
        expected = [
            order_block(doc, block, backend, config(), block_index=i)
            for i, block in enumerate(doc.blocks)
        ]
        assert outcomes == expected
        assert [b.text for b in out.blocks] == [o.block_text for o in expected]

    def test_geometric_only_run_starts_no_pool(self, monkeypatch):
        class NoHelpers:
            def submit(self, *a, **k):
                raise AssertionError("geometric-only run submitted a helper")

        monkeypatch.setattr(pipeline, "_HELPERS", NoHelpers())
        out, outcomes = run(synthetic_gt(6), None, config())
        assert [o.strategy for o in outcomes[:2]] == [Strategy.SINGLE_LINE, Strategy.GEOMETRIC_ONLY]
        # with a backend too, while no block has more than one line: none can send
        doc = synthetic_gt(6)
        singles = doc.with_blocks(tuple(b for b in doc.blocks if len(b.line_ids) == 1))
        _, outcomes = run(singles, CountingBackend({}), config())
        assert {o.strategy for o in outcomes} == {Strategy.SINGLE_LINE}

    def test_provider_waits_overlap(self):
        backend = Gathering(2)
        run(synthetic_gt(6), backend, config())
        assert backend.peak >= 2

    def test_serial_and_concurrent_agree(self, ordering_threads):
        doc = self.make_doc()
        replies = {"block-0": "alpha one alpha two", "block-1": "beta one beta two"}
        # 1: the caller alone orders every block; 8: the caller and 7 helpers
        ordering_threads(1)
        serial = run(doc, ScriptedBackend(replies), config())
        ordering_threads(8)
        concurrent = run(doc, ScriptedBackend(replies), config())
        assert serial == concurrent

    @pytest.mark.parametrize("workers", [1, 4])
    def test_auth_error_aborts_the_run_unwrapped(self, ordering_threads, workers):
        class Revoked:
            def send(self, *a):
                raise LlmRefusedError("authentication rejected (HTTP 403)")

        ordering_threads(workers)
        with pytest.raises(LlmRefusedError, match="HTTP 403"):
            run(self.make_doc(), Revoked(), config())

    def test_refused_request_aborts_the_run_unwrapped(self, stub_server):
        StubHandler.script = [(404, {"error": "model not found"})]
        with pytest.raises(LlmRefusedError, match="HTTP 404"):
            run(sign_doc(), HttpBackend(), config(endpoint_url=stub_server))
        assert len(StubHandler.requests_seen) == 1

    def test_refusal_stops_further_sends(self, stub_server):
        StubHandler.script = [(404, {"error": "model not found"})] * 60
        with pytest.raises(LlmRefusedError, match="HTTP 404"):
            run(synthetic_gt(60), HttpBackend(), config(endpoint_url=stub_server))
        # only the blocks already sending when the first refusal came back
        assert 1 <= len(StubHandler.requests_seen) <= MAX_IN_FLIGHT

    def test_refusal_ends_the_retry_backoffs(self):
        class RefusedAmidRetries:
            """Refuses ``block-3`` after 50 ms; every other send fails transiently."""

            def __init__(self):
                self.starts = []
                self.refused_at = None
                self.lock = threading.Lock()

            def send(self, prompt, cfg, key):
                with self.lock:
                    self.starts.append(time.perf_counter())
                if key == "block-3":
                    time.sleep(0.050)
                    self.refused_at = time.perf_counter()
                    raise LlmRefusedError("request refused (HTTP 404)")
                raise LlmTransientError("provider unavailable")

        doc = synthetic_gt(30)
        doc = doc.with_blocks(tuple(b for b in doc.blocks if len(b.line_ids) == 2)[:8])
        backend = RefusedAmidRetries()
        began = time.perf_counter()
        with pytest.raises(LlmRefusedError, match="HTTP 404"):
            run(doc, backend, config(max_retries=3, retry_backoff=0.5))
        assert time.perf_counter() - began < 0.5  # under one backoff
        assert len(backend.starts) <= 8  # no retry
        assert max(backend.starts) < backend.refused_at

    @pytest.mark.parametrize(
        ("fault", "posts"),
        [(cut_off_body, 4), (list_content, 1), (nested_body, 1)],
        ids=["cut-off", "list", "nested"],
    )
    def test_http_faults_fall_back_per_block(self, fault, posts):
        # a body cut off mid-transfer is retried; a malformed reply is not
        session = FaultySession(fault)
        out, outcomes = run(sign_doc(), HttpBackend(session), config(max_retries=3))
        assert [o.strategy for o in outcomes] == [Strategy.GEOMETRIC_FALLBACK_ERROR]
        assert out.blocks[0].text == "TO LOVE CYCLING 20 REASONS"
        assert session.posts == posts

    def test_block_key_format(self):
        assert block_key(0) == "block-0"
        assert block_key(12) == "block-12"

    def test_invariant_violations_aggregated(self):
        # hand-built document bypassing validation: both blocks name a
        # line that does not exist
        doc = Document(
            image_width=100,
            image_height=100,
            lines=(make_line(0, 10, 10, 60, 30, "ok"),),
            blocks=(Block(line_ids=(7,)), Block(line_ids=(8, 9))),
        )
        with pytest.raises(PipelineError) as err:
            run(doc, None, config())
        assert "block 0" in str(err.value)
        assert "block 1" in str(err.value)


class TestPoolPolicy:
    """``run``'s caller and the shared helper threads take a backend's blocks."""

    @staticmethod
    def replies(doc):
        return {block_key(i): b.text for i, b in enumerate(doc.blocks)}

    class Delayed:
        """Sleeps ``delay`` s per send; records the peak in flight."""

        def __init__(self, delay):
            self.delay = delay
            self.in_flight = 0
            self.peak = 0
            self.lock = threading.Lock()

        def send(self, prompt, cfg, key):
            with self.lock:
                self.in_flight += 1
                self.peak = max(self.peak, self.in_flight)
            time.sleep(self.delay)  # a provider round trip
            with self.lock:
                self.in_flight -= 1
            return LlmReply(text="reply")

        def run(self, doc):
            self.peak = 0
            run(doc, self, config())
            return self

    def test_waiting_backend_keeps_the_pool(self):
        doc = synthetic_gt(30)
        # 10 two-line blocks that send, 40 lines left as singletons that do not
        doc = doc.with_blocks(tuple(b for b in doc.blocks if len(b.line_ids) == 2))
        backend = self.Delayed(0.020)
        peaks = [backend.run(doc).peak for _ in range(3)]
        assert all(peak >= 2 for peak in peaks)  # the first run too: a new backend hands off

    def sent_helpers(self, monkeypatch, doc, backend):
        """The helpers one run submits, none of which starts."""
        recorder = NeverStarts()
        monkeypatch.setattr(pipeline, "_HELPERS", recorder)
        run(doc, backend, config())
        return recorder.submitted

    def test_backend_that_answers_at_once_submits_no_helper(self, monkeypatch):
        doc = synthetic_gt(11)
        backend = ScriptedBackend(self.replies(doc))
        assert self.sent_helpers(monkeypatch, doc, backend) >= 1  # a new backend hands off
        assert self.sent_helpers(monkeypatch, doc, backend) == 0
        assert self.sent_helpers(monkeypatch, doc, ScriptedBackend(self.replies(doc))) >= 1

    def test_backend_that_starts_waiting_overlaps_again(self, ordering_threads):
        doc = synthetic_gt(30)
        doc = doc.with_blocks(tuple(b for b in doc.blocks if len(b.line_ids) == 2))
        backend = self.Delayed(0.0)
        ordering_threads(1)  # the caller alone, so no send waits for the interpreter lock
        backend.run(doc)
        ordering_threads(4)
        backend.delay = 0.020
        assert backend.run(doc).peak == 1  # remembered as answering at once
        assert backend.run(doc).peak >= 2  # its last run's sends waited

    class Slotted:
        """Cannot be weakly referenced."""

        __slots__ = ("replies",)

        def __init__(self, replies):
            self.replies = replies

        def send(self, prompt, cfg, key):
            return LlmReply(self.replies[key])

    class Unhashable(ScriptedBackend):
        def __eq__(self, other):
            return self is other

    @pytest.mark.parametrize("kind", [Slotted, Unhashable], ids=["slots", "unhashable"])
    def test_backend_that_cannot_be_remembered_keeps_handing_off(self, monkeypatch, kind):
        doc = synthetic_gt(11)
        backend = kind(self.replies(doc))
        assert [self.sent_helpers(monkeypatch, doc, backend) >= 1 for _ in range(3)] == [True] * 3

    def test_run_that_sends_nothing_leaves_the_decision(self, monkeypatch):
        doc = synthetic_gt(11)
        singles = doc.with_blocks(tuple(b for b in doc.blocks if len(b.line_ids) == 1))
        fast = ScriptedBackend(self.replies(doc))
        self.sent_helpers(monkeypatch, doc, fast)
        self.sent_helpers(monkeypatch, singles, fast)
        assert self.sent_helpers(monkeypatch, doc, fast) == 0
        slow = self.Delayed(0.020)
        slow.run(doc)
        slow.run(singles)
        assert self.sent_helpers(monkeypatch, doc, slow) >= 1

    def test_concurrent_runs_keep_the_memory_whole(self, monkeypatch):
        # more threads than cores, switching often, while backends are made and dropped
        doc = synthetic_gt(11)
        monkeypatch.setattr(pipeline, "_HELPERS", NeverStarts())
        backends = [ScriptedBackend(self.replies(doc)) for _ in range(8)]
        start = threading.Barrier(len(backends))
        errors = []

        def worker(backend):
            try:
                start.wait(timeout=10)
                for _ in range(10):
                    run(doc, backend, config())
                    run(doc, ScriptedBackend(self.replies(doc)), config())
            except Exception as e:
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(b,)) for b in backends]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # a run's sends may have waited for the interpreter lock; one run alone settles it
        for backend in backends:
            self.sent_helpers(monkeypatch, doc, backend)
        assert [self.sent_helpers(monkeypatch, doc, b) for b in backends] == [0] * len(backends)

    def test_remembered_backend_is_freed_when_dropped(self, monkeypatch):
        doc = synthetic_gt(11)
        backend = ScriptedBackend(self.replies(doc))
        for _ in range(2):  # with helpers that never start, and so never hold the backend
            self.sent_helpers(monkeypatch, doc, backend)
        dropped = weakref.ref(backend)
        del backend
        assert dropped() is None

    def test_every_sending_block_is_timed(self):
        # every sending block is timed, also under frequent thread switches
        doc = synthetic_gt(90)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, outcomes = run(doc, self.Delayed(0.0), config())
        finally:
            sys.setswitchinterval(switch)
        sent = [o for o in outcomes if o.wait_s is not None]
        assert len(sent) == 60

    def test_every_sending_block_is_in_flight_at_once(self):
        doc = synthetic_gt(40)
        doc = doc.with_blocks(tuple(b for b in doc.blocks if len(b.line_ids) == 2)[:12])

        backend = Gathering(12)
        _, outcomes = run(doc, backend, config())
        assert backend.peak == 12
        assert sum(o.wait_s is not None for o in outcomes) == 12

    def test_interrupted_caller_stops_the_helpers(self):
        caller = threading.get_ident()

        class Interrupted(self.Delayed):
            """Fails each send transiently; raises KeyboardInterrupt on the
            caller's second send, its first retry."""

            def __init__(self):
                super().__init__(0.010)
                self.sends = 0
                self.caller_sends = 0

            def send(self, prompt, cfg, key):
                with self.lock:
                    self.sends += 1
                if threading.get_ident() == caller:
                    self.caller_sends += 1
                    if self.caller_sends == 2:
                        raise KeyboardInterrupt
                super().send(prompt, cfg, key)
                raise LlmTransientError("provider unavailable")

        backend = Interrupted()
        with pytest.raises(KeyboardInterrupt):  # 60 sending blocks
            run(synthetic_gt(90), backend, config(max_retries=3, retry_backoff=0.05))
        sends_at_raise = backend.sends
        quiet_since = time.perf_counter()
        while time.perf_counter() - quiet_since < 0.2:  # the helpers go quiet
            seen = backend.sends
            time.sleep(0.05)
            if backend.sends != seen or backend.in_flight:
                quiet_since = time.perf_counter()
        # at most the blocks the helpers had already taken went on to send
        assert backend.sends - sends_at_raise <= MAX_IN_FLIGHT - 1
        assert backend.sends < 60

    def test_only_sending_blocks_record_a_wait(self, figure_doc):
        single = Document(
            image_width=200,
            image_height=50,
            lines=(make_line(3, 10, 10, 110, 40, "EXIT"),),
            blocks=(Block(line_ids=(3,)),),
        )
        tight = config(max_context_tokens=50, max_output_tokens=10)
        block = figure_doc.blocks[0]
        quiet = [
            order_block(single, single.blocks[0], self.Delayed(0.020), config(), 0),
            order_block(figure_doc, block, None, config(), 0),
            order_block(figure_doc, block, self.Delayed(0.020), tight, 0),
        ]
        assert [o.strategy for o in quiet] == [
            Strategy.SINGLE_LINE,
            Strategy.GEOMETRIC_ONLY,
            Strategy.GEOMETRIC_FALLBACK_CONTEXT,
        ]
        assert all(o.wait_s is None for o in quiet)
        sent = order_block(figure_doc, block, self.Delayed(0.020), config(), 0)
        assert sent.wait_s >= 0.015

    def test_instant_sends_never_wait_below_zero(self, figure_doc):
        block = figure_doc.blocks[0]
        backend = ScriptedBackend({block_key(0): "20 REASONS TO LOVE CYCLING"})
        waits = [order_block(figure_doc, block, backend, config(), 0).wait_s for _ in range(300)]
        assert min(waits) >= 0.0

    def test_concurrent_first_runs_make_one_executor(self, monkeypatch):
        made = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                time.sleep(0.05)  # widen the window in which a second run could make one too
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", Counted)
        monkeypatch.setattr(pipeline, "_HELPERS", None)
        doc = synthetic_gt(9)
        start = threading.Barrier(8)

        def first_run():
            start.wait(timeout=10)
            self.Delayed(0.005).run(doc)

        threads = [threading.Thread(target=first_run) for _ in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            for pool in made:
                pool.shutdown()
        assert len(made) == 1
        assert pipeline._HELPERS is made[0]

    def test_forked_child_of_a_process_that_never_handed_off(self, monkeypatch):
        # no executor yet, and the lock that guards making one held at the fork
        monkeypatch.setattr(pipeline, "_HELPERS", None)
        doc = synthetic_gt(11)

        def child():
            assert self.Delayed(0.005).run(doc).peak >= 2

        with pipeline._HELPERS_LOCK:
            process = multiprocessing.get_context("fork").Process(target=child)
            process.start()
        process.join(timeout=30)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("the forked child's run hung")
        assert process.exitcode == 0

    def test_forked_child_completes_a_run(self):
        # the child inherits the helper pool but none of its threads
        doc = synthetic_gt(11)
        self.Delayed(0.005).run(doc)
        expected = run(doc, ScriptedBackend(self.replies(doc)), config())

        def child():
            assert self.Delayed(0.005).run(doc).peak >= 2
            assert run(doc, ScriptedBackend(self.replies(doc)), config()) == expected

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(timeout=30)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("the forked child's run hung")
        assert process.exitcode == 0

    def test_run_does_not_wait_for_helpers_held_by_another_run(self):
        doc = synthetic_gt(60)
        # 20 two-line blocks: more than the sends one run keeps in flight
        doc = doc.with_blocks(tuple(b for b in doc.blocks if len(b.line_ids) == 2))

        class Held:
            """Every send waits until released, or 30 s pass."""

            def __init__(self):
                self.in_flight = 0
                self.cond = threading.Condition()
                self.release = threading.Event()

            def send(self, prompt, cfg, key):
                with self.cond:
                    self.in_flight += 1
                    self.cond.notify_all()
                self.release.wait(timeout=30)
                return LlmReply(text="reply")

        held = Held()
        other = threading.Thread(target=run, args=(doc, held, config()))
        other.start()
        try:
            with held.cond:  # the other run's caller and all its helpers are sending
                assert held.cond.wait_for(lambda: held.in_flight == MAX_IN_FLIGHT, timeout=10)
            small = synthetic_gt(11)
            started = time.perf_counter()
            _, outcomes = run(small, ScriptedBackend(self.replies(small)), config())
            elapsed = time.perf_counter() - started
        finally:
            held.release.set()
            other.join()
        assert elapsed < 5.0
        assert Strategy.LLM in {o.strategy for o in outcomes}

    def test_concurrent_runs_match_serial_runs(self):
        docs = [synthetic_gt(11), synthetic_gt(20)]

        class Slow(ScriptedBackend):
            def send(self, prompt, cfg, key):
                time.sleep(0.002)
                return super().send(prompt, cfg, key)

        def order(doc):
            return run(doc, Slow(self.replies(doc)), config())

        serial = [order(doc) for doc in docs]
        concurrent = [None, None]
        start = threading.Barrier(2)

        def worker(i):
            start.wait()
            concurrent[i] = order(docs[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert concurrent == serial

    def test_runs_start_no_new_threads(self):
        doc = synthetic_gt(11)
        backend = self.Delayed(0.002)
        backend.run(doc)
        after_first = threading.active_count()
        for _ in range(19):
            backend.run(doc)
        assert threading.active_count() == after_first


class TestReplayMatchesLive:
    class Provider:
        """Fails ``failures`` times with a transient error, then answers ``reply``."""

        def __init__(self, reply: LlmReply, failures: int):
            self.reply = reply
            self.failures = failures

        def send(self, prompt, cfg, key):
            if self.failures:
                self.failures -= 1
                raise LlmTransientError("connection reset")
            return self.reply

    @settings(max_examples=150, deadline=None)
    @given(
        truncated=st.booleans(),
        text=st.sampled_from(
            [
                "20 REASONS TO LOVE CYCLING",
                "TO LOVE",
                "",
                "   ",
                "20 REASONS TO LOVE CYCLING " * 3,
                "20 REASONS TO LOVE \ud83d CYCLING",  # a lone surrogate
            ]
        )
        | st.text(max_size=40),
        failures=st.integers(0, 4),  # 3 and 4 exhaust max_retries=2: always down
    )
    def test_replayed_outcomes_equal_live(self, truncated, text, failures):
        doc = sign_doc()
        cfg = config(max_retries=2)
        with tempfile.TemporaryDirectory() as tmp:
            transcript = Path(tmp) / "session.jsonl"
            transcript.touch()
            provider = self.Provider(LlmReply(text, truncated), failures)
            live = run(doc, TranscriptRecorder(provider, transcript), cfg)
            replayed = run(doc, ReplayBackend(transcript), cfg)
        assert replayed == live
