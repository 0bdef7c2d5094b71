"""Geometry tests: rotation snapping, crops, splits, IoU, prompt box translation.

``rect_iou`` has two oracles that share no code with it: convex-polygon
clipping (Sutherland-Hodgman, valid for any convex quads) and a raster
count of integer rectangles on a pixel grid.
"""

from __future__ import annotations

import ast
import copy
import math
import pickle
import random
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspot.geometry import (
    AlignedRect,
    GeometryError,
    RECOGNIZER_ASPECT,
    Point,
    crop_rect,
    quad_bounds,
    rect_iou,
    rotate_point,
    snap_rotation,
    split_for_recognizer,
)
from blockspot.prompting import render_boxes_literal


def rect_quad(x0, y0, x1, y1):
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))


def rotated_rect_quad(cx, cy, w, h, angle_degrees):
    half = [(-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2)]
    return tuple(
        (cx + px, cy + py) for px, py in (rotate_point(p, angle_degrees) for p in half)
    )


def polygon_area(vertices: Sequence[Point]) -> float:
    """Signed shoelace area; positive for counter-clockwise winding."""
    area = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return area / 2


def _clip_left_of(subject: list[Point], a: Point, b: Point) -> list[Point]:
    """Keep the part of ``subject`` on or left of the directed edge a->b."""
    ax, ay = a
    ex, ey = b[0] - ax, b[1] - ay
    out: list[Point] = []
    n = len(subject)
    for i in range(n):
        px, py = subject[i]
        qx, qy = subject[(i + 1) % n]
        p_side = ex * (py - ay) - ey * (px - ax)
        q_side = ex * (qy - ay) - ey * (qx - ax)
        if p_side >= 0.0:
            out.append((px, py))
        if (p_side < 0.0 < q_side) or (q_side < 0.0 < p_side):
            t = p_side / (p_side - q_side)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def _ccw(vertices: Sequence[Point]) -> list[Point]:
    pts = list(vertices)
    if polygon_area(pts) < 0:
        pts.reverse()
    return pts


def convex_intersection_area(a: Sequence[Point], b: Sequence[Point]) -> float:
    """Area of the intersection of two convex polygons (any winding).

    Sutherland-Hodgman clipping: the subject is cut by each edge of the
    (counter-clockwise) clipper, whose interior lies left of its edges.
    """
    poly = _ccw(a)
    clipper = _ccw(b)
    for i in range(len(clipper)):
        poly = _clip_left_of(poly, clipper[i], clipper[(i + 1) % len(clipper)])
        if len(poly) < 3:
            return 0.0
    return abs(polygon_area(poly))


def convex_iou(a: Sequence[Point], b: Sequence[Point]) -> float:
    """Intersection over union of two convex quads, in [0, 1]."""
    inter = convex_intersection_area(a, b)
    if inter <= 0.0:
        return 0.0
    union = abs(polygon_area(a)) + abs(polygon_area(b)) - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, inter / union)


def rect_as_quad(r: AlignedRect, origin: Point = (0.0, 0.0)):
    ox, oy = origin
    return rect_quad(r.x_min - ox, r.y_min - oy, r.x_max - ox, r.y_max - oy)


def raster_iou(a: AlignedRect, b: AlignedRect, size: int = 128) -> float:
    """Pixel-count IoU for integer axis-aligned rects inside [0, size)."""
    grid_a = np.zeros((size, size), dtype=bool)
    grid_b = np.zeros((size, size), dtype=bool)
    grid_a[int(a.y_min) : int(a.y_max), int(a.x_min) : int(a.x_max)] = True
    grid_b[int(b.y_min) : int(b.y_max), int(b.x_min) : int(b.x_max)] = True
    union = np.logical_or(grid_a, grid_b).sum()
    if union == 0:
        return 0.0
    return np.logical_and(grid_a, grid_b).sum() / union


class TestSnapRotation:
    def test_axis_aligned_is_zero(self):
        assert snap_rotation(rect_quad(0, 0, 100, 20)) == pytest.approx(0.0, abs=1e-9)

    def test_shallow_tilt_rotated_back(self):
        quad = rotated_rect_quad(50, 50, 100, 20, 30)
        assert snap_rotation(quad) == pytest.approx(-30.0, abs=1e-9)

    def test_steep_tilt_aligned_to_y(self):
        quad = rotated_rect_quad(50, 50, 100, 20, 60)
        assert snap_rotation(quad) == pytest.approx(30.0, abs=1e-9)

    def test_45_degrees_belongs_to_x_branch(self):
        quad = rotated_rect_quad(0, 0, 100, 20, 45)
        assert snap_rotation(quad) == pytest.approx(-45.0, abs=1e-9)

    def test_vertical_rect_already_aligned(self):
        assert snap_rotation(rect_quad(0, 0, 20, 100)) == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_quad_raises(self):
        with pytest.raises(GeometryError):
            snap_rotation(((5, 5), (5, 5), (5, 5), (5, 5)))

    def test_angle_always_within_45(self):
        rng = random.Random(13)
        for _ in range(500):
            quad = rotated_rect_quad(
                rng.uniform(0, 200),
                rng.uniform(0, 200),
                rng.uniform(2, 120),
                rng.uniform(2, 120),
                rng.uniform(-180, 180),
            )
            assert abs(snap_rotation(quad)) <= 45.0 + 1e-9


class TestCropRect:
    def test_axis_aligned_identity(self):
        rect = crop_rect(rect_quad(3, 4, 103, 24), 0.0)
        assert rect == AlignedRect(3, 4, 103, 24)

    def test_rotated_unit_square_recovered(self):
        quad = tuple(rotate_point(p, 45.0) for p in ((0, 0), (1, 0), (1, 1), (0, 1)))
        theta = snap_rotation(quad)
        assert theta == pytest.approx(-45.0, abs=1e-9)
        rect = crop_rect(quad, theta)
        assert rect.width == pytest.approx(1.0, abs=1e-9)
        assert rect.height == pytest.approx(1.0, abs=1e-9)

    def test_snap_then_crop_recovers_rect_size(self):
        rng = random.Random(17)
        for _ in range(200):
            w, h = rng.uniform(4, 150), rng.uniform(4, 150)
            quad = rotated_rect_quad(rng.uniform(-50, 50), rng.uniform(-50, 50), w, h, rng.uniform(-180, 180))
            rect = crop_rect(quad, snap_rotation(quad))
            assert sorted((rect.width, rect.height)) == pytest.approx(sorted((w, h)), abs=1e-6)

    def test_collinear_quad_raises(self):
        with pytest.raises(GeometryError):
            crop_rect(((0, 0), (10, 0), (20, 0), (30, 0)), 0.0)


_CROP_COORD = st.one_of(st.integers(-(2**20), 2**20), st.floats(-1e6, 1e6), st.floats(-2.0, 2.0))


@st.composite
def crop_quads(draw):
    """Any four points, or a box of at most a few pixels (near the one-pixel
    limit), at any offset; sometimes 1 to 6 points."""
    x, y = draw(_CROP_COORD), draw(_CROP_COORD)
    w, h = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
    small = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
    point = st.tuples(_CROP_COORD, _CROP_COORD)
    return draw(st.one_of(
        st.lists(point, min_size=4, max_size=4),
        st.just(small),
        st.lists(point, min_size=1, max_size=6),
    ))


def crop_outcome(crop):
    """("ok", repr of the rectangle) or the error; repr tells -0.0 from 0.0."""
    try:
        return "ok", repr(crop())
    except ValueError as e:
        return type(e).__name__, str(e)


class TestCropRectMatchesRotatePoint:
    """One cos and sin per crop gives the floats of ``rotate_point`` per vertex."""

    @settings(max_examples=1500, deadline=None)
    @given(crop_quads(), st.one_of(st.floats(-360.0, 360.0), st.floats(), st.sampled_from([0.0, -0.0, 45.0, 90.0])))
    def test_matches_rotated_bounds(self, vertices, theta):
        def reference():
            rect = quad_bounds([rotate_point(p, theta) for p in vertices])
            if rect.width < 1.0 - 1e-9 or rect.height < 1.0 - 1e-9:
                raise GeometryError(f"crop smaller than one pixel: {rect}")
            return rect

        assert crop_outcome(lambda: crop_rect(vertices, theta)) == crop_outcome(reference)

    def test_sub_pixel_crop_raises(self):
        with pytest.raises(GeometryError, match="crop smaller than one pixel"):
            crop_rect(rect_quad(0, 0, 100, 0.5), 0.0)


class TestAlignedRect:
    """A rectangle is an immutable 4-tuple (x_min, y_min, x_max, y_max)."""

    def test_is_a_tuple_of_its_fields(self):
        r = AlignedRect(1, 2.5, 4, 8)
        assert r == (1, 2.5, 4, 8) and tuple(r) == (1, 2.5, 4, 8)
        x_min, y_min, x_max, y_max = r
        assert (x_min, y_min, x_max, y_max) == (r.x_min, r.y_min, r.x_max, r.y_max)
        assert AlignedRect(x_min=1, y_min=2.5, x_max=4, y_max=8) == r
        assert (r.width, r.height, r.center) == (3, 5.5, (2.5, 5.25))

    def test_fields_cannot_be_assigned(self):
        r = AlignedRect(0, 0, 1, 1)
        for name in ("x_min", "y_min", "x_max", "y_max"):
            with pytest.raises(AttributeError):
                setattr(r, name, 5)
        with pytest.raises(AttributeError):
            r.label = "x"
        assert r == (0, 0, 1, 1)

    @pytest.mark.parametrize(
        "bounds",
        [(5, 0, 5, 10), (0, 5, 10, 5), (3, 0, 1, 1), (math.nan, 0, 1, 1), (0, 0, 1, math.nan), (0, 0, math.inf, math.nan)],
    )
    def test_empty_or_nan_raises(self, bounds):
        with pytest.raises(GeometryError, match="empty rectangle: AlignedRect"):
            AlignedRect(*bounds)

    def test_repr_names_the_fields(self):
        assert repr(AlignedRect(0, 0.5, 10, 2)) == "AlignedRect(x_min=0, y_min=0.5, x_max=10, y_max=2)"

    def test_pickle_copy_and_hash(self):
        r = AlignedRect(-1.5, 0.0, 2.25, 3.0)
        for again in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
            assert type(again) is AlignedRect and again == r and hash(again) == hash(r)
        assert hash(r) == hash((-1.5, 0.0, 2.25, 3.0))
        assert {r: 1}[AlignedRect(-1.5, 0.0, 2.25, 3.0)] == 1


class TestSplit:
    def test_exact_multiple(self):
        parts = split_for_recognizer(AlignedRect(0, 0, 640, 32))
        assert len(parts) == 5
        assert all(p.width == pytest.approx(128.0) for p in parts)

    def test_remainder_spread_evenly(self):
        parts = split_for_recognizer(AlignedRect(0, 0, 300, 32))
        assert len(parts) == 3
        assert all(p.width == pytest.approx(100.0) for p in parts)

    def test_narrow_crop_untouched(self):
        rect = AlignedRect(5, 5, 105, 37)
        assert split_for_recognizer(rect) == [rect]

    def test_tiling_law(self):
        rng = random.Random(19)
        for _ in range(300):
            rect = AlignedRect(0, 0, rng.uniform(1, 2000), rng.uniform(1, 80))
            parts = split_for_recognizer(rect)
            assert parts[0].x_min == rect.x_min
            assert parts[-1].x_max == rect.x_max
            for left, right in zip(parts, parts[1:]):
                assert left.x_max == pytest.approx(right.x_min, abs=1e-9)
            assert sum(p.width for p in parts) == pytest.approx(rect.width, abs=1e-6)
            # each part must not exceed the recognizer aspect (plus slack
            # for the ceil: only the n=1 case may be under-wide)
            for p in parts:
                assert p.width / p.height <= RECOGNIZER_ASPECT + 1e-9


class TestIoU:
    """The convex-clipping oracle, and ``rect_iou`` where both apply."""

    def test_identical(self):
        q = rect_quad(10, 10, 50, 30)
        assert convex_iou(q, q) == pytest.approx(1.0, abs=1e-12)
        assert rect_iou(AlignedRect(10, 10, 50, 30), AlignedRect(10, 10, 50, 30)) == 1.0

    def test_disjoint(self):
        assert convex_iou(rect_quad(0, 0, 10, 10), rect_quad(20, 20, 30, 30)) == 0.0
        assert rect_iou(AlignedRect(0, 0, 10, 10), AlignedRect(20, 20, 30, 30)) == 0.0

    def test_hand_computed_overlap(self):
        # 2x2 squares overlapping in a 1x1 corner: 1 / (4 + 4 - 1)
        a = rect_quad(0, 0, 2, 2)
        b = rect_quad(1, 1, 3, 3)
        assert convex_iou(a, b) == pytest.approx(1 / 7, abs=1e-12)
        assert rect_iou(AlignedRect(0, 0, 2, 2), AlignedRect(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-12)

    def test_symmetry_and_bounds_random_quads(self):
        rng = random.Random(23)
        for _ in range(500):
            a = rotated_rect_quad(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(2, 60), rng.uniform(2, 60), rng.uniform(-90, 90))
            b = rotated_rect_quad(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(2, 60), rng.uniform(2, 60), rng.uniform(-90, 90))
            ab = convex_iou(a, b)
            assert 0.0 <= ab <= 1.0
            assert ab == pytest.approx(convex_iou(b, a), abs=1e-9)
            assert convex_iou(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_against_rasterization_oracle(self):
        rng = random.Random(29)
        for _ in range(200):
            def int_rect():
                x0 = rng.randint(0, 95)
                y0 = rng.randint(0, 95)
                return AlignedRect(x0, y0, rng.randint(x0 + 1, 100), rng.randint(y0 + 1, 100))

            ra, rb = int_rect(), int_rect()
            assert convex_iou(rect_as_quad(ra), rect_as_quad(rb)) == pytest.approx(raster_iou(ra, rb), abs=0.01)
            assert rect_iou(ra, rb) == pytest.approx(raster_iou(ra, rb), abs=0.01)

    def test_rotated_overlap_against_area_identity(self):
        # intersection of a square and its 45-degree rotation about the
        # same center is a regular octagon: area 8*(sqrt(2)-1) for side 2
        a = rect_quad(-1, -1, 1, 1)
        b = rotated_rect_quad(0, 0, 2, 2, 45)
        inter = convex_intersection_area(a, b)
        assert inter == pytest.approx(8 * (math.sqrt(2) - 1), abs=1e-9)


_coords = st.floats(min_value=-500, max_value=500, allow_nan=False, allow_infinity=False)
_sizes = st.floats(min_value=0.01, max_value=500, allow_nan=False, allow_infinity=False)
_fractions = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def rect_pairs(draw):
    """A fractional rectangle and a second one that is random, identical,
    contained, edge-touching (IoU 0) or disjoint."""
    x0, y0 = draw(_coords), draw(_coords)
    a = AlignedRect(x0, y0, x0 + draw(_sizes), y0 + draw(_sizes))
    kind = draw(st.sampled_from(["random", "identical", "contained", "touching", "disjoint"]))
    if kind == "identical":
        return a, AlignedRect(a.x_min, a.y_min, a.x_max, a.y_max), kind
    if kind == "contained":
        lo_x, lo_y = (draw(_fractions) * 0.4 for _ in range(2))
        hi_x, hi_y = (0.6 + draw(_fractions) * 0.4 for _ in range(2))
        b = AlignedRect(
            a.x_min + lo_x * a.width, a.y_min + lo_y * a.height,
            a.x_min + hi_x * a.width, a.y_min + hi_y * a.height,
        )
        return a, b, kind
    if kind == "touching":
        # shares a's right edge; its vertical extent overlaps a's or not
        y = draw(_coords)
        return a, AlignedRect(a.x_max, y, a.x_max + draw(_sizes), y + draw(_sizes)), kind
    x, y = draw(_coords), draw(_coords)
    if kind == "disjoint":
        x = a.x_max + 1.0 + abs(x)
    return a, AlignedRect(x, y, x + draw(_sizes), y + draw(_sizes)), kind


class TestRectIoU:
    @settings(max_examples=500, deadline=None)
    @given(rect_pairs())
    def test_matches_convex_clipping_oracle(self, pair):
        a, b, kind = pair
        ab = rect_iou(a, b)
        assert ab == rect_iou(b, a)
        assert 0.0 <= ab <= 1.0
        # The shoelace sums in clipping lose area in proportion to the squared
        # distance from the origin, enough to miss 1e-9 for a tiny rectangle
        # far from it; IoU is translation-invariant, so clip near a.
        origin = (a.x_min, a.y_min)
        assert abs(ab - convex_iou(rect_as_quad(a, origin), rect_as_quad(b, origin))) <= 1e-9
        if kind == "identical":
            assert ab == 1.0
        elif kind == "contained":
            assert ab == pytest.approx(b.width * b.height / (a.width * a.height), rel=1e-9)
        elif kind in ("touching", "disjoint"):
            assert ab == 0.0

    def test_corner_touching_is_zero(self):
        assert rect_iou(AlignedRect(0, 0, 1.5, 2.5), AlignedRect(1.5, 2.5, 4, 4)) == 0.0


def translate_block_boxes(bounds):
    """The integer boxes a prompt carries for these line bounds."""
    return [tuple(box) for box in ast.literal_eval(render_boxes_literal(bounds))]


class TestTranslateBlockBoxes:
    def test_two_boxes(self):
        out = translate_block_boxes([AlignedRect(5, 7, 9, 11), AlignedRect(6, 3, 12, 9)])
        assert out == [(0, 4, 4, 8), (1, 0, 7, 6)]

    def test_single_box(self):
        out = translate_block_boxes([AlignedRect(100, 200, 150, 240)])
        assert out == [(0, 0, 50, 40)]

    def test_fractional_coordinates(self):
        # translation anchors the block minimum at zero before rounding
        out = translate_block_boxes([AlignedRect(0.4, 0.6, 10.4, 20.6)])
        assert out == [(0, 0, 10, 20)]

    def test_rounding_is_half_away_from_zero(self):
        # anchored coordinates are never negative, so half rounds up
        out = translate_block_boxes([AlignedRect(0, 0, 0.5, 1.5), AlignedRect(2.4, 0, 4, 1)])
        assert out == [(0, 0, 1, 2), (2, 0, 4, 1)]

    def test_sub_pixel_box_widened_to_one(self):
        out = translate_block_boxes([AlignedRect(0, 0, 10, 10), AlignedRect(3.6, 4.6, 3.9, 4.9)])
        assert out == [(0, 0, 10, 10), (4, 5, 5, 6)]

    def test_min_zero_law(self):
        rng = random.Random(31)
        for _ in range(300):
            quads = [
                rotated_rect_quad(rng.uniform(50, 900), rng.uniform(50, 900), rng.uniform(2, 100), rng.uniform(2, 100), rng.uniform(-45, 45))
                for _ in range(rng.randint(1, 8))
            ]
            out = translate_block_boxes([quad_bounds(q) for q in quads])
            assert min(x0 for x0, _, _, _ in out) == 0
            assert min(y0 for _, y0, _, _ in out) == 0
            assert all(x0 < x1 and y0 < y1 for x0, y0, x1, y1 in out)
            assert all(isinstance(v, int) for box in out for v in box)

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            translate_block_boxes([])


class TestHelpers:
    def test_polygon_area_sign(self):
        assert polygon_area(rect_quad(0, 0, 4, 3)) == pytest.approx(12.0)
        assert polygon_area(tuple(reversed(rect_quad(0, 0, 4, 3)))) == pytest.approx(-12.0)

    def test_quad_bounds(self):
        assert quad_bounds(((1, 7), (5, 2), (9, 4), (3, 8))) == AlignedRect(1, 2, 9, 8)

    def test_aligned_rect_validates(self):
        with pytest.raises(GeometryError):
            AlignedRect(5, 0, 5, 10)
