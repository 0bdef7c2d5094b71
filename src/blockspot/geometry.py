"""Quadrilateral geometry for detected text lines.

Covers the per-line preprocessing plan (rotation snapping, crop rectangles,
aspect-preserving splits for the recognizer) and closed-form IoU between
axis-aligned rectangles.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

Point = tuple[float, float]


class GeometryError(ValueError):
    """Degenerate geometry: zero-length edges, collapsed crops, empty input."""


class _Rect(NamedTuple):
    x_min: float
    y_min: float
    x_max: float
    y_max: float


class AlignedRect(_Rect):
    """Axis-aligned rectangle in pixel coordinates, with positive width and
    height.

    A rectangle is an immutable 4-tuple ``(x_min, y_min, x_max, y_max)``: it
    unpacks, hashes and compares equal as one.  The constructor (and so
    ``copy`` and ``pickle``) raises ``GeometryError`` for an empty or NaN
    rectangle; the inherited ``_make`` and ``_replace`` skip that check.
    """

    __slots__ = ()

    def __new__(cls, x_min: float, y_min: float, x_max: float, y_max: float) -> "AlignedRect":
        self = tuple.__new__(cls, (x_min, y_min, x_max, y_max))
        if not (x_min < x_max and y_min < y_max):
            raise GeometryError(f"empty rectangle: {self}")
        return self

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> Point:
        return ((self.x_min + self.x_max) / 2, (self.y_min + self.y_max) / 2)


# Width over height of the line recognizer's 32x128 input
RECOGNIZER_ASPECT = 128 / 32


def quad_bounds(vertices: Sequence[Point]) -> AlignedRect:
    """Axis-aligned bounding rectangle of a set of points."""
    xs = [p[0] for p in vertices]
    ys = [p[1] for p in vertices]
    return AlignedRect(min(xs), min(ys), max(xs), max(ys))


def snap_rotation(vertices: Sequence[Point]) -> float:
    """Angle in degrees that axis-aligns the quad's dominant edge.

    The dominant axis is the direction of the longest edge, mapped to
    (-90, 90]; among equally long edges the one closest to horizontal wins
    (positive angle on an exact tie).  Boxes tilted by at most 45 degrees
    are rotated back to the x-axis, steeper ones to the y-axis, so the
    returned angle always satisfies abs(angle) <= 45.
    """
    n = len(vertices)
    best_angle: float | None = None
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


def rotate_point(p: Point, theta_degrees: float) -> Point:
    """Rotate a point about the origin by theta (counter-clockwise)."""
    t = math.radians(theta_degrees)
    c, s = math.cos(t), math.sin(t)
    x, y = p
    return (x * c - y * s, x * s + y * c)


def crop_rect(vertices: Sequence[Point], theta_degrees: float) -> AlignedRect:
    """Bounding rectangle of the quad after rotating it by theta.

    This is the crop window a recognizer would see once the image is
    rotated to axis-align the line.
    """
    t = math.radians(theta_degrees)
    c, s = math.cos(t), math.sin(t)  # once per crop: rotate_point's floats
    xs = [x * c - y * s for x, y in vertices]
    ys = [x * s + y * c for x, y in vertices]
    rect = AlignedRect(min(xs), min(ys), max(xs), max(ys))
    if rect.width < 1.0 - 1e-9 or rect.height < 1.0 - 1e-9:
        raise GeometryError(f"crop smaller than one pixel: {rect}")
    return rect


def split_for_recognizer(rect: AlignedRect) -> list[AlignedRect]:
    """Cut a crop into equal-width parts that keep the recognizer's aspect.

    Returns ceil(width / (height * RECOGNIZER_ASPECT)) parts tiling the
    rectangle left to right; a single part when the crop is already at or
    below the target aspect ratio.
    """
    n = max(1, math.ceil(rect.width / (rect.height * RECOGNIZER_ASPECT) - 1e-12))
    if n == 1:
        return [rect]
    edges = [rect.x_min + rect.width * i / n for i in range(n)]
    edges.append(rect.x_max)
    return [
        AlignedRect(edges[i], rect.y_min, edges[i + 1], rect.y_max) for i in range(n)
    ]


def rect_iou(a: AlignedRect, b: AlignedRect) -> float:
    """Intersection over union of two axis-aligned rectangles, in [0, 1].

    Rectangles that only share an edge or a corner have IoU 0.0.
    """
    w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    inter = w * h
    return inter / (a.width * a.height + b.width * b.height - inter)
