"""Tests for the heuristic geometric line ordering."""

from __future__ import annotations

import random
from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspot.geo_order import OrderingMode, choose_mode, geometric_order
from blockspot.geometry import AlignedRect, quad_bounds
from blockspot.model import Line, Quad


def make_line(line_id: int, rect: AlignedRect, text: str = "") -> Line:
    box = Quad.from_points(
        [
            [rect.x_min, rect.y_min],
            [rect.x_max, rect.y_min],
            [rect.x_max, rect.y_max],
            [rect.x_min, rect.y_max],
        ]
    )
    return Line(id=line_id, box=box, text=text)


def shift_line(line: Line, dx: float, dy: float) -> Line:
    r = line.box.bounds
    return make_line(line.id, AlignedRect(r.x_min + dx, r.y_min + dy, r.x_max + dx, r.y_max + dy), line.text)


def union_find_order(lines: list[Line]) -> list[int]:
    """Oracle for ``geometric_order``: single linkage by union-find over all
    pairs, on boxes bounded from the vertices here rather than read from
    ``Quad.bounds``."""
    rects = [quad_bounds(line.box.vertices) for line in lines]
    if choose_mode(lines) is OrderingMode.TTB_LTR:
        along = [rect.center[1] for rect in rects]
        across = [rect.x_min for rect in rects]
        threshold = 0.5 * median(rect.height for rect in rects)
    else:
        along = [rect.center[0] for rect in rects]
        across = [rect.y_min for rect in rects]
        threshold = 0.5 * median(rect.width for rect in rects)
    ids = [line.id for line in lines]
    n = len(lines)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(along[i] - along[j]) < threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    ordered_groups = sorted(
        groups.values(),
        key=lambda members: (
            sum(along[i] for i in members) / len(members),
            min(ids[i] for i in members),
        ),
    )
    result: list[int] = []
    for members in ordered_groups:
        members.sort(key=lambda i: (across[i], ids[i]))
        result.extend(ids[i] for i in members)
    return result


class TestChooseMode:
    def test_wide_rects_are_rows(self):
        lines = [make_line(i, AlignedRect(0, 30 * i, 100, 30 * i + 20)) for i in range(3)]
        assert choose_mode(lines) is OrderingMode.TTB_LTR

    def test_tall_rects_are_columns(self):
        lines = [make_line(i, AlignedRect(30 * i, 0, 30 * i + 20, 100)) for i in range(3)]
        assert choose_mode(lines) is OrderingMode.LTR_TTB

    def test_square_ties_to_rows(self):
        lines = [make_line(0, AlignedRect(0, 0, 50, 50))]
        assert choose_mode(lines) is OrderingMode.TTB_LTR

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            choose_mode([])


class TestGeometricOrder:
    def test_stacked_lines_keep_vertical_order(self):
        lines = [
            make_line(7, AlignedRect(0, 0, 100, 20)),
            make_line(3, AlignedRect(0, 30, 100, 50)),
            make_line(5, AlignedRect(0, 60, 100, 80)),
        ]
        assert geometric_order(lines) == [7, 3, 5]

    def test_left_to_right_within_row(self):
        lines = [
            make_line(2, AlignedRect(120, 0, 220, 20)),
            make_line(9, AlignedRect(0, 2, 100, 22)),
        ]
        assert geometric_order(lines) == [9, 2]

    def test_sign_layout_reads_left_block_first(self):
        # big text on the left sharing a row with smaller text on the right:
        # position alone reads the left line first even when meaning says
        # otherwise
        cycling = make_line(1, AlignedRect(0, 10, 300, 90), "TO LOVE CYCLING")
        reasons = make_line(0, AlignedRect(310, 20, 420, 60), "20 REASONS")
        assert geometric_order([cycling, reasons]) == [1, 0]
        assert geometric_order([reasons, cycling]) == [1, 0]

    def test_identical_centers_order_by_id(self):
        rect = AlignedRect(10, 10, 110, 30)
        lines = [make_line(5, rect), make_line(2, rect)]
        assert geometric_order(lines) == [2, 5]

    def test_rows_a_few_ulps_apart_read_in_position_order(self):
        # line 0's center sits one ulp below the others', and the threshold is
        # one ulp, so it is a row of its own below theirs; a rounded mean of
        # the upper row must not move that row after it
        lines = [make_line(0, AlignedRect(20, 1000.0000000000001, 70, 1000.0000000000003))]
        lines += [make_line(i + 1, AlignedRect(100 * i, 1000.0, 100 * i + 50, 1000.0000000000002)) for i in range(5)]
        assert geometric_order(lines) == [1, 2, 3, 4, 5, 0]

    def test_subnormal_heights_read_tied_centers_by_id(self):
        # the threshold rounds to 0.0, so every line is a row of its own
        lines = [make_line(i, AlignedRect(x, 0.0, x + 50, 5e-324)) for i, x in ((3, 0), (1, 200), (2, 100))]
        assert 0.5 * lines[0].box.bounds.height == 0.0
        assert geometric_order(lines) == [1, 2, 3]

    def test_column_mode_transposed(self):
        left = make_line(1, AlignedRect(0, 0, 20, 100))
        right = make_line(0, AlignedRect(40, 5, 60, 105))
        assert geometric_order([right, left]) == [1, 0]

    def test_permutation_property(self):
        rng = random.Random(37)
        for _ in range(200):
            lines = []
            for i in range(rng.randint(1, 10)):
                x = rng.uniform(0, 500)
                y = rng.uniform(0, 500)
                lines.append(
                    make_line(i, AlignedRect(x, y, x + rng.uniform(5, 200), y + rng.uniform(5, 60)))
                )
            order = geometric_order(lines)
            assert sorted(order) == sorted(l.id for l in lines)

    def test_translation_invariance(self):
        rng = random.Random(41)
        for _ in range(100):
            lines = []
            for i in range(rng.randint(2, 8)):
                x = rng.uniform(0, 300)
                y = rng.uniform(0, 300)
                lines.append(
                    make_line(i, AlignedRect(x, y, x + rng.uniform(5, 150), y + rng.uniform(5, 40)))
                )
            dx, dy = rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)
            shifted = [shift_line(line, dx, dy) for line in lines]
            assert geometric_order(lines) == geometric_order(shifted)

    def test_monotone_y_for_separated_rows(self):
        rng = random.Random(43)
        for _ in range(100):
            lines = []
            y = 0.0
            order_truth = list(range(rng.randint(2, 8)))
            for i in order_truth:
                h = rng.uniform(10, 30)
                lines.append(make_line(i, AlignedRect(rng.uniform(0, 50), y, rng.uniform(100, 300), y + h)))
                y += h + rng.uniform(25, 60)  # gap larger than any row threshold
            rng.shuffle(lines)
            assert geometric_order(lines) == order_truth

    @given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_determinism(self, count, rnd):
        lines = []
        for i in range(count):
            x = rnd.uniform(0, 400)
            y = rnd.uniform(0, 400)
            lines.append(make_line(i, AlignedRect(x, y, x + rnd.uniform(4, 120), y + rnd.uniform(4, 120))))
        assert geometric_order(lines) == geometric_order(list(lines))

    @given(
        st.one_of(
            st.lists(
                st.tuples(
                    st.integers(0, 40),  # x_min, y_min on a coarse grid: many tied centers
                    st.integers(0, 40),
                    st.sampled_from([1, 2, 4, 7, 12, 30]),  # width
                    st.sampled_from([1, 2, 4, 7, 12, 30]),  # height
                ),
                min_size=1,
                max_size=12,
            ),
            st.lists(  # float boxes, up to the 36 lines of a poster
                st.tuples(
                    st.floats(0, 500),
                    st.floats(0, 500),
                    st.floats(0.5, 300),
                    st.floats(0.5, 300),
                ),
                min_size=1,
                max_size=36,
            ),
        ),
        st.permutations(range(36)),
    )
    @settings(max_examples=600, deadline=None)
    def test_matches_union_find_oracle(self, boxes, id_perm):
        lines = [
            make_line(id_perm[i], AlignedRect(x, y, x + w, y + h))
            for i, (x, y, w, h) in enumerate(boxes)
        ]
        assert geometric_order(lines) == union_find_order(lines)
