"""Evaluation protocol tests: hulls, matching, metric aggregation."""

from __future__ import annotations

import json
import random

import pytest
from conftest import make_line, sign_gt, synthetic_gt
from hypothesis import given, settings
from hypothesis import strategies as st
from test_geometry import convex_iou

from blockspot import evaluation
from blockspot.evaluation import (
    block_hull,
    evaluate,
    match_blocks,
    render_table,
    report_to_dict,
    report_to_json,
)
from blockspot import metrics
from blockspot.fuzzy import levenshtein
from blockspot.geometry import AlignedRect, quad_bounds, rect_iou
from blockspot.model import Block, Document, validate_document


def doc_with_blocks(lines, blocks, width=1000, height=1000, gt=False):
    doc = Document(
        image_width=width,
        image_height=height,
        lines=tuple(lines),
        blocks=tuple(blocks),
        is_ground_truth=gt,
    )
    validate_document(doc)
    return doc


class TestBlockHull:
    def test_single_line_block(self):
        doc = doc_with_blocks(
            [make_line(0, 10, 20, 110, 45, "x")], [Block(line_ids=(0,), text="x")]
        )
        assert block_hull(doc, doc.blocks[0]) == AlignedRect(10, 20, 110, 45)

    def test_two_stacked_lines_span(self):
        doc = doc_with_blocks(
            [make_line(0, 10, 10, 110, 30, "a"), make_line(1, 30, 60, 200, 85, "b")],
            [Block(line_ids=(0, 1), text="a b")],
        )
        assert block_hull(doc, doc.blocks[0]) == AlignedRect(10, 10, 200, 85)

    def test_fractional_coordinates_stay_finite(self):
        doc = doc_with_blocks(
            [make_line(0, 10.25, 10.75, 110.5, 30.25, "a")],
            [Block(line_ids=(0,), text="a")],
        )
        assert block_hull(doc, doc.blocks[0]) == AlignedRect(10.25, 10.75, 110.5, 30.25)


def oracle_matches(pred, gt):
    """Argmax matching with hulls built from raw vertices and convex-clipping
    IoU; strict ``>`` keeps the smallest ground-truth index on ties."""

    def hull(doc, block):
        points = [p for line in doc.lines if line.id in block.line_ids for p in line.box.vertices]
        xs, ys = [x for x, _ in points], [y for _, y in points]
        return ((min(xs), min(ys)), (max(xs), min(ys)), (max(xs), max(ys)), (min(xs), max(ys)))

    gt_hulls = [hull(gt, block) for block in gt.blocks]
    matches = []
    for p, block in enumerate(pred.blocks):
        pred_hull = hull(pred, block)
        best_iou, best_g = 0.0, -1
        for g, gt_hull in enumerate(gt_hulls):
            value = convex_iou(pred_hull, gt_hull)
            if value > best_iou:
                best_iou, best_g = value, g
        if best_g >= 0:
            matches.append((p, best_g, best_iou))
    return matches


def pxg_matches(pred, gt, min_iou=0.0):
    """The P x G matcher the sorted sweep replaced: every prediction hull
    against every ground-truth hull."""
    gt_hulls = [block_hull(gt, block) for block in gt.blocks]
    matches = []
    for p, block in enumerate(pred.blocks):
        hull = block_hull(pred, block)
        best_iou = 0.0
        best_g = -1
        for g, gt_hull in enumerate(gt_hulls):
            value = rect_iou(hull, gt_hull)
            if value > best_iou:
                best_iou = value
                best_g = g
        if best_g >= 0 and best_iou > min_iou:
            matches.append((p, best_g, best_iou))
    return matches


def rect_doc(rects):
    """One single-line block per (x0, y0, x1, y1) rectangle."""
    return Document(
        image_width=1,
        image_height=1,
        lines=tuple(make_line(i, *r) for i, r in enumerate(rects)),
        blocks=tuple(Block(line_ids=(i,), text="x") for i in range(len(rects))),
    )


@st.composite
def hull_sets(draw):
    """(gt, pred) rectangles whose coordinates come from one small pool of
    integers and floats, so shared edges, nesting and duplicates are common;
    sometimes with one ground-truth hull as tall as the pool."""
    scale = draw(st.sampled_from([1e-7, 1.0, 1e7]))
    values = st.one_of(st.integers(0, 6).map(float), st.floats(1.0, 1e3))
    pool = sorted({v * scale for v in draw(st.lists(values, min_size=2, max_size=8))})
    if len(pool) < 2:
        pool.append(pool[0] * 2 + 1.0)
    span = st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True).map(sorted)
    rect = st.builds(lambda xs, ys: (xs[0], ys[0], xs[1], ys[1]), span, span)
    gt = draw(st.lists(rect, max_size=12))
    pred = draw(st.lists(st.one_of(rect, st.sampled_from(gt)) if gt else rect, max_size=12))
    if draw(st.booleans()):
        xs = draw(span)
        gt.insert(draw(st.integers(0, len(gt))), (xs[0], pool[0], xs[1], pool[-1]))
    return gt, pred


def jittered_prediction(gt, rng):
    """``gt`` shifted by (30, 30), each line moved by up to 30 px more and
    resized by fractional amounts; about half the multi-line blocks are
    split after their first line."""
    lines = []
    for line in gt.lines:
        r = quad_bounds(line.box.vertices)
        dx, dy = 30 + rng.uniform(-30, 30), 30 + rng.uniform(-30, 30)
        lines.append(
            make_line(
                line.id, r.x_min + dx, r.y_min + dy,
                r.x_max + dx + rng.uniform(-20, 20), r.y_max + dy + rng.uniform(-5, 5),
                line.text,
            )
        )
    blocks = []
    for block in gt.blocks:
        if len(block.line_ids) > 1 and rng.random() < 0.5:
            blocks.append(Block(line_ids=block.line_ids[:1], text="x"))
            blocks.append(Block(line_ids=block.line_ids[1:], text="x"))
        else:
            blocks.append(Block(line_ids=block.line_ids, text="x"))
    return doc_with_blocks(lines, blocks, width=gt.image_width + 60, height=gt.image_height + 60)


class TestMatchBlocks:
    def test_identical_documents_match_perfectly(self):
        doc = synthetic_gt(6)
        matches = match_blocks(doc, doc)
        assert [(p, g) for p, g, _ in matches] == [(i, i) for i in range(6)]
        assert all(value == pytest.approx(1.0) for _, _, value in matches)

    def test_argmax_prefers_bigger_overlap(self):
        gt = doc_with_blocks(
            [make_line(0, 0, 0, 100, 50, "top"), make_line(1, 0, 200, 100, 250, "bottom")],
            [Block(line_ids=(0,), text="top"), Block(line_ids=(1,), text="bottom")],
            gt=True,
        )
        pred = doc_with_blocks(
            [make_line(0, 0, 10, 100, 60, "near top")],
            [Block(line_ids=(0,), text="near top")],
        )
        matches = match_blocks(pred, gt)
        assert len(matches) == 1
        assert matches[0][1] == 0

    def test_disjoint_prediction_unmatched(self):
        gt = doc_with_blocks(
            [make_line(0, 0, 0, 100, 50, "a")], [Block(line_ids=(0,), text="a")], gt=True
        )
        pred = doc_with_blocks(
            [make_line(0, 500, 500, 600, 550, "b")], [Block(line_ids=(0,), text="b")]
        )
        assert match_blocks(pred, gt) == []

    def test_min_iou_threshold_drops_weak_overlaps(self):
        gt = doc_with_blocks(
            [make_line(0, 0, 0, 100, 100, "a")], [Block(line_ids=(0,), text="a")], gt=True
        )
        pred = doc_with_blocks(
            [make_line(0, 90, 90, 190, 190, "b")], [Block(line_ids=(0,), text="b")]
        )
        assert len(match_blocks(pred, gt)) == 1  # tiny corner overlap still matches
        assert match_blocks(pred, gt, min_iou=0.5) == []

    def test_many_to_one_allowed(self):
        gt = doc_with_blocks(
            [make_line(0, 0, 0, 200, 100, "whole")], [Block(line_ids=(0,), text="whole")], gt=True
        )
        pred = doc_with_blocks(
            [make_line(0, 0, 0, 90, 100, "left"), make_line(1, 110, 0, 200, 100, "right")],
            [Block(line_ids=(0,), text="left"), Block(line_ids=(1,), text="right")],
        )
        matches = match_blocks(pred, gt)
        assert [(p, g) for p, g, _ in matches] == [(0, 0), (1, 0)]

    def test_equal_iou_goes_to_lowest_gt_index(self):
        # gt blocks 1 and 2 have identical hulls and beat block 0
        gt = doc_with_blocks(
            [
                make_line(0, 0, 0, 100, 40, "far"),
                make_line(1, 0, 100, 100, 140, "twin"),
                make_line(2, 0, 100, 100, 140, "twin"),
            ],
            [Block(line_ids=(i,), text=t) for i, t in enumerate(("far", "twin", "twin"))],
            gt=True,
        )
        pred = doc_with_blocks(
            [make_line(0, 0, 30, 100, 130, "p")], [Block(line_ids=(0,), text="p")]
        )
        matches = match_blocks(pred, gt)
        assert [(p, g) for p, g, _ in matches] == [(0, 1)]

    @pytest.mark.parametrize("seed", range(5))
    def test_same_pairs_as_convex_clipping_matcher(self, seed):
        rng = random.Random(seed)
        gt = synthetic_gt(rng.randint(10, 40))
        pred = jittered_prediction(gt, rng)
        got = match_blocks(pred, gt)
        want = oracle_matches(pred, gt)
        assert [(p, g) for p, g, _ in got] == [(p, g) for p, g, _ in want]
        for (_, _, a), (_, _, b) in zip(got, want):
            assert abs(a - b) <= 1e-9

    @settings(max_examples=500, deadline=None)
    @given(hull_sets(), st.sampled_from([0.0, 0.3, 1.0]))
    def test_same_triples_as_pxg_matcher(self, hulls, min_iou):
        gt_rects, pred_rects = hulls
        pred, gt = rect_doc(pred_rects), rect_doc(gt_rects)
        assert match_blocks(pred, gt, min_iou) == pxg_matches(pred, gt, min_iou)

    def test_touching_nested_and_tall_hulls(self):
        gt = rect_doc([(0, 10, 10, 20), (0, 0, 10, 10), (2, 2, 8, 8), (0, 10, 10, 20), (20, 0, 21, 100)])
        pred = rect_doc(
            [(0, 20, 10, 30), (10, 0, 20, 10), (0, 5, 10, 15), (2, 2, 8, 8), (0, 10, 10, 20), (19, 40, 22, 60)]
        )
        got = match_blocks(pred, gt)
        assert got == pxg_matches(pred, gt)
        # hulls sharing only an edge do not match; prediction 2 overlaps ground
        # truth 0, 1 and 3 equally and goes to 0 although 1 starts higher up
        assert [(p, g) for p, g, _ in got] == [(2, 0), (3, 2), (4, 0), (5, 4)]
        assert match_blocks(rect_doc([]), gt) == match_blocks(pred, rect_doc([])) == []

    def test_window_excludes_hulls_sharing_an_edge(self, monkeypatch):
        gt = rect_doc([(0, 0, 10, 10), (0, 10, 10, 20), (0, 20, 10, 30)])
        pred = rect_doc([(0, 10, 10, 20)])
        calls = []
        monkeypatch.setattr(evaluation, "quad_iou", lambda a, b: calls.append(b) or rect_iou(a, b))
        assert match_blocks(pred, gt) == [(0, 1, 1.0)]
        assert calls == [AlignedRect(0, 10, 10, 20)]

    def test_sweep_skips_most_pairs(self, monkeypatch):
        gt = synthetic_gt(300)
        pred = jittered_prediction(gt, random.Random(3))
        want = pxg_matches(pred, gt)
        calls = []
        monkeypatch.setattr(evaluation, "quad_iou", lambda a, b: calls.append(1) or rect_iou(a, b))
        assert match_blocks(pred, gt) == want
        assert 0 < len(calls) < 0.1 * len(pred.blocks) * len(gt.blocks)


class TestEvaluate:
    def test_self_evaluation_law(self):
        doc = synthetic_gt(20)
        report = evaluate(doc, doc)
        assert len(report.pairs) == 20
        assert report.unmatched_pred == 0
        assert report.mean_nld == pytest.approx(0.0, abs=1e-12)
        assert report.mean_jaro_winkler == pytest.approx(1.0, abs=1e-12)
        assert report.mean_ratcliff_obershelp == pytest.approx(1.0, abs=1e-12)

    def test_partial_prediction_aligns_to_substring(self):
        gt = sign_gt()
        pred = doc_with_blocks(
            [make_line(0, 310, 20, 420, 60, "CYCLNG")],
            [Block(line_ids=(0,), text="CYCLNG")],
            width=500,
            height=120,
        )
        report = evaluate(pred, gt)
        assert len(report.pairs) == 1
        pair = report.pairs[0]
        assert pair.gt_substring == "CYCLING"
        assert pair.metrics.nld == pytest.approx(1 / 7, abs=1e-12)

    def test_no_edit_distance_outside_the_alignment(self, monkeypatch):
        # each pair's NLD is the distance its fuzzy alignment already found
        def forbidden(a, b):
            raise AssertionError("edit distance recomputed outside best_fuzzy_substring")

        monkeypatch.setattr(metrics, "levenshtein", forbidden)
        gt = synthetic_gt(6)
        noisy = doc_with_blocks(
            list(gt.lines),
            [Block(line_ids=b.line_ids, text=b.text.lower()[2:]) for b in gt.blocks],
            width=gt.image_width,
            height=gt.image_height,
        )
        for pred, gold in ((sign_gt(), sign_gt()), (gt, gt), (noisy, gt)):
            report = evaluate(pred, gold)
            assert len(report.pairs) == len(gold.blocks)
            for pair in report.pairs:
                longest = max(len(pair.pred_text), len(pair.gt_substring), 1)
                distance = levenshtein(pair.pred_text, pair.gt_substring)
                assert pair.metrics.nld == distance / longest

    def test_scale_invariance_of_matching_and_metrics(self):
        def scaled(doc, factor):
            lines = [
                make_line(
                    line.id,
                    *(v * factor for v in (
                        quad_bounds(line.box.vertices).x_min,
                        quad_bounds(line.box.vertices).y_min,
                        quad_bounds(line.box.vertices).x_max,
                        quad_bounds(line.box.vertices).y_max,
                    )),
                    line.text,
                )
                for line in doc.lines
            ]
            return doc_with_blocks(
                lines, doc.blocks, width=doc.image_width * factor,
                height=doc.image_height * factor, gt=doc.is_ground_truth,
            )

        gt = synthetic_gt(5)
        pred = doc_with_blocks(
            list(gt.lines),
            [Block(line_ids=b.line_ids, text=b.text.lower()) for b in gt.blocks],
            width=gt.image_width,
            height=gt.image_height,
        )
        base = evaluate(pred, gt)
        grown = evaluate(scaled(pred, 3), scaled(gt, 3))
        assert [(p.pred_block_index, p.gt_block_index) for p in base.pairs] == [
            (p.pred_block_index, p.gt_block_index) for p in grown.pairs
        ]
        assert base.mean_nld == pytest.approx(grown.mean_nld, abs=1e-12)
        assert base.mean_jaro_winkler == pytest.approx(grown.mean_jaro_winkler, abs=1e-12)

    def test_every_prediction_accounted_for(self):
        gt = synthetic_gt(4)
        pred = doc_with_blocks(
            list(gt.lines) + [make_line(999, 300, 5, 380, 25, "stray")],
            list(gt.blocks) + [Block(line_ids=(999,), text="stray")],
            width=gt.image_width,
            height=gt.image_height,
        )
        report = evaluate(pred, gt)
        assert len(report.pairs) + report.unmatched_pred == len(pred.blocks)

    def test_no_overlap_reports_absent_means(self):
        gt = doc_with_blocks(
            [make_line(0, 0, 0, 50, 20, "a")], [Block(line_ids=(0,), text="a")], gt=True
        )
        pred = doc_with_blocks(
            [make_line(0, 500, 500, 550, 520, "b")], [Block(line_ids=(0,), text="b")]
        )
        report = evaluate(pred, gt)
        assert report.pairs == ()
        assert report.unmatched_pred == 1
        assert report.mean_nld is None
        assert report.mean_jaro_winkler is None

    def test_missing_text_rejected(self):
        gt = synthetic_gt(2)
        pred = doc_with_blocks(
            list(gt.lines),
            [Block(line_ids=b.line_ids, text=None) for b in gt.blocks],
            width=gt.image_width,
            height=gt.image_height,
        )
        with pytest.raises(ValueError, match="has no text"):
            evaluate(pred, gt)

    def test_config_echoed(self):
        doc = synthetic_gt(3)
        report = evaluate(doc, doc, min_iou=0.25)
        assert report.min_iou == 0.25
        assert report_to_dict(report)["config"] == {"min_iou": 0.25}


class TestRendering:
    def test_json_round_trips_and_names_metrics(self):
        doc = synthetic_gt(3)
        report = evaluate(doc, doc)
        data = json.loads(report_to_json(report))
        assert data["num_pairs"] == 3
        assert data["mean_jaro_winkler"] == pytest.approx(1.0)
        assert data["config"]["min_iou"] == 0.0
        assert len(data["pairs"]) == 3
        assert report_to_dict(report)["pairs"][0]["gt_substring"]

    def test_table_contains_metric_rows(self):
        doc = synthetic_gt(2)
        table = render_table(evaluate(doc, doc))
        assert "Jaro-Winkler Similarity" in table
        assert "Ratcliff-Obershelp Similarity" in table
        assert "Normalized Levenshtein Distance" in table
        assert "0.0000" in table and "1.0000" in table

    def test_table_with_no_pairs(self):
        gt = doc_with_blocks(
            [make_line(0, 0, 0, 50, 20, "a")], [Block(line_ids=(0,), text="a")], gt=True
        )
        pred = doc_with_blocks(
            [make_line(0, 500, 500, 550, 520, "b")], [Block(line_ids=(0,), text="b")]
        )
        table = render_table(evaluate(pred, gt))
        assert "n/a" in table
        assert "undefined" in table
