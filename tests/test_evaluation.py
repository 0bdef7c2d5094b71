"""Evaluation protocol tests: hulls, matching, metric aggregation."""

from __future__ import annotations

import json

import pytest
from conftest import make_line, sign_gt, synthetic_gt

from blockspot.evaluation import (
    block_hull,
    evaluate,
    match_blocks,
    render_table,
    report_to_dict,
    report_to_json,
)
from blockspot.geometry import quad_bounds
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
        hull = block_hull(doc, doc.blocks[0])
        assert quad_bounds(hull.vertices) == quad_bounds(((10, 20), (110, 20), (110, 45), (10, 45)))

    def test_two_stacked_lines_span(self):
        doc = doc_with_blocks(
            [make_line(0, 10, 10, 110, 30, "a"), make_line(1, 30, 60, 200, 85, "b")],
            [Block(line_ids=(0, 1), text="a b")],
        )
        hull = quad_bounds(block_hull(doc, doc.blocks[0]).vertices)
        assert (hull.x_min, hull.y_min, hull.x_max, hull.y_max) == (10, 10, 200, 85)

    def test_fractional_coordinates_stay_finite(self):
        doc = doc_with_blocks(
            [make_line(0, 10.25, 10.75, 110.5, 30.25, "a")],
            [Block(line_ids=(0,), text="a")],
        )
        hull = block_hull(doc, doc.blocks[0])
        assert len(hull.vertices) == 4


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
