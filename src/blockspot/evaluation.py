"""Evaluation protocol: IoU matching, fuzzy alignment, metric aggregation.

Each predicted block is matched to the ground-truth block whose hull
rectangle it overlaps most (pure argmax IoU; several predictions may share
one ground-truth block).  Because a prediction may cover only part of a
ground-truth block, its text is compared against its best fuzzy substring
match inside the gold string rather than the whole string.  Metrics are
averaged without weighting over the matched pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .fuzzy import best_fuzzy_substring
from .geometry import iou as quad_iou
from .geometry import quad_bounds
from .metrics import MetricVector, compute_metrics
from .model import Block, Document, Quad


@dataclass(frozen=True)
class EvalPair:
    """One matched (prediction, ground-truth substring) comparison."""

    pred_block_index: int
    gt_block_index: int
    iou: float
    pred_text: str
    gt_substring: str
    metrics: MetricVector

    def __post_init__(self) -> None:
        if self.iou <= 0:
            raise ValueError("matched pairs must overlap")


@dataclass(frozen=True)
class EvalReport:
    """Matched pairs plus unweighted metric means; means are None when
    nothing matched."""

    pairs: tuple[EvalPair, ...]
    unmatched_pred: int
    mean_nld: float | None
    mean_jaro_winkler: float | None
    mean_ratcliff_obershelp: float | None
    min_iou: float


def block_hull(doc: Document, block: Block) -> Quad:
    """Axis-aligned rectangle covering every line of the block, as a quad."""
    rects = [quad_bounds(doc.line_by_id(lid).box.vertices) for lid in block.line_ids]
    x0 = min(r.x_min for r in rects)
    y0 = min(r.y_min for r in rects)
    x1 = max(r.x_max for r in rects)
    y1 = max(r.y_max for r in rects)
    return Quad.from_points([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def match_blocks(
    pred: Document, gt: Document, min_iou: float = 0.0
) -> list[tuple[int, int, float]]:
    """Argmax-IoU matching of predicted blocks onto ground-truth blocks.

    Returns (pred_index, gt_index, iou) triples; predictions whose best
    IoU is <= min_iou are dropped.  Equal IoUs resolve to the smallest
    ground-truth index.
    """
    gt_hulls = [block_hull(gt, block).vertices for block in gt.blocks]
    matches = []
    for p, block in enumerate(pred.blocks):
        hull = block_hull(pred, block).vertices
        best_iou = 0.0
        best_g = -1
        for g, gt_hull in enumerate(gt_hulls):
            value = quad_iou(hull, gt_hull)
            if value > best_iou:
                best_iou = value
                best_g = g
        if best_g >= 0 and best_iou > min_iou:
            matches.append((p, best_g, best_iou))
    return matches


def evaluate(pred: Document, gt: Document, min_iou: float = 0.0) -> EvalReport:
    """Match blocks, align texts by fuzzy substring, and average metrics."""
    for i, block in enumerate(pred.blocks):
        if block.text is None:
            raise ValueError(f"prediction block {i} has no text")
    for i, block in enumerate(gt.blocks):
        if block.text is None:
            raise ValueError(f"ground-truth block {i} has no text")

    matches = match_blocks(pred, gt, min_iou)
    pairs = []
    for p, g, value in matches:
        pred_text = pred.blocks[p].text
        gt_text = gt.blocks[g].text
        found = best_fuzzy_substring(pred_text, gt_text)
        pairs.append(
            EvalPair(
                pred_block_index=p,
                gt_block_index=g,
                iou=value,
                pred_text=pred_text,
                gt_substring=found.substring,
                metrics=compute_metrics(pred_text, found.substring),
            )
        )

    def mean(values: Sequence[float]) -> float | None:
        return sum(values) / len(values) if values else None

    return EvalReport(
        pairs=tuple(pairs),
        unmatched_pred=len(pred.blocks) - len(pairs),
        mean_nld=mean([p.metrics.nld for p in pairs]),
        mean_jaro_winkler=mean([p.metrics.jaro_winkler for p in pairs]),
        mean_ratcliff_obershelp=mean([p.metrics.ratcliff_obershelp for p in pairs]),
        min_iou=min_iou,
    )


def report_to_dict(report: EvalReport) -> dict:
    return {
        "config": {"min_iou": report.min_iou},
        "num_pairs": len(report.pairs),
        "unmatched_pred": report.unmatched_pred,
        "mean_normalized_levenshtein": report.mean_nld,
        "mean_jaro_winkler": report.mean_jaro_winkler,
        "mean_ratcliff_obershelp": report.mean_ratcliff_obershelp,
        "pairs": [
            {
                "pred_block": p.pred_block_index,
                "gt_block": p.gt_block_index,
                "iou": p.iou,
                "pred_text": p.pred_text,
                "gt_substring": p.gt_substring,
                "normalized_levenshtein": p.metrics.nld,
                "jaro_winkler": p.metrics.jaro_winkler,
                "ratcliff_obershelp": p.metrics.ratcliff_obershelp,
            }
            for p in report.pairs
        ],
    }


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report_to_dict(report), ensure_ascii=False, indent=2)


_TABLE_ROWS = (
    ("Jaro-Winkler Similarity", "mean_jaro_winkler", "higher is better"),
    ("Ratcliff-Obershelp Similarity", "mean_ratcliff_obershelp", "higher is better"),
    ("Normalized Levenshtein Distance", "mean_nld", "lower is better"),
)


def render_table(report: EvalReport) -> str:
    """Aligned plain-text summary of the three string metrics."""
    lines = [
        f"matched pairs: {len(report.pairs)}    unmatched predictions: {report.unmatched_pred}"
    ]
    if not report.pairs:
        lines.append("no overlapping blocks: metric means are undefined")
    width = max(len(name) for name, _, _ in _TABLE_ROWS)
    for name, attr, direction in _TABLE_ROWS:
        value = getattr(report, attr)
        rendered = f"{value:.4f}" if value is not None else "n/a"
        lines.append(f"{name:<{width}}  {rendered:>8}  ({direction})")
    return "\n".join(lines)
