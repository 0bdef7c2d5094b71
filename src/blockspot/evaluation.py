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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .fuzzy import best_fuzzy_substring
from .geometry import AlignedRect
# Bound as ``quad_iou`` because bench/tracer.py counts IoU calls through
# this name and bench/test_bench.py patches it to inject a matching fault.
from .geometry import rect_iou as quad_iou
from .metrics import MetricVector, compute_metrics
from .model import Block, Document


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


def block_hull(doc: Document, block: Block) -> AlignedRect:
    """Axis-aligned rectangle covering the bounds of every line of the block."""
    rects = [doc.line_by_id(lid).box.bounds for lid in block.line_ids]
    x_mins, y_mins, x_maxs, y_maxs = zip(*rects)
    return AlignedRect(min(x_mins), min(y_mins), max(x_maxs), max(y_maxs))


def match_blocks(
    pred: Document, gt: Document, min_iou: float = 0.0
) -> list[tuple[int, int, float]]:
    """Argmax-IoU matching of predicted blocks onto ground-truth blocks.

    Returns (pred_index, gt_index, iou) triples; predictions whose best
    IoU is <= min_iou are dropped.  Equal IoUs resolve to the smallest
    ground-truth index.

    A sorted sweep finds the candidates: ground-truth hulls are ordered by
    ``y_min`` and ``reach`` is the running maximum of their ``y_max``.  The
    hulls before ``bisect_right(reach, y_min)`` end at or above the
    prediction and those from ``bisect_left(tops, y_max)`` on start at or
    below it, so all of them have IoU 0.  The window uses comparisons
    only, so it is exact.  Candidates are scanned in ground-truth index
    order.  A hull as tall as the page widens every window to the whole
    list, and a row of hulls that share one y-range (vertical text set side
    by side) puts the whole row in each window; either is up to P x G work
    again, but still correct.
    """
    gt_hulls = [block_hull(gt, block) for block in gt.blocks]
    order = sorted(range(len(gt_hulls)), key=lambda g: gt_hulls[g].y_min)
    tops = [gt_hulls[g].y_min for g in order]
    reach = list(accumulate((gt_hulls[g].y_max for g in order), max))
    matches = []
    for p, block in enumerate(pred.blocks):
        hull = block_hull(pred, block)
        best_iou = 0.0
        best_g = -1
        lo, hi = bisect_right(reach, hull.y_min), bisect_left(tops, hull.y_max)
        for g in sorted(order[lo:hi]):
            value = quad_iou(hull, gt_hulls[g])
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
                metrics=compute_metrics(pred_text, found),
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
    return json.dumps(report_to_dict(report), ensure_ascii=False)


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
