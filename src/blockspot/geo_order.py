"""Heuristic geometric ordering of lines within a block.

Lines are arranged either as stacked rows read top-to-bottom then
left-to-right (the usual case for horizontal text), or as side-by-side
columns read left-to-right then top-to-bottom (vertical text).  This is
the order used to pass lines to the LLM and the fallback when the LLM
cannot be used.  The clustering rule here is a pragmatic stand-in: lines
whose vertical centers sit within half the median line height of each
other are treated as one row (transposed for columns).  Both read each
line's ``box.bounds``.
"""

from __future__ import annotations

import enum
from statistics import median
from typing import Sequence

from .model import Line


class OrderingMode(enum.Enum):
    TTB_LTR = "top_to_bottom_left_to_right"
    LTR_TTB = "left_to_right_top_to_bottom"


def choose_mode(lines: Sequence[Line]) -> OrderingMode:
    """Pick row-major vs column-major from the median line aspect.

    Wider-than-tall lines read as stacked rows (TTB_LTR); taller ones as
    columns.  A square median ties toward TTB_LTR.
    """
    if not lines:
        raise ValueError("no lines to order")
    aspect = median(line.box.bounds.width / line.box.bounds.height for line in lines)
    return OrderingMode.TTB_LTR if aspect >= 1.0 else OrderingMode.LTR_TTB


def geometric_order(lines: Sequence[Line]) -> list[int]:
    """Order line ids by position alone; always a permutation of the input.

    Rows (or columns) are formed by single-linkage clustering on center
    distance with threshold 0.5 x the median rect extent, sorted by their
    mean center, and read x_min-first (y_min-first for columns).  All ties
    break toward the smaller line id, so the result is deterministic and
    translation invariant.
    """
    if not lines:
        raise ValueError("no lines to order")
    rects = [line.box.bounds for line in lines]
    if choose_mode(lines) is OrderingMode.TTB_LTR:
        along = [rect.center[1] for rect in rects]  # cluster on y
        across = [rect.x_min for rect in rects]  # read rows by x
        threshold = 0.5 * median(rect.height for rect in rects)
    else:
        along = [rect.center[0] for rect in rects]
        across = [rect.y_min for rect in rects]
        threshold = 0.5 * median(rect.width for rect in rects)

    ids = [line.id for line in lines]

    # Single-linkage clusters over |center distance| < threshold: in 1-D
    # these are the runs of the sorted centers split at every gap >= threshold.
    groups: list[list[int]] = []
    previous = None
    for i in sorted(range(len(lines)), key=along.__getitem__):
        if previous is None or along[i] - previous >= threshold:
            groups.append([])
        groups[-1].append(i)
        previous = along[i]

    ordered_groups = sorted(
        groups,
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
