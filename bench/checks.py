"""Correctness checks against the truth the generators know.

One document is 1 + blocks + pairs operations.  An operation fails when:

* the document raises anywhere in the flow (all its operations fail);
* an output block's text or strategy differs from the expectation;
* a predicted block is matched to a ground-truth block other than its
  source, or not matched at all;
* a pair's ``gt_substring`` is not a substring of its ground-truth text;
* a pair's alignment is further from the prediction than the prediction's
  known source span is.

The distance check uses its own banded edit distance, so it does not rely
on the program's fuzzy or metrics code.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def edit_distance(a: str, b: str, limit: int) -> int:
    """Levenshtein distance of ``a`` and ``b`` if at most ``limit``, else ``limit + 1``."""
    if a == b:
        return 0
    n, m = len(a), len(b)
    big = limit + 1
    if abs(n - m) > limit:
        return big
    prev = [j if j <= limit else big for j in range(m + 1)]
    for i in range(1, n + 1):
        lo, hi = max(1, i - limit), min(m, i + limit)
        cur = [big] * (m + 1)
        if i <= limit:
            cur[0] = i
        ca = a[i - 1]
        for j in range(lo, hi + 1):
            v = prev[j - 1] + (ca != b[j - 1])
            if prev[j] + 1 < v:
                v = prev[j] + 1
            if cur[j - 1] + 1 < v:
                v = cur[j - 1] + 1
            cur[j] = v if v < big else big
        if min(cur[lo - 1 : hi + 1]) >= big:
            return big
        prev = cur
    return prev[m]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: 20 - len(self.problems)])


def operations(case) -> int:
    return 1 + len(case.expected_blocks) + len(case.expected_pairs)


def check_case(case, outcomes, pred_doc, report) -> Tally:
    """Compare one document's outputs with the generator's truth.

    ``outcomes`` come from ``run``; ``pred_doc`` is the ordered document
    parsed back from its serialization; ``report`` is the ``evaluate`` result.
    """
    tally = Tally(attempted=operations(case))
    for i, (text, strategy) in enumerate(case.expected_blocks):
        if i >= len(outcomes) or i >= len(pred_doc.blocks):
            tally.fail(f"block {i}: missing from the output")
            continue
        got_strategy = outcomes[i].strategy.value
        got_text = pred_doc.blocks[i].text
        if got_strategy != strategy or got_text != text:
            tally.fail(f"block {i}: got {got_strategy} {got_text!r}, want {strategy} {text!r}")
    extra = len(outcomes) - len(case.expected_blocks)
    if extra > 0:
        tally.attempted += extra
        for i in range(extra):
            tally.fail(f"block {len(case.expected_blocks) + i}: not expected")

    pairs = {p.pred_block_index: p for p in report.pairs}
    for p, (g, source_distance) in enumerate(case.expected_pairs):
        pair = pairs.get(p)
        if pair is None:
            tally.fail(f"pair {p}: unmatched")
        elif pair.gt_block_index != g:
            tally.fail(f"pair {p}: matched to gt block {pair.gt_block_index}, source is {g}")
        elif pair.gt_substring not in case.gt_texts[g]:
            tally.fail(f"pair {p}: {pair.gt_substring!r} is not in gt block {g}")
        elif edit_distance(pair.pred_text, pair.gt_substring, source_distance) > source_distance:
            tally.fail(
                f"pair {p}: alignment {pair.gt_substring!r} is further than the source span "
                f"(distance {source_distance})"
            )
    return tally


def failed_document(case, error: BaseException) -> Tally:
    n = operations(case)
    return Tally(attempted=n, failed=n, problems=[f"document raised {type(error).__name__}: {error}"])
