"""Approximate substring search: Levenshtein distance and best fuzzy substring.

The best fuzzy substring match of ``query`` in ``corpus`` is the substring
of ``corpus`` with the lowest Levenshtein distance to ``query``.
:func:`best_fuzzy_substring` finds it exactly with the bit-parallel edit DP
of Myers (1999): a search pass over the reversed strings gives the best
distance for every start, and one anchored pass (Hyyrö 2003) from the
smallest winning start gives the shortest winning end.  The result is the
same as literally enumerating all substrings, in O(len(corpus)) big-integer
steps per pass.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MatchResult:
    """A located substring with its edit distance to the query.

    ``corpus[start:end] == substring`` and
    ``distance == levenshtein(query, substring)`` always hold.
    """

    substring: str
    start: int
    end: int
    distance: int


def _edit_row(pattern: str, text: str, free_start: bool) -> list[int]:
    """Last row of the pattern-vs-text edit DP, one column per text prefix.

    Entry j is the distance between all of ``pattern`` and ``text[:j]``;
    with ``free_start`` the top row costs nothing, so entry j is the best
    distance to any suffix of ``text[:j]``.  Column deltas are kept as
    bit-vectors (bit i for pattern row i+1): ``pv``/``mv`` mark vertical
    +1/-1 steps, ``ph``/``mh`` horizontal ones, and the last row's value
    follows the high bit.
    """
    m = len(pattern)
    if not m:
        return [0] * (len(text) + 1) if free_start else list(range(len(text) + 1))
    peq: dict[str, int] = {}
    for i, c in enumerate(pattern):
        peq[c] = peq.get(c, 0) | (1 << i)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    carry = 0 if free_start else 1  # horizontal step of the top row
    pv, mv, score = mask, 0, m
    row = [m]
    append = row.append
    get = peq.get
    for c in text:
        x = get(c, 0) | mv
        d0 = (((x & pv) + pv) ^ pv) | x
        ph = mv | ~(d0 | pv)
        mh = d0 & pv
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = (ph << 1) | carry
        mh <<= 1
        pv = (mh | ~(d0 | ph)) & mask
        mv = ph & d0 & mask
        append(score)
    return row


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert/delete/substitute) over code points."""
    if a == b:
        return 0
    if len(a) > len(b):  # the shorter string is the bit-vector pattern
        a, b = b, a
    return _edit_row(a, b, free_start=False)[-1]


def best_fuzzy_substring(query: str, corpus: str) -> MatchResult:
    """Exact best match over every substring of ``corpus``.

    Ties are broken by smaller start index, then shorter substring.  An
    empty query matches the empty substring at position 0 with distance 0.
    """
    # by_start[s]: best distance between query and any corpus[s:e]
    by_start = _edit_row(query[::-1], corpus[::-1], free_start=True)[::-1]
    distance = min(by_start)
    start = by_start.index(distance)
    # a substring within `distance` edits is at most len(query) + distance long
    window = corpus[start : start + len(query) + distance]
    end = start + _edit_row(query, window, free_start=False).index(distance)
    return MatchResult(corpus[start:end], start, end, distance)
