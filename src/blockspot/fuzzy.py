"""Approximate substring search: Levenshtein distance and best fuzzy substring.

The best fuzzy substring match of ``query`` in ``corpus`` is the substring
of ``corpus`` with the lowest Levenshtein distance to ``query``.
:func:`best_fuzzy_substring` first looks for an exact occurrence with
``str.find`` and returns the first one at distance 0.  Only when ``query``
does not occur does it run the bit-parallel edit DP of Myers (1999): a
search pass over the reversed strings gives the best distance for every
start, and one anchored pass (Hyyrö 2003) from the smallest winning start
gives the shortest winning end.  For a query of 12 or more characters a
pigeonhole filter first finds the query's pieces with ``str.find`` and
runs the DP over the corpus window they allow.  When that window's answer
is too far to be trusted, its distance ``k'`` sets a second cut into
``k' + 1`` pieces, whose window always holds the answer; the whole corpus
is scanned only when no piece occurs or ``k'`` is not below the query's
length.  Every path gives the same result as literally enumerating all
substrings; the DP takes O(len(text)) big-integer steps per pass.
"""

from __future__ import annotations

from typing import NamedTuple

_PIECE = 6  # the pigeonhole filter cuts a query into pieces of 6 to 11 characters


class MatchResult(NamedTuple):
    """A located substring with its edit distance to the query.

    An immutable 4-tuple ``(substring, start, end, distance)``:
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
    follows the high bit.  Each column is Hyyrö's (2003) step, with the
    vertical and horizontal carries ``xv``/``xh`` kept apart.
    """
    m = len(pattern)
    if not m:  # only levenshtein passes an empty pattern, never with free_start
        return list(range(len(text) + 1))
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
        eq = get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = (ph << 1) | carry
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv  # xv never exceeds mask
        append(score)
    return row


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert/delete/substitute) over code points."""
    if a == b:
        return 0
    if len(a) > len(b):  # the shorter string is the bit-vector pattern
        a, b = b, a
    return _edit_row(a, b, free_start=False)[-1]


def _search(query: str, text: str) -> tuple[int, int, int]:
    """``(start, end, distance)`` of the best substring of ``text``, by the DP."""
    # by_start[s]: best distance between query and any text[s:e]
    by_start = _edit_row(query[::-1], text[::-1], free_start=True)[::-1]
    distance = min(by_start)
    start = by_start.index(distance)
    # a substring within `distance` edits is at most len(query) + distance long
    window = text[start : start + len(query) + distance]
    end = start + _edit_row(query, window, free_start=False).index(distance)
    return start, end, distance


def best_fuzzy_substring(query: str, corpus: str) -> MatchResult:
    """Exact best match over every substring of ``corpus``.

    Ties are broken by smaller start index, then shorter substring.  An
    empty query matches the empty substring at position 0 with distance 0.

    An exact occurrence is returned first, without the DP: distance 0 means
    the substring equals ``query``, so the first occurrence is the smallest
    winning start and ``len(query)`` the only winning length.

    Otherwise the query is cut into ``p = len(query) // _PIECE`` disjoint
    pieces, and ``k = p - 1`` (with one piece, ``k = 0`` is the exact
    occurrence already ruled out).  Any substring within ``k`` edits holds
    one piece verbatim, shifted by at most ``k`` from the piece's offset in
    the query (pigeonhole; Wu & Manber 1992, Navarro 2001), so it starts
    within ``k`` of some ``str.find`` hit minus that offset and is at most
    ``len(query) + k`` long.  The DP runs
    over the one window spanning all those starts; its answer stands if it
    is within ``k`` edits, since every such substring, and so every winner
    and the tie-break, lies inside the window, or if the window is the
    whole corpus.  Otherwise the window still holds a substring at its
    distance ``k'``, so every winner is within ``k'`` edits: the query is
    cut again into ``p = k' + 1`` pieces with ``k = k'``, and that second
    window's answer always stands.  Only a query shorter than
    ``2 * _PIECE``, one none of whose pieces occurs, or one with
    ``k' + 1`` pieces more than its characters is searched over the whole
    corpus.
    """
    start = corpus.find(query)  # 0 for an empty query
    if start >= 0:
        return MatchResult(query, start, start + len(query), 0)
    m = len(query)
    p = m // _PIECE
    while 1 < p <= m:
        k = p - 1
        starts = []
        for i in range(p):
            offset = i * m // p
            piece = query[offset : (i + 1) * m // p]
            hit = corpus.find(piece)
            if hit >= 0:
                starts += (hit - offset, corpus.rfind(piece) - offset)
        if not starts:
            break
        base = max(min(starts) - k, 0)
        window = corpus[base : max(starts) + m + 2 * k]
        start, end, distance = _search(query, window)
        if distance <= k or len(window) == len(corpus):
            start += base
            end += base
            return MatchResult(corpus[start:end], start, end, distance)
        p = distance + 1  # every winner is within `distance` edits
    start, end, distance = _search(query, corpus)
    return MatchResult(corpus[start:end], start, end, distance)
