"""Approximate substring search: Levenshtein distance and best fuzzy substring.

The best fuzzy substring match of ``query`` in ``corpus`` is the substring
of ``corpus`` with the lowest Levenshtein distance to ``query``.
:func:`best_fuzzy_substring` finds it exactly with a semi-global alignment
(free start/end gaps on the corpus side, Sellers 1980), which yields the
same result as literally enumerating all substrings while staying
O(len(query) * len(corpus)).
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


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert/delete/substitute) over code points."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):  # fewer rows, cheaper inner lists
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        append = cur.append
        for j, cb in enumerate(b, 1):
            best = prev[j - 1] + (ca != cb)
            dele = prev[j] + 1
            if dele < best:
                best = dele
            ins = cur[j - 1] + 1
            if ins < best:
                best = ins
            append(best)
        prev = cur
    return prev[-1]


def best_fuzzy_substring(query: str, corpus: str) -> MatchResult:
    """Exact best match over every substring of ``corpus``.

    Ties are broken by smaller start index, then shorter substring.  An
    empty query matches the empty substring at position 0 with distance 0.
    """
    if not query:
        return MatchResult("", 0, 0, 0)
    if not corpus:
        return MatchResult("", 0, 0, len(query))

    m, n = len(query), len(corpus)
    # Semi-global DP: dist[j] = min edit distance between query[:i] and any
    # corpus[k:j]; start[j] tracks the smallest k achieving it.  Free first
    # row (any start), answer read from the last row (any end).
    dist = [0] * (n + 1)
    start = list(range(n + 1))
    for i in range(1, m + 1):
        qc = query[i - 1]
        prev_diag_d = dist[0]
        prev_diag_s = start[0]
        dist[0] = i
        # start[0] stays 0: aligning query[:i] against corpus[0:0]
        for j in range(1, n + 1):
            sub_d = prev_diag_d + (qc != corpus[j - 1])
            sub_s = prev_diag_s
            prev_diag_d = dist[j]
            prev_diag_s = start[j]
            best_d = sub_d
            best_s = sub_s
            del_d = prev_diag_d + 1  # skip query char
            if del_d < best_d or (del_d == best_d and prev_diag_s < best_s):
                best_d = del_d
                best_s = prev_diag_s
            ins_d = dist[j - 1] + 1  # consume corpus char
            if ins_d < best_d or (ins_d == best_d and start[j - 1] < best_s):
                best_d = ins_d
                best_s = start[j - 1]
            dist[j] = best_d
            start[j] = best_s

    best_end = 0
    best_key = (dist[0], 0, 0)
    for j in range(1, n + 1):
        key = (dist[j], start[j], j - start[j])
        if key < best_key:
            best_key = key
            best_end = j
    s = start[best_end]
    return MatchResult(corpus[s:best_end], s, best_end, dist[best_end])
