"""Character-level string similarity metrics for evaluation.

Three classic measures over unicode code points:

* normalized Levenshtein distance (edit distance / longer length, lower is
  better),
* Jaro-Winkler similarity (canonical parameters: prefix scale 0.1, prefix
  length capped at 4; the prefix boost is always applied; the Jaro matches
  are found bit-parallel, with one bitmask of positions per character),
* Ratcliff-Obershelp similarity (gestalt pattern matching: recursive
  leftmost-longest common substring decomposition, found with ``str.find``;
  the same floats as ``difflib.SequenceMatcher`` with ``autojunk=False``).
"""

from __future__ import annotations

from itertools import compress
from operator import ne
from os.path import commonprefix
from typing import NamedTuple

from .fuzzy import MatchResult, levenshtein

_WINKLER_PREFIX_SCALE = 0.1
_WINKLER_MAX_PREFIX = 4


class _MetricFields(NamedTuple):
    nld: float
    jaro_winkler: float
    ratcliff_obershelp: float


class MetricVector(_MetricFields):
    """Similarity metrics for one (prediction, reference) string pair.

    An immutable 3-tuple ``(nld, jaro_winkler, ratcliff_obershelp)``.  The
    constructor (and so ``copy`` and ``pickle``) checks that each lies in
    [0, 1]; the inherited ``_replace`` and ``_make`` skip that check.
    """

    __slots__ = ()

    def __new__(cls, nld: float, jaro_winkler: float, ratcliff_obershelp: float) -> "MetricVector":
        self = tuple.__new__(cls, (nld, jaro_winkler, ratcliff_obershelp))
        for name, v in zip(self._fields, self):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {v}")
        return self


def compute_metrics(query: str, match: MatchResult) -> MetricVector:
    """Metrics of ``query`` against ``match.substring``; the NLD reuses
    ``match.distance``, which ``MatchResult`` guarantees is their edit distance."""
    return MetricVector(
        nld=match.distance / max(len(query), len(match.substring), 1),
        jaro_winkler=jaro_winkler(query, match.substring),
        ratcliff_obershelp=ratcliff_obershelp(query, match.substring),
    )


def normalized_levenshtein(a: str, b: str) -> float:
    """Edit distance divided by the longer string's length; 0.0 for two empties."""
    return levenshtein(a, b) / max(len(a), len(b), 1)


def jaro(a: str, b: str) -> float:
    """Jaro similarity with the standard match window floor(max/2) - 1; each
    character of ``a`` takes the first unmatched equal one of ``b`` in its window.

    The matching is bit-parallel: ``peq[c]`` has bit j set where ``b[j] == c``,
    ``free`` marks the positions of ``b`` not yet matched, and the lowest bit
    of their intersection with the window is the first such character.
    """
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0

    window = max(max(la, lb) // 2 - 1, 0)
    span = (1 << (2 * window + 1)) - 1  # the window of a[window], shifted for each i
    peq: dict[str, int] = {}
    get = peq.get
    for j, cb in enumerate(b):
        peq[cb] = get(cb, 0) | 1 << j
    every = free = (1 << lb) - 1
    a_matches = []
    for i, ca in enumerate(a):
        lo = i - window
        hits = get(ca, 0) & free & (span << lo if lo > 0 else span >> -lo)
        if hits:
            free ^= hits & -hits
            a_matches.append(ca)
    m = len(a_matches)
    if m == 0:
        return 0.0

    # transpositions: matched characters compared in order of appearance
    used = bin(every ^ free)[:1:-1]  # digit j is 1 where b[j] matched
    b_matches = compress(b, map(int, used))
    t = sum(map(ne, a_matches, b_matches)) / 2
    return (m / la + m / lb + (m - t) / m) / 3


def jaro_winkler(a: str, b: str) -> float:
    """Jaro similarity boosted by the length of the common prefix (up to 4)."""
    sim = jaro(a, b)
    prefix = len(commonprefix((a[:_WINKLER_MAX_PREFIX], b[:_WINKLER_MAX_PREFIX])))
    return sim + prefix * _WINKLER_PREFIX_SCALE * (1.0 - sim)


def ratcliff_obershelp(a: str, b: str) -> float:
    """Gestalt similarity 2M/T; 1.0 for equal strings, two empties included.

    M is the length matched by a leftmost-longest common substring plus,
    recursively, the matches left and right of it.  In each range the
    longest match is grown by C-level ``str.find``: ``a`` is scanned from
    the left, and a start that occurs in ``b``'s range one character longer
    than the best so far raises the best.  The first start to reach the
    final length is the earliest in ``a``, and ``find`` gives the earliest
    in ``b``: the tie rule of ``difflib.SequenceMatcher``, whose
    ``ratio()`` this equals bit for bit when there is no junk and
    ``autojunk=False``.
    """
    if a == b:
        return 1.0
    find = b.find
    matched = 0
    ranges = [(0, len(a), 0, len(b))]
    while ranges:
        alo, ahi, blo, bhi = ranges.pop()
        i = best_i = alo
        best = 0
        while ahi - i > best:
            if find(a[i : i + best + 1], blo, bhi) >= 0:
                best += 1
                best_i = i
            else:
                i += 1
        if not best:
            continue
        j = find(a[best_i : best_i + best], blo, bhi)
        matched += best
        if alo < best_i and blo < j:
            ranges.append((alo, best_i, blo, j))
        if best_i + best < ahi and j + best < bhi:
            ranges.append((best_i + best, ahi, j + best, bhi))
    return 2.0 * matched / (len(a) + len(b))
