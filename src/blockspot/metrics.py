"""Character-level string similarity metrics for evaluation.

Three classic measures over unicode code points:

* normalized Levenshtein distance (edit distance / longer length, lower is
  better),
* Jaro-Winkler similarity (canonical parameters: prefix scale 0.1, prefix
  length capped at 4; the prefix boost is always applied),
* Ratcliff-Obershelp similarity (gestalt pattern matching: recursive
  leftmost-longest common substring decomposition, via ``difflib``).
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher

from .fuzzy import levenshtein

_WINKLER_PREFIX_SCALE = 0.1
_WINKLER_MAX_PREFIX = 4


@dataclass(frozen=True)
class MetricVector:
    """Similarity metrics for one (prediction, reference) string pair."""

    nld: float
    jaro_winkler: float
    ratcliff_obershelp: float

    def __post_init__(self) -> None:
        for name in ("nld", "jaro_winkler", "ratcliff_obershelp"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {v}")


def compute_metrics(a: str, b: str) -> MetricVector:
    return MetricVector(
        nld=normalized_levenshtein(a, b),
        jaro_winkler=jaro_winkler(a, b),
        ratcliff_obershelp=ratcliff_obershelp(a, b),
    )


def normalized_levenshtein(a: str, b: str) -> float:
    """Edit distance divided by the longer string's length; 0.0 for two empties."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


def jaro(a: str, b: str) -> float:
    """Jaro similarity with the standard match window floor(max/2) - 1."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0

    window = max(max(la, lb) // 2 - 1, 0)
    a_matched = [False] * la
    b_matched = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not b_matched[j] and b[j] == ca:
                a_matched[i] = True
                b_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0

    # transpositions: matched characters compared in order of appearance
    transpositions = 0
    k = 0
    for i in range(la):
        if a_matched[i]:
            while not b_matched[k]:
                k += 1
            if a[i] != b[k]:
                transpositions += 1
            k += 1
    t = transpositions / 2

    m = matches
    return (m / la + m / lb + (m - t) / m) / 3


def jaro_winkler(a: str, b: str) -> float:
    """Jaro similarity boosted by the length of the common prefix (up to 4)."""
    sim = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix >= _WINKLER_MAX_PREFIX:
            break
        prefix += 1
    return sim + prefix * _WINKLER_PREFIX_SCALE * (1.0 - sim)


def ratcliff_obershelp(a: str, b: str) -> float:
    """Gestalt similarity 2M/T; 1.0 when both strings are empty.

    ``difflib`` takes the longest common substring, ties to the earliest
    start in ``a`` and then in ``b``, and recurses on both sides; with no
    junk and ``autojunk=False`` that is exactly Ratcliff-Obershelp.
    """
    return SequenceMatcher(None, a, b, autojunk=False).ratio()
