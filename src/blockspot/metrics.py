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
from os.path import commonprefix

from .fuzzy import MatchResult, levenshtein

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
    character of ``a`` takes the first unmatched equal one of ``b`` in its window."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0

    window = max(max(la, lb) // 2 - 1, 0)
    unmatched: list[str | None] = list(b)
    a_matches = []
    for i, ca in enumerate(a):
        try:
            j = unmatched.index(ca, max(0, i - window), i + window + 1)
        except ValueError:
            continue
        unmatched[j] = None
        a_matches.append(ca)
    m = len(a_matches)
    if m == 0:
        return 0.0

    # transpositions: matched characters compared in order of appearance
    b_matches = [cb for cb, u in zip(b, unmatched) if u is None]
    t = sum(ca != cb for ca, cb in zip(a_matches, b_matches)) / 2
    return (m / la + m / lb + (m - t) / m) / 3


def jaro_winkler(a: str, b: str) -> float:
    """Jaro similarity boosted by the length of the common prefix (up to 4)."""
    sim = jaro(a, b)
    prefix = len(commonprefix((a[:_WINKLER_MAX_PREFIX], b[:_WINKLER_MAX_PREFIX])))
    return sim + prefix * _WINKLER_PREFIX_SCALE * (1.0 - sim)


def ratcliff_obershelp(a: str, b: str) -> float:
    """Gestalt similarity 2M/T; 1.0 for equal strings, two empties included.

    Equal strings return 1.0 at once, which is exactly what ``difflib``'s
    2n/2n gives.  Otherwise ``difflib`` takes the longest common substring,
    ties to the earliest start in ``a`` and then in ``b``, and recurses on
    both sides; with no junk and ``autojunk=False`` that is exactly
    Ratcliff-Obershelp.
    """
    if a == b:
        return 1.0
    return SequenceMatcher(None, a, b, autojunk=False).ratio()
