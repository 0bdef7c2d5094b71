"""Metric tests against independent reference implementations.

The Jaro-Winkler reference below is written from the definition with a
different structure (explicit match lists).  ``jaro_window_loop`` and
``winkler_prefix_loop`` are the library's former window-scanning Jaro and
prefix loop, kept as a second reference that the library must equal bit
for bit.  The library computes Ratcliff-Obershelp with difflib's
SequenceMatcher; its reference here is a direct leftmost-longest common
substring decomposition, which must give the same float bit for bit.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspot import metrics
from blockspot.fuzzy import best_fuzzy_substring
from blockspot.metrics import (
    MetricVector,
    compute_metrics,
    jaro,
    jaro_winkler,
    normalized_levenshtein,
    ratcliff_obershelp,
)

ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDE 0123456789"


def jaro_winkler_reference(a: str, b: str) -> float:
    """Textbook Jaro-Winkler built around explicit match sequences."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(max(len(a), len(b)) // 2 - 1, 0)

    taken = [False] * len(b)
    a_hits = []
    for i, ch in enumerate(a):
        for j in range(max(0, i - window), min(len(b), i + window + 1)):
            if not taken[j] and b[j] == ch:
                taken[j] = True
                a_hits.append((i, j))
                break
    m = len(a_hits)
    if m == 0:
        return 0.0
    sa = "".join(a[i] for i, _ in a_hits)
    sb = "".join(b[j] for j in sorted(j for _, j in a_hits))
    t = sum(x != y for x, y in zip(sa, sb)) / 2
    j_sim = (m / len(a) + m / len(b) + (m - t) / m) / 3

    ell = 0
    while ell < min(4, len(a), len(b)) and a[ell] == b[ell]:
        ell += 1
    return j_sim + ell * 0.1 * (1 - j_sim)


def jaro_window_loop(a: str, b: str) -> float:
    """Jaro with boolean match lists and a Python scan of each window."""
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


def winkler_prefix_loop(a: str, b: str) -> float:
    """Jaro-Winkler over :func:`jaro_window_loop` with a hand-written prefix loop."""
    sim = jaro_window_loop(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix >= 4:
            break
        prefix += 1
    return sim + prefix * 0.1 * (1.0 - sim)


def nld_reference(a: str, b: str) -> float:
    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
        )

    longest = max(len(a), len(b))
    return rec(len(a), len(b)) / longest if longest else 0.0


def _longest_common_substring(
    a: str, a_lo: int, a_hi: int, b: str, b_lo: int, b_hi: int
) -> tuple[int, int, int]:
    """Leftmost-longest common substring of a[a_lo:a_hi] and b[b_lo:b_hi].

    Returns (start_in_a, start_in_b, length); ties go to the smallest
    start in ``a``, then the smallest start in ``b``.
    """
    best_i, best_j, best_len = a_lo, b_lo, 0
    # row[j] = length of common suffix of a[..i] and b[..j]
    row = [0] * (b_hi - b_lo + 1)
    for i in range(a_lo, a_hi):
        prev_diag = 0
        ca = a[i]
        for j in range(b_lo, b_hi):
            cur = row[j - b_lo + 1]
            if ca == b[j]:
                length = prev_diag + 1
                row[j - b_lo + 1] = length
                if length > best_len:
                    best_len = length
                    best_i = i - length + 1
                    best_j = j - length + 1
            else:
                row[j - b_lo + 1] = 0
            prev_diag = cur
    return best_i, best_j, best_len


def ro_reference(a: str, b: str) -> float:
    """Gestalt similarity 2M/T by recursive leftmost-longest decomposition."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0

    matched = 0
    stack = [(0, len(a), 0, len(b))]
    while stack:
        a_lo, a_hi, b_lo, b_hi = stack.pop()
        if a_lo >= a_hi or b_lo >= b_hi:
            continue
        i, j, length = _longest_common_substring(a, a_lo, a_hi, b, b_lo, b_hi)
        if length == 0:
            continue
        matched += length
        stack.append((a_lo, i, b_lo, j))
        stack.append((i + length, a_hi, j + length, b_hi))
    return 2.0 * matched / total


class TestNormalizedLevenshtein:
    def test_kitten_sitting(self):
        assert normalized_levenshtein("kitten", "sitting") == pytest.approx(3 / 7, abs=1e-12)

    def test_identical(self):
        assert normalized_levenshtein("same", "same") == 0.0

    def test_one_empty(self):
        assert normalized_levenshtein("", "abcd") == 1.0

    def test_both_empty(self):
        assert normalized_levenshtein("", "") == 0.0

    def test_zero_iff_equal(self):
        rng = random.Random(0)
        for _ in range(100):
            a = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 10)))
            b = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 10)))
            assert (normalized_levenshtein(a, b) == 0.0) == (a == b)


class TestJaroWinkler:
    def test_martha_marhta(self):
        assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(0.961111, abs=1e-6)

    def test_identical(self):
        assert jaro_winkler("EXIT", "EXIT") == 1.0

    def test_disjoint(self):
        assert jaro_winkler("abc", "xyz") == 0.0

    def test_boost_never_decreases(self):
        rng = random.Random(1)
        for _ in range(300):
            a = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
            assert jaro_winkler(a, b) >= jaro(a, b) - 1e-15

    def test_against_reference(self):
        rng = random.Random(2)
        for _ in range(500):
            a = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 20)))
            b = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 20)))
            assert jaro_winkler(a, b) == jaro_winkler_reference(a, b)

    def test_long_windows_equal_window_loop(self):
        # hypothesis favours short strings; these reach windows of 74-149
        rng = random.Random(5)
        for alphabet in ("ab", ALPHABET, "e\u0301\U0001f600\U00010348 "):
            for _ in range(10):
                a = "".join(rng.choice(alphabet) for _ in range(rng.randint(150, 300)))
                b = "".join(rng.choice(alphabet) for _ in range(rng.randint(150, 300)))
                assert jaro_winkler(a, b) == winkler_prefix_loop(a, b)

    @given(
        st.sampled_from(["ab", ALPHABET, "e\u0301\U0001f600\U00010348 "]).flatmap(
            lambda alphabet: st.tuples(
                st.text(alphabet=alphabet, max_size=300), st.text(alphabet=alphabet, max_size=300)
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equal_to_window_loop_bit_for_bit(self, pair):
        # lengths up to 300 give match windows from 0 to 149; the 2-letter
        # alphabet makes every window hold many equal candidates
        a, b = pair
        assert jaro(a, b) == jaro_window_loop(a, b)
        assert jaro_winkler(a, b) == winkler_prefix_loop(a, b)


class TestRatcliffObershelp:
    def test_wikimedia_wikimania(self):
        assert ratcliff_obershelp("WIKIMEDIA", "WIKIMANIA") == pytest.approx(14 / 18, abs=1e-12)

    def test_identical(self):
        assert ratcliff_obershelp("same text", "same text") == 1.0

    def test_disjoint(self):
        assert ratcliff_obershelp("abc", "xyz") == 0.0

    def test_both_empty(self):
        assert ratcliff_obershelp("", "") == 1.0

    def test_against_reference(self):
        rng = random.Random(3)
        for _ in range(500):
            a = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 30)))
            b = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 30)))
            assert ratcliff_obershelp(a, b) == ro_reference(a, b)

    def test_long_strings_keep_popular_characters(self):
        # from 200 characters on, difflib's autojunk heuristic would drop
        # frequent characters from b; the library must turn it off
        rng = random.Random(4)
        for alphabet in ("ab", "abc", ALPHABET):
            for _ in range(3):
                a = "".join(rng.choice(alphabet) for _ in range(rng.randint(200, 300)))
                b = "".join(rng.choice(alphabet) for _ in range(rng.randint(200, 300)))
                assert ratcliff_obershelp(a, b) == ro_reference(a, b)

    @given(
        st.sampled_from(["ab", "abc", ALPHABET, "e\u0301\U0001f600 "]).flatmap(
            lambda alphabet: st.tuples(
                st.text(alphabet=alphabet, max_size=60), st.text(alphabet=alphabet, max_size=60)
            )
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_equal_to_decomposition_bit_for_bit(self, pair):
        # small alphabets make equal-length longest matches common, so the
        # tie-break (earliest in a, then in b) decides the decomposition
        a, b = pair
        assert ratcliff_obershelp(a, b) == ro_reference(a, b)

    @given(st.text(alphabet="e\u0301\U0001f600 ab", max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_equal_strings_equal_decomposition(self, s):
        assert ratcliff_obershelp(s, s) == ro_reference(s, s) == 1.0

    def test_equal_strings_skip_difflib(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SequenceMatcher built for equal strings")

        monkeypatch.setattr(metrics, "SequenceMatcher", refuse)
        for s in ("", "same text", "e\u0301\U0001f600"):
            assert ratcliff_obershelp(s, s) == 1.0


class TestProperties:
    @given(st.text(alphabet=ALPHABET, max_size=25), st.text(alphabet=ALPHABET, max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bounds(self, a, b):
        # Ratcliff-Obershelp is excluded from the symmetry assertion: with
        # the canonical leftmost-longest tie-break (shared with difflib),
        # pairs like "112"/"2101" decompose differently per direction.
        for fn in (normalized_levenshtein, jaro_winkler, ratcliff_obershelp):
            assert 0.0 <= fn(a, b) <= 1.0
        for fn in (normalized_levenshtein, jaro_winkler):
            assert fn(a, b) == pytest.approx(fn(b, a), abs=1e-12)

    def test_vector_identical_strings(self):
        text = "20 REASONS TO LOVE CYCLING"
        v = compute_metrics(text, best_fuzzy_substring(text, text))
        assert (v.nld, v.jaro_winkler, v.ratcliff_obershelp) == (0.0, 1.0, 1.0)

    @given(
        st.sampled_from(["ab", ALPHABET, "e\u0301\U0001f600 "]).flatmap(
            lambda alphabet: st.tuples(
                st.text(alphabet=alphabet, max_size=30), st.text(alphabet=alphabet, max_size=80)
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_vector_nld_is_match_distance(self, pair):
        query, corpus = pair
        match = best_fuzzy_substring(query, corpus)
        assert compute_metrics(query, match).nld == normalized_levenshtein(query, match.substring)

    def test_vector_bounds_enforced(self):
        with pytest.raises(ValueError):
            MetricVector(nld=1.5, jaro_winkler=0.0, ratcliff_obershelp=0.0)
