"""Tests for edit distance and the fuzzy substring search.

Two references independent of ``blockspot.fuzzy``'s search are the ground
truth here: ``enumerate_best`` literally scores every substring, and
``exact_best`` derives the same answer from a reversed semi-global pass
plus one anchored row of the plain DP, fast enough for long corpora.
``best_fuzzy_substring`` runs the same two passes bit-parallel and must
match them exactly, tie-break included; ``levenshtein`` must equal the
plain DP's anchored row.
"""

from __future__ import annotations

import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from blockspot.fuzzy import MatchResult, best_fuzzy_substring, levenshtein


def levenshtein_recursive(a: str, b: str) -> int:
    """Independent oracle: memoized textbook recursion."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        sub = rec(i - 1, j - 1) + (a[i - 1] != b[j - 1])
        return min(sub, rec(i - 1, j) + 1, rec(i, j - 1) + 1)

    return rec(len(a), len(b))


def enumerate_best(query: str, corpus: str) -> MatchResult:
    """Literal enumeration of every substring, with the documented tie-break."""
    if not query:
        return MatchResult("", 0, 0, 0)
    best = None
    n = len(corpus)
    for start in range(n + 1):
        for end in range(start, n + 1):
            sub = corpus[start:end]
            key = (levenshtein(query, sub), start, end - start)
            if best is None or key < best:
                best = key
                best_match = MatchResult(sub, start, end, key[0])
    return best_match


def _edit_row(query: str, text: str, free_start: bool) -> list[int]:
    """Last row of the query-vs-text edit DP: entry j aligns all of ``query``
    with ``text[:j]`` (with ``free_start``, with any suffix of ``text[:j]``)."""
    row = [0] * (len(text) + 1) if free_start else list(range(len(text) + 1))
    for i, qc in enumerate(query, 1):
        cur = [i]
        for j, tc in enumerate(text, 1):
            cur.append(min(row[j - 1] + (qc != tc), row[j] + 1, cur[j - 1] + 1))
        row = cur
    return row


def exact_best(query: str, corpus: str) -> MatchResult:
    """Best substring by (distance, start, length), in O(len(query) * len(corpus)).

    A semi-global pass over the reversed strings gives, for every start, the
    best distance of any substring beginning there; the smallest winning
    start is then extended by one anchored row to its shortest winning end.
    """
    n = len(corpus)
    by_end = _edit_row(query[::-1], corpus[::-1], free_start=True)
    by_start = by_end[::-1]  # by_start[s]: best distance over corpus[s:e]
    distance = min(by_start)
    start = by_start.index(distance)
    length = _edit_row(query, corpus[start:], free_start=False).index(distance)
    return MatchResult(corpus[start : start + length], start, start + length, distance)


NORMAL_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 "


def normal_string(rng: random.Random, length: int) -> str:
    """Random alphanumeric+space string with no character run longer than 3."""
    out: list[str] = []
    while len(out) < length:
        c = rng.choice(NORMAL_ALPHABET)
        if len(out) >= 3 and out[-1] == out[-2] == out[-3] == c:
            continue
        out.append(c)
    return "".join(out)


def corrupt(rng: random.Random, text: str, rate: float) -> str:
    """Apply random substitutions/insertions/deletions at roughly ``rate``."""
    out: list[str] = []
    for ch in text:
        r = rng.random()
        if r < rate / 3:
            continue  # deletion
        if r < 2 * rate / 3:
            out.append(rng.choice(NORMAL_ALPHABET))  # substitution
        else:
            out.append(ch)
        if rng.random() < rate / 3:
            out.append(rng.choice(NORMAL_ALPHABET))  # insertion
    # restore the no-long-runs property the generator guarantees
    cleaned: list[str] = []
    for ch in out:
        if len(cleaned) >= 3 and cleaned[-1] == cleaned[-2] == cleaned[-3] == ch:
            ch = "x" if ch != "x" else "y"
        cleaned.append(ch)
    return "".join(cleaned)


class TestLevenshtein:
    def test_classic_pair(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein_recursive("kitten", "sitting") == 3

    def test_empty_sides(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "") == 0

    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_against_recursive_oracle(self):
        rng = random.Random(42)
        for _ in range(200):
            a = normal_string(rng, rng.randint(0, 12))
            b = normal_string(rng, rng.randint(0, 12))
            assert levenshtein(a, b) == levenshtein_recursive(a, b)

    def test_beyond_one_machine_word(self):
        rng = random.Random(44)
        alphabets = (NORMAL_ALPHABET, "ab", "e\u0301\U0001d11e\U0001f600 x")
        for _ in range(60):
            alphabet = rng.choice(alphabets)
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 300)))
            if rng.random() < 0.5:
                b = corrupt(rng, a, rng.uniform(0, 0.4))
            else:
                b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 300)))
            assert levenshtein(a, b) == _edit_row(a, b, free_start=False)[-1], (a, b)

    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(st.text(max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_self_distance_zero(self, a):
        assert levenshtein(a, a) == 0


class TestBruteForce:
    """Small corpora, checked against the literal enumeration."""

    def test_cycling_example(self):
        res = best_fuzzy_substring("CYCLNG", "20 REASONS TO LOVE CYCLING")
        assert res.substring == "CYCLING"
        assert res.distance == 1

    def test_query_equals_corpus(self):
        res = best_fuzzy_substring("abc def", "abc def")
        assert res == MatchResult("abc def", 0, 7, 0)

    def test_empty_query(self):
        assert best_fuzzy_substring("", "whatever") == MatchResult("", 0, 0, 0)

    def test_empty_corpus(self):
        assert best_fuzzy_substring("abc", "") == MatchResult("", 0, 0, 3)

    def test_matches_enumeration_small(self):
        rng = random.Random(7)
        for _ in range(300):
            corpus = normal_string(rng, rng.randint(0, 14))
            query = normal_string(rng, rng.randint(1, 7))
            got = best_fuzzy_substring(query, corpus)
            want = enumerate_best(query, corpus)
            assert got == want, (query, corpus)

    def test_matches_enumeration_planted(self):
        rng = random.Random(8)
        for _ in range(100):
            corpus = normal_string(rng, rng.randint(8, 16))
            lo = rng.randint(0, len(corpus) - 4)
            hi = rng.randint(lo + 2, min(len(corpus), lo + 8))
            query = corrupt(rng, corpus[lo:hi], 0.2) or "a"
            got = best_fuzzy_substring(query, corpus)
            want = enumerate_best(query, corpus)
            assert got == want, (query, corpus)

    def test_result_self_consistent(self):
        rng = random.Random(9)
        for _ in range(50):
            corpus = normal_string(rng, rng.randint(0, 40))
            query = normal_string(rng, rng.randint(1, 12))
            res = best_fuzzy_substring(query, corpus)
            assert corpus[res.start : res.end] == res.substring
            assert levenshtein(query, res.substring) == res.distance


class TestTwoStage:
    """Corpora of any length relative to the query, checked against ``exact_best``."""

    def test_cycling_example_matches_oracle(self):
        res = best_fuzzy_substring("CYCLNG", "20 REASONS TO LOVE CYCLING")
        assert res == exact_best("CYCLNG", "20 REASONS TO LOVE CYCLING")

    def test_corpus_shorter_than_query(self):
        rng = random.Random(10)
        for _ in range(50):
            query = normal_string(rng, rng.randint(4, 12))
            corpus = normal_string(rng, rng.randint(0, len(query) - 1))
            assert best_fuzzy_substring(query, corpus) == exact_best(query, corpus)

    def test_empty_query(self):
        assert best_fuzzy_substring("", "corpus text") == MatchResult("", 0, 0, 0)

    def test_self_consistency_and_oracle_dominance(self):
        rng = random.Random(11)
        for _ in range(150):
            corpus = normal_string(rng, rng.randint(0, 120))
            if rng.random() < 0.5 and len(corpus) > 6:
                lo = rng.randint(0, len(corpus) - 5)
                hi = rng.randint(lo + 3, min(len(corpus), lo + 30))
                query = corrupt(rng, corpus[lo:hi], rng.uniform(0, 0.3)) or "q"
            else:
                query = normal_string(rng, rng.randint(1, 30))
            res = best_fuzzy_substring(query, corpus)
            assert corpus[res.start : res.end] == res.substring
            assert levenshtein(query, res.substring) == res.distance
            assert res == exact_best(query, corpus), (query, corpus)

    def test_long_queries_match_oracle(self):
        """Queries of 60-300 code points span several 64-bit words."""
        rng = random.Random(45)
        astral = "e\u0301\U0001d11e\U0001f600 \u0308a"
        for trial in range(40):
            m = rng.randint(60, 300)
            if trial % 4 == 0:  # query longer than the corpus
                corpus = normal_string(rng, rng.randint(0, m - 1))
                query = normal_string(rng, m)
            elif trial % 4 == 1:  # astral and combining code points
                corpus = "".join(rng.choice(astral) for _ in range(rng.randint(m, 3 * m)))
                lo = rng.randint(0, len(corpus) - m)
                query = "".join(
                    c if rng.random() > 0.2 else rng.choice(astral) for c in corpus[lo : lo + m]
                )
            else:  # a noisy excerpt planted in a longer corpus
                corpus = normal_string(rng, rng.randint(m, 4 * m))
                lo = rng.randint(0, len(corpus) - m)
                query = corrupt(rng, corpus[lo : lo + m], rng.uniform(0, 0.3)) or "q"
            assert best_fuzzy_substring(query, corpus) == exact_best(query, corpus), trial

    @given(st.text(alphabet=NORMAL_ALPHABET, max_size=60), st.text(alphabet=NORMAL_ALPHABET, min_size=1, max_size=15))
    @settings(max_examples=150, deadline=None)
    def test_never_beats_oracle(self, corpus, query):
        assert best_fuzzy_substring(query, corpus) == enumerate_best(query, corpus)
