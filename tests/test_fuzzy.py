"""Tests for edit distance and the fuzzy substring search.

Two references independent of ``blockspot.fuzzy``'s search are the ground
truth here: ``enumerate_best`` literally scores every substring, and
``exact_best`` derives the same answer from a reversed semi-global pass
plus one anchored row of the plain DP, fast enough for long corpora.
``best_fuzzy_substring`` answers an exact occurrence with ``str.find`` and
otherwise runs the same two passes bit-parallel, over one or two
pigeonhole windows of the corpus or over all of it; every path must match
them exactly, tie-break included.  ``levenshtein`` must equal the plain
DP's anchored row.
"""

from __future__ import annotations

import random
from functools import lru_cache
from unittest import mock

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from blockspot import fuzzy
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


# two letters make occurrences repeat and overlap; the other alphabet mixes
# astral and combining code points
OCCURRENCE_ALPHABETS = ("ab", "e\u0301\U0001d11e\U0001f600 \u0308a")


@st.composite
def corpus_and_slice(draw, min_size: int, max_size: int) -> tuple[str, str]:
    alphabet = draw(st.sampled_from(OCCURRENCE_ALPHABETS))
    corpus = draw(st.text(alphabet=alphabet, min_size=min_size, max_size=max_size))
    lo = draw(st.integers(0, len(corpus)))
    hi = draw(st.integers(lo, len(corpus)))
    return corpus, corpus[lo:hi]


class TestExactOccurrence:
    """Queries cut from the corpus, which ``str.find`` answers without the DP."""

    @given(corpus_and_slice(0, 14))
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration(self, pair):
        corpus, query = pair
        assert best_fuzzy_substring(query, corpus) == enumerate_best(query, corpus)

    @given(corpus_and_slice(60, 300))
    @settings(max_examples=60, deadline=None)
    def test_long_corpora_match_oracle(self, pair):
        corpus, query = pair
        assert best_fuzzy_substring(query, corpus) == exact_best(query, corpus)

    def test_occurrence_skips_the_dp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("edit DP ran for an exact occurrence")

        monkeypatch.setattr(fuzzy, "_edit_row", refuse)
        corpus = "20 REASONS TO LOVE CYCLING"
        assert best_fuzzy_substring("CYCL", corpus) == MatchResult("CYCL", 19, 23, 0)
        assert best_fuzzy_substring("", corpus) == MatchResult("", 0, 0, 0)
        assert best_fuzzy_substring(corpus, corpus) == MatchResult(corpus, 0, 26, 0)


def traced_search(query: str, corpus: str) -> tuple[MatchResult, list[int]]:
    """The search's result and the length of the text each of its search
    (free-start) passes scanned: none for an exact occurrence, one for an
    accepted first window or a search of the whole corpus, and two when the
    first window is rejected: a second window, which is the whole corpus
    when its pieces hit far apart or the query is too far for them."""
    with mock.patch.object(fuzzy, "_edit_row", wraps=fuzzy._edit_row) as spy:
        result = best_fuzzy_substring(query, corpus)
    return result, [len(c.args[1]) for c in spy.call_args_list if c.kwargs["free_start"]]


def search_path(lengths: list[int], corpus: str) -> str:
    if not lengths:
        return "exact"
    if lengths == [len(corpus)]:
        return "full"
    if len(lengths) == 1:
        return "window"
    return "fallback" if lengths[-1] == len(corpus) else "second window"


# 12 positions of a 60-character slice, one in each of its first nine
# 6-character pieces and none in the last
SECOND_CUT_EDITS = (1, 3, 7, 13, 19, 21, 25, 31, 37, 43, 47, 49)


def _planted_pairs() -> tuple[tuple[str, str], ...]:
    """A 60-character slice of a 600-character corpus (10 pieces, k = 9):
    with 2 substitutions, with 12 that leave only its last piece intact,
    and with only its first piece intact."""
    rng = random.Random(46)
    corpus = normal_string(rng, 600)
    piece = corpus[300:360]
    near = piece[:20] + "#" + piece[21:40] + "#" + piece[41:]
    second = "".join("#" if i in SECOND_CUT_EDITS else c for i, c in enumerate(piece))
    far = piece[:6] + "#" * 54
    return (near, corpus), (second, corpus), (far, corpus)


NEAR_PAIR, SECOND_PAIR, FAR_PAIR = _planted_pairs()


@st.composite
def corrupted_slice(draw) -> tuple[str, str]:
    """A corpus over 2 or 3 letters and a slice of it of at least 12
    characters, corrupted by up to a third as many edits."""
    alphabet = draw(st.sampled_from(("ab", "abc", "e\u0301\U0001f600")))
    corpus = draw(st.text(alphabet=alphabet, min_size=12, max_size=150))
    lo = draw(st.integers(0, len(corpus) - 12))
    query = list(corpus[lo : draw(st.integers(lo + 12, len(corpus)))])
    for _ in range(draw(st.integers(0, len(query) // 3))):
        i = draw(st.integers(0, len(query) - 1))
        op = draw(st.sampled_from("sid" if len(query) > 12 else "si"))
        if op == "d":
            del query[i]
        else:
            query[i : i + (op == "s")] = draw(st.sampled_from(alphabet))
    return "".join(query), corpus


class TestPigeonholeFilter:
    """Queries of 12 or more characters that do not occur verbatim."""

    @given(corrupted_slice())
    @example(NEAR_PAIR)
    @example(SECOND_PAIR)
    @example(FAR_PAIR)
    @settings(max_examples=300, deadline=None)
    def test_every_path_matches_oracle(self, pair):
        query, corpus = pair
        got, lengths = traced_search(query, corpus)
        event(search_path(lengths, corpus))
        assert got == exact_best(query, corpus), (query, corpus)
        if len(corpus) <= 20:
            assert got == enumerate_best(query, corpus), (query, corpus)

    def test_near_pair_searches_a_window(self):
        query, corpus = NEAR_PAIR
        got, lengths = traced_search(query, corpus)
        assert search_path(lengths, corpus) == "window"
        # every piece hits only there: k before the slice, and m + 2k from it
        assert lengths[0] == len(query) + 3 * 9 < len(corpus)
        assert got == MatchResult(corpus[300:360], 300, 360, 2)

    def test_second_pair_searches_a_second_window(self):
        query, corpus = SECOND_PAIR
        got, lengths = traced_search(query, corpus)
        assert search_path(lengths, corpus) == "second window"
        # the first window's 12 edits exceed k = 9; 13 pieces then cut again
        assert len(lengths) == 2 and max(lengths) < len(corpus)
        assert got == MatchResult(corpus[300:360], 300, 360, 12)
        assert got == exact_best(query, corpus)

    def test_far_pair_falls_back_to_the_whole_corpus(self):
        query, corpus = FAR_PAIR
        got, lengths = traced_search(query, corpus)
        assert search_path(lengths, corpus) == "fallback"
        assert lengths[0] < len(corpus) == lengths[1]
        assert got.distance > len(query) // 6 - 1
        assert got == exact_best(query, corpus)

    def test_both_paths_occur_among_random_slices(self):
        rng = random.Random(47)
        seen = set()
        for _ in range(200):
            alphabet = rng.choice(("ab", "abc"))
            corpus = "".join(rng.choice(alphabet) for _ in range(rng.randint(60, 200)))
            lo = rng.randint(0, len(corpus) - 30)
            rate = rng.choice((0.05, 0.4))  # substitutions mostly within k, or mostly beyond it
            query = "".join(
                c if rng.random() > rate else rng.choice(alphabet)
                for c in corpus[lo : lo + rng.randint(12, 30)]
            )
            got, lengths = traced_search(query, corpus)
            seen.add(search_path(lengths, corpus))
            assert got == exact_best(query, corpus), (query, corpus)
        assert {"window", "second window", "fallback"} <= seen
