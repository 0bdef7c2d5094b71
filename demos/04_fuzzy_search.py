"""Best fuzzy substring matching.

A predicted block string usually covers only part of a ground-truth block,
so evaluation needs the corpus substring closest to the prediction in edit
distance. The search is exact and bit-parallel (Myers 1999): one column of
the edit DP lives in the bits of a single integer, so a pass over the
reversed corpus scores every substring start at once, one step per corpus
character, and a short anchored pass from the best start finds its end.
"""

import random
import string
import time

from blockspot import best_fuzzy_substring, levenshtein

print("edit distances:", levenshtein("kitten", "sitting"), levenshtein("abc", "abc"))

corpus = "20 REASONS TO LOVE CYCLING"
for query in ("CYCLNG", "REASONS TO", "LUVE"):
    match = best_fuzzy_substring(query, corpus)
    print(f"{query!r:>14} -> {match.substring!r} at [{match.start}:{match.end}], distance {match.distance}")

# locate a noisy excerpt in a long random corpus
rng = random.Random(0)
big_corpus = "".join(rng.choice(string.ascii_uppercase + " ") for _ in range(5000))
excerpt = big_corpus[2200:2230]
noisy = "".join(c if rng.random() > 0.15 else rng.choice(string.ascii_uppercase) for c in excerpt)

t0 = time.perf_counter()
match = best_fuzzy_substring(noisy, big_corpus)
elapsed = time.perf_counter() - t0

print("\nnoisy 30-char query against a 5000-char corpus:")
print("  excerpt taken from [2200:2230]")
print(f"  best match at [{match.start}:{match.end}], distance {match.distance} ({elapsed*1000:.1f} ms)")
print(f"  {len(big_corpus)} steps on {len(noisy)}-bit vectors cover all "
      f"{len(big_corpus) * (len(big_corpus) + 1) // 2} substrings")
