"""A fixed pure-Python kernel that gauges how fast the machine runs right now.

On the reference machine (a 2-vCPU KVM guest on a shared host) everything
runs up to 1.7x slower in spells of seconds to minutes, in CPU time as well
as in wall time.  ``run.py`` times this kernel between short stretches of
documents and scales the documents' CPU-bound times by
``REFERENCE_S / kernel time``, so that a slow spell slows the kernel and the
program alike and cancels out.  The kernel imports nothing from blockspot:
a change to the program never changes the yardstick.

The kernel mixes two parts because they slow down by different factors.
Between the fastest and slowest quarters of the timings over 100 s, a
loop of box overlaps that stays in cache slowed by 1.50-1.79x and a walk
that misses the cache by 1.36-1.38x, while the evaluation of a dense page
and a paragraph search slowed by 1.33-1.61x, always about 1.1 times less
than the loop.  The mix of the two, about equally long, slowed by 1.36x
where those two slowed by 1.34-1.35x.
"""

from __future__ import annotations

import array
import random
import time

REFERENCE_S = 0.017  # the kernel's time on the reference machine outside slow spells

_rng = random.Random(0)
_BOXES = []
for _ in range(120):
    x, y = _rng.uniform(0, 500), _rng.uniform(0, 500)
    _BOXES.append((x, y, x + _rng.uniform(5, 60), y + _rng.uniform(5, 30)))
_WORDS = ["".join(_rng.choice("abcdefgh") for _ in range(_rng.randint(3, 9))) for _ in range(300)]

# A full-period linear congruential walk over 2**21 four-byte slots: each
# step reads the next index from a scattered place in 8 MB, four times the
# L2 cache of a core of the reference machine.
_SLOTS = 1 << 21
_NEXT = array.array("i", ((1103515245 * i + 12345) % _SLOTS for i in range(_SLOTS)))
_STEPS = 60_000


def kernel_seconds() -> float:
    """Wall seconds of box overlaps, dict updates, string joins and a memory walk."""
    started = time.perf_counter()
    best = 0.0
    for a in _BOXES:
        for b in _BOXES:
            w = min(a[2], b[2]) - max(a[0], b[0])
            h = min(a[3], b[3]) - max(a[1], b[1])
            if w > 0 and h > 0:
                inter = w * h
                union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
                best = max(best, inter / union)
    counts: dict[str, int] = {}
    for _ in range(3):
        for word in _WORDS:
            counts[word] = counts.get(word, 0) + len(" ".join([word, word.upper()]))
    i = 0
    for _ in range(_STEPS):
        i = _NEXT[i]
    return time.perf_counter() - started
