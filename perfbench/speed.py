"""The machine's speed right now, from a fixed pure-Python loop.

The shared host this benchmark was tuned on runs every process up to
1.8 times slower for seconds or for minutes at a time.  The benchmark
times ``loop`` next to each timed span and scales the span by
``REFERENCE_S / (the loop's time)``, which gives the span's length at a
fixed reference speed and cancels those spells.  A change to petripoly
moves the span and not the loop, so it shows in full.
"""

from time import perf_counter

# The loop's time at the reference speed: a fixed constant, close to the
# loop's time on the reference machine (see README.md) when it is quiet.
REFERENCE_S = 0.002


def loop():
    """Dict, tuple, int and string work, as in petripoly's own code."""
    counts = {}
    for k in range(3000):
        key = (k & 63, k >> 6)
        counts[key] = counts.get(key, 0) + k
    return len(",".join(f"{a}:{b}" for (a, b), _ in sorted(counts.items())))


def sample():
    """Seconds one run of ``loop`` takes now."""
    start = perf_counter()
    loop()
    return perf_counter() - start
