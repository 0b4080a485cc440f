"""A fixed reference computation that measures the host's current speed.

The benchmark times ``kernel`` after every op and scales each reported time
to a host on which the kernel takes ``REFERENCE_S``.  On a shared host the
speed of the same code drifts by 20-40% over minutes; the scaled times cancel
most of that drift.  The kernel mimics polyconcept's inner loop (product
masks over a fixed 6x6x6 relation, set algebra, ``sorted``, dict lookups) so
that a slower host slows both alike, but it never calls polyconcept, so a
change to the program cannot change it.  Editing this file changes every
scaled time: it is a change to the benchmark.
"""

from __future__ import annotations

import itertools
import random
from time import perf_counter

REFERENCE_S = 0.002
N = 6
STRIDES = (N, 1)


def _layers():
    rng = random.Random(12345)
    layers = [dict.fromkeys(range(N), 0) for _ in range(3)]
    for cell in itertools.product(range(N), repeat=3):
        if rng.random() < 0.55:
            for i in range(3):
                rest = cell[:i] + cell[i + 1:]
                layers[i][cell[i]] |= 1 << (rest[0] * N + rest[1])
    return layers


LAYERS = _layers()


def _width(comps) -> int:
    bits = 0
    for combo in itertools.product(*comps):
        bits |= 1 << sum(p * s for p, s in zip(combo, STRIDES))
    return bits


def kernel() -> float:
    """Seconds taken by 180 fixed box extensions."""
    t0 = perf_counter()
    rng = random.Random(7)
    found = set()
    for _ in range(60):
        kept = [set(rng.sample(range(N), 2)) for _ in range(3)]
        for i in range(3):
            others = [sorted(kept[j]) for j in range(3) if j != i]
            w = _width(others)
            layer = LAYERS[i]
            ext = {e for e in range(N) if layer.get(e, 0) & w == w}
            found.add((i, tuple(sorted(ext)), tuple(map(tuple, others))))
    return perf_counter() - t0
