"""Seeded random rational arrangements, as the JSON documents the CLI reads.

Entries are nonzero integers and "p/q" strings.  Every subspace is spanned
by vectors drawn from one small pool shared by the whole arrangement, so
subspaces meet non-generically: several planes through one pool line, a
line inside a plane, two equal subspaces.

A document is a :class:`Pattern` filled with signs.  The pattern says
which pool vectors span which subspace and what magnitude every pool entry
has; the patterns of a batch come from a fixed seed, and the run's seed
draws the signs.  The formula side's cost depends only on the polymatroid,
which the pattern fixes; the oracle's cost also depends on how many
coordinates its annihilator forms touch and on the size of the fractions
its elimination meets, which the magnitudes fix.  Every seed therefore
gets a batch of the same mix of shapes, and a run measures the same work
whatever its seed.

Signs are redrawn until the pool is in general position (any m pool
vectors are independent) and each subspace is in general position with
respect to the coordinates (every maximal minor of its spanning vectors
is nonzero).  Then the pattern alone decides how the subspaces meet, and
no annihilator form loses a coordinate by accident.

This module does not import the program, so a change to the program
cannot change the inputs it is measured on.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

_MAGNITUDES = (1, 2, "1/2", "1/3", "2/3", "3/2")


def _signed(magnitude, negative: bool):
    if isinstance(magnitude, int):
        return -magnitude if negative else magnitude
    return "-" + magnitude if negative else magnitude


def _rank(rows) -> int:
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _all_minors_nonzero(vectors, m: int) -> bool:
    k = len(vectors)
    return all(
        _rank([[v[c] for c in cols] for v in vectors]) == k
        for cols in combinations(range(m), k)
    )


class Pattern:
    """Which pool vectors span which subspace, and the magnitude of every
    pool entry.  At least a fifth of all sign choices put it in general
    position, so filling it takes a few draws."""

    def __init__(self, rng: random.Random, m: int, dims, pool_size: int):
        self.m = m
        while True:
            order = list(dims)
            rng.shuffle(order)
            self.spans = [tuple(sorted(rng.sample(range(pool_size), k))) for k in order]
            self.magnitudes = [
                [
                    rng.choice(_MAGNITUDES[:2] if rng.random() < 0.7 else _MAGNITUDES[2:])
                    for _ in range(m)
                ]
                for _ in range(pool_size)
            ]
            probe = random.Random(0)
            if sum(self._fill(probe) is not None for _ in range(40)) >= 8:
                return

    def _fill(self, rng: random.Random) -> dict | None:
        """Draw signs; the document, or None when it is not in general position."""
        m = self.m
        pool = [[_signed(x, rng.random() < 0.5) for x in row] for row in self.magnitudes]
        subspaces = [[pool[i] for i in span] for span in self.spans]
        if all(_rank(chosen) == m for chosen in combinations(pool, m)) and all(
            _all_minors_nonzero(s, m) for s in subspaces
        ):
            return {"ambient_dim": m, "subspaces": subspaces}
        return None

    def arrangement(self, rng: random.Random) -> dict:
        """One document: this pattern with signs drawn from ``rng``."""
        for _ in range(10_000):
            doc = self._fill(rng)
            if doc is not None:
                return doc
        raise RuntimeError("no sign choice puts the pattern in general position")
