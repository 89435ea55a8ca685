"""Subspace arrangements, their polymatroids, and equivariant Hilbert series.

The Hilbert series of a product ideal is computed from the polymatroid
rank function alone (Derksen, "Hilbert series of subspace arrangements",
JPAA 2007).  The identity

    sigma^(m - rk A) P(A) = sum over B in A of (-1)^|B| H(B)

inverts on the Boolean lattice to H = sum over B of (-1)^|B| sigma^(m - rk B) P(B).
The product of |B| linear ideals is generated in degree |B| (Conca and
Herzog), so H(B) has no term below degree |B|; that is the recursion
that gives each correction polynomial P(B) at its own degree |B| - 1.
It costs 3^t submask sums over every subset, but only the non-spanning
ones, rk C < rk E, need it.  A spanning subset contributes only below
its own size, so P of a spanning subset and H follow from the
non-spanning table in closed form, with binomial weights and a
truncation.  Everything works on the dense integer vectors of
``schur.graded_index``, over the partitions in the canonical graded
order, so a truncation is a slice.  ``_rank_buckets`` sums the P of the
subsets of a mask into one vector per rank, and ``_horner`` evaluates
sum_r sigma^(top - r) bucket_r by Horner's rule in sigma: one pass of
sigma per unit of rank, however many buckets there are.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from operator import add, sub as subtract

from .errors import SizeCapError
# intersect is not called here.  perfbench/traced_job.py counts the calls
# through this module's name, where the formula side must read 0.
from .linalg import Subspace, _reduce_into, intersect
from .schur import SchurSeries, _cut, check_nonnegative_int, graded_index, sigma_pass

# Cap on the number t of subspaces, checked before a document's vectors are
# parsed.  The P table's 3^t subset sums run only over the non-spanning
# subsets, rk C < rk E, so the t axis is set by how late an arrangement
# spans.  Python 3.11 on 2 shared x86-64 cores, single cold jobs at D = t:
# product-wide-shaped arrangements (m = 4) take 0.06, 0.08 and 0.10 s at
# t = 11, 12 and 13, and t lines in Q^32 0.07, 0.09 and 0.12 s.  The
# worst case is generic, of codimension 3 or 4, where the exact ranks cost
# most: 13 subspaces of Q^32 spanned by vectors with entries in -5..5
# take 24-29 s at codimension 3 (ranks 22.6 s, subset sums 2.3 s),
# 28-30 s at 4, 16 s at 2 and 4.6-5.1 s as hyperplanes (Python 3.11.7,
# 2 shared Xeon cores).  The caps compound: at m = 32 and D = 24 codim 3
# takes 26-30 s and hyperplanes 5.6-5.9 s, so t, not D, sets the worst case.
MAX_GROUND_SET = 13
# Cap on the ambient dimension m, checked before a document's vectors are
# parsed.  Python 3.11 on 2 shared x86-64 cores, single cold jobs at
# D = 24: a line in Q^24 takes 1.2 s, a line in Q^32 1.4 s and a
# hyperplane of Q^32 1.2 s (0.9 s in Q^24).  About two thirds of it is the
# m passes of sigma in hilbert_product and the m passes of sigma^-1 in
# betti_from_series, over a vector of every partition of size <= D, and
# most of the rest is writing the 4.7 MB report.
MAX_AMBIENT_DIM = 32
# Cap on the truncation degree D.  Python 3.11 on 2 shared x86-64 cores,
# single cold jobs: at D = 24 a product job on m = t = 4 takes 0.4 s
# (2.3 s at D = 30, the cap raised), one on a line in Q^24 1.2 s, with a
# 4.6 MB report.  A pass of sigma costs one term per horizontal strip
# between two partitions of size <= D: 7338 partitions and 0.32 million
# strips at D = 24, against 508 and 7059 at D = 14.
MAX_DEGREE = 24


def check_ground_set(t: int):
    """Refuse an arrangement of more than MAX_GROUND_SET subspaces."""
    if t > MAX_GROUND_SET:
        raise SizeCapError(
            f"arrangement has {t} subspaces; "
            f"the subset recursion is capped at {MAX_GROUND_SET}"
        )


class Arrangement:
    """An ordered list of subspaces of a common ambient space.

    Duplicates are allowed (t copies of the origin is a legitimate and
    useful arrangement).  Compared and hashed by value, so it keys the
    ``polymatroid_of`` cache; never mutated.
    """

    __slots__ = ("ambient_dim", "subspaces")

    def __init__(self, ambient_dim: int, subspaces: tuple[Subspace, ...]):
        if type(ambient_dim) is not int or ambient_dim < 1:  # a bool is no size
            raise ValueError(f"ambient dimension must be a positive int, got {ambient_dim!r}")
        for s in subspaces:
            if s.ambient_dim != ambient_dim:
                raise ValueError("subspace ambient dimension mismatch")
        check_ground_set(len(subspaces))
        self.ambient_dim = ambient_dim
        self.subspaces = subspaces

    def __eq__(self, other):
        if not isinstance(other, Arrangement):
            return NotImplemented
        return (self.ambient_dim, self.subspaces) == (other.ambient_dim, other.subspaces)

    def __hash__(self):
        return hash((self.ambient_dim, self.subspaces))

    def __len__(self) -> int:
        return len(self.subspaces)

    def subarrangement(self, indices) -> "Arrangement":
        return Arrangement(
            self.ambient_dim, tuple(self.subspaces[i] for i in indices)
        )


class Polymatroid:
    """Rank function on the subsets of {0, .., t-1}, indexed by bitmask.

    ``ranks[mask]`` is evaluated for every mask at construction, and must
    be 0 on the empty set and monotone, so no subset outranks a superset.
    The table of correction polynomials P, one dense vector per
    non-spanning mask (see ``_p_table``), is built on first use and shared
    by ``p_polynomial`` and ``hilbert_product``.
    """

    def __init__(self, ground_size: int, rank_source):
        if type(ground_size) is not int or ground_size < 0:  # a bool is no size
            raise ValueError(f"ground size must be a nonnegative int, got {ground_size!r}")
        ranks = [rank_source(mask) for mask in range(1 << ground_size)]
        for mask, rank in enumerate(ranks):
            if type(rank) is not int:  # a float or bool rank is no rank
                raise ValueError(f"rank of mask {mask} must be an int, got {rank!r}")
        if ranks[0] != 0 or any(
            ranks[mask & ~(1 << i)] > rank
            for mask, rank in enumerate(ranks)
            for i in range(ground_size)
            if mask >> i & 1
        ):
            raise ValueError("rank function must be 0 on the empty set and monotone")
        self.ground_size = ground_size
        self.ranks = ranks
        self._p_values: list | None = None

    def as_mask(self, subset) -> int:
        if type(subset) is int:  # a bool is no mask: iterating it is a TypeError
            mask = subset
        else:
            mask = 0
            for i in subset:
                if type(i) is not int or not 0 <= i < self.ground_size:
                    raise ValueError(
                        f"subset element {i!r} outside ground set of size {self.ground_size}"
                    )
                mask |= 1 << i
        if not 0 <= mask < (1 << self.ground_size):
            raise ValueError(f"subset {subset!r} outside ground set of size {self.ground_size}")
        return mask

    def rank(self, subset) -> int:
        return self.ranks[self.as_mask(subset)]

    def rank_table(self) -> list[tuple[tuple[int, ...], int]]:
        """All (subset, rank) pairs ordered by size then lexicographically;
        each subset's mask is the sum of the same combination of its bits."""
        t = self.ground_size
        bits = [1 << i for i in range(t)]
        return [
            (subset, self.ranks[mask])
            for k in range(t + 1)
            for subset, mask in zip(combinations(range(t), k), map(sum, combinations(bits, k)))
        ]


@lru_cache(maxsize=4)
def polymatroid_of(arr: Arrangement) -> Polymatroid:
    """Polymatroid of an arrangement: rank(B) = m - dim of the intersection
    over B, with rank of the empty set 0.

    That is the rank of the normal rows of the subspaces in B stacked
    (``Subspace.normal_rows``, primitive integer rows), taken with the
    fraction-free kernel; no intersection or annihilator is built.  The subsets are walked depth first, a child
    adding the next lower subspace to a copy of its parent's echelon, so at
    most t + 1 echelons of at most m rows are alive at once.  An echelon of
    m rows is full: every superset has rank m, and nothing more is reduced.
    The last few polymatroids are kept, so the report and the Hilbert
    series of one job share one polymatroid.
    """
    m = arr.ambient_dim
    t = len(arr.subspaces)
    normals = [s.normal_rows() for s in arr.subspaces]
    ranks = [0] * (1 << t)

    def walk(mask: int, echelon: dict):
        for i in range((mask & -mask).bit_length() - 1 if mask else t):
            child = mask | 1 << i
            grown = echelon
            if len(echelon) < m:
                grown = dict(echelon)
                for row in normals[i]:
                    if _reduce_into(grown, row) and len(grown) == m:
                        break
            ranks[child] = len(grown)
            walk(child, grown)

    walk(0, {})
    return Polymatroid(t, ranks.__getitem__)


def p_polynomial(pm: Polymatroid, subset, truncation: int) -> SchurSeries:
    """Correction polynomial P(B) of the polymatroid, in a window of degree
    ``truncation``.

    P of the empty set is 1; otherwise P(B) is the degree <= |B|-1 part of
      - sum over proper subsets C of (-1)^(|B|-|C|) sigma^(rk B - rk C) P(C).
    A non-spanning B has its P in ``_p_table``; a spanning one takes
    ``_spanning_p``, or is 1 when its rank is 0.
    """
    check_nonnegative_int(truncation, "truncation degree")
    if truncation < pm.ground_size:
        raise ValueError(
            f"truncation degree {truncation} below ground-set size {pm.ground_size}"
        )
    mask = pm.as_mask(subset)
    p = _p_table(pm)[mask]
    if p is None:
        p = _spanning_p(pm, mask) if pm.ranks[mask] else [1]
    return SchurSeries._make(p, truncation)


def _rank_buckets(keys, dense, mask: int, sub: int, n: int) -> list:
    """The submasks C of ``mask`` that have a P in ``dense``, from ``sub``
    down to the empty set, summed by ``keys[C]``, their rank or a (size,
    rank) index: bucket_k is the sum of -(-1)^(|mask| - |C|) P(C) over the
    C with key k < keys[mask] + 1, a dense vector of length n, or None if
    there is none.  Each P(C) is a C-level slice update of the prefix that
    holds it."""
    size = mask.bit_count()
    buckets: list = [None] * (keys[mask] + 1)
    while True:
        p = dense[sub]
        if p:
            k = keys[sub]
            if buckets[k] is None:
                buckets[k] = [0] * n
            op = add if (size - sub.bit_count()) % 2 else subtract
            buckets[k][: len(p)] = map(op, buckets[k], p)
        if sub == 0:
            return buckets
        sub = (sub - 1) & mask


def _horner(buckets: list, n: int, below, powers: list) -> list[int]:
    """sum over r of sigma^(top - r) * buckets[r], top = len(buckets) - 1,
    as a dense vector of length n, by Horner's rule in sigma.  buckets[0]
    is a constant c (a subset of rank 0 has P = 1), so Horner starts at the
    first nonempty bucket r > 0 from c * sigma^r, cached in ``powers``, and
    takes top - r passes of sigma for any number of buckets."""
    c = buckets[0][0] if buckets[0] else 0
    r = next((r for r in range(1, len(buckets)) if buckets[r] is not None), len(buckets) - 1)
    while len(powers) <= r:
        powers.append(sigma_pass(powers[-1], below))
    acc = [c * x for x in powers[r][:n]]
    for i in range(max(r, 1), len(buckets)):
        if i > r:
            acc = sigma_pass(acc, below)
        if buckets[i] is not None:
            acc[: len(buckets[i])] = map(add, acc, buckets[i])
    return acc


def _p_table(pm: Polymatroid) -> list:
    """P(C) for every non-spanning mask C, rk C < rk E, and for the empty
    set, at its own degree |C| - 1 (degree 0 for the empty set): a dense
    vector of ``graded_index`` with its trailing zeros cut, in increasing
    mask order, and None at every other mask.  Built once per polymatroid.

    The non-spanning masks are a down-set, so the proper subsets of such a
    C are smaller masks already in the table.  ``_rank_buckets`` sums them
    by rank, folding in the outer minus sign of the recursion, and
    ``_horner`` takes the sum over r of sigma^(rk C - r) * bucket_r.
    """
    if pm._p_values is None:
        ranks = pm.ranks
        _, offsets, _, below, _ = graded_index(max(pm.ground_size - 1, 0))
        powers = [[1] + [0] * (offsets[-1] - 1)]
        dense: list = [None] * len(ranks)
        dense[0] = [1]
        for mask in range(1, len(ranks)):
            if ranks[mask] < ranks[-1]:
                n = offsets[mask.bit_count()]
                buckets = _rank_buckets(ranks, dense, mask, (mask - 1) & mask, n)
                dense[mask] = _cut(_horner(buckets, n, below, powers))
        pm._p_values = dense
    return pm._p_values


def _spanning_p(pm: Polymatroid, mask: int) -> list[int]:
    """P(B) of a spanning mask B of rank > 0, in closed form from the table:
    with [x]_j the degree-j part of x, P(B) is the sum over C in B with
    rk C < rk B and over |C| <= j < |B| of
      (-1)^j binom(|B| - |C| - 1, j - |C|) [(-1)^|C| sigma^(rk B - rk C) P(C)]_j.
    At each D in B the sum over C in D of (-1)^|C| sigma^(rk B - rk C) P(C)
    has no part below |D|, and its spanning terms lie below |D|; Moebius
    inversion over D leaves the binomials, using only monotonicity.  The C
    are summed by size and rank, one Horner pass in sigma per size.
    """
    size, top = mask.bit_count(), pm.ranks[mask]
    _, offsets, _, below, _ = graded_index(size - 1)
    n = offsets[-1]
    keys = [r + (top + 1) * c.bit_count() for c, r in enumerate(pm.ranks)]
    buckets = _rank_buckets(keys, _p_table(pm), mask, mask, n)
    powers = [[1] + [0] * (n - 1)]
    p = [0] * n
    for s in range(size):
        if any(group := buckets[s * (top + 1) : (s + 1) * (top + 1)]):
            y = _horner(group, n, below, powers)
            for j in range(s, size):  # bucket terms are (-1)^(|B| + 1 + |C|) P(C)
                w = (-1) ** (size + 1 + j) * comb(size - s - 1, j - s)
                lo, hi = offsets[j], offsets[j + 1]
                p[lo:hi] = [a + w * b for a, b in zip(p[lo:hi], y[lo:hi])]
    return _cut(p)


def hilbert_product(arr: Arrangement, truncation: int) -> SchurSeries:
    """Equivariant Hilbert series of the product ideal of the arrangement.

    By Moebius inversion of sigma^(m - rk A) P(A) = sum over B of
    (-1)^|B| H(B), H = (-1)^t sum over C of (-1)^|C| sigma^(m - rk C) P(C).
    H has no term below degree t, and a spanning C contributes only there,
    so with rho = rk E, H is (-1)^t sigma^(m - rho) times the part of degree
    >= t of the sum over the C in the P table of (-1)^|C| sigma^(rho - rk C)
    P(C).  That sum is the table's rank buckets over every subset of E,
    taken by ``_horner`` on the dense vector of ``graded_index(truncation)``,
    which must be at least the generation degree t: rho passes of sigma,
    the degrees below t cleared, then m - rho more passes.
    """
    t = len(arr.subspaces)
    check_nonnegative_int(truncation, "truncation degree")
    if truncation < t:
        raise ValueError(
            f"truncation degree {truncation} below generation degree {t}"
        )
    pm = polymatroid_of(arr)
    _, offsets, _, below, _ = graded_index(truncation)
    n = offsets[-1]
    full = (1 << t) - 1
    buckets = _rank_buckets(pm.ranks, _p_table(pm), full, full, offsets[max(t, 1)])
    h = _horner(buckets, n, below, [[1] + [0] * (n - 1)])
    h[: offsets[t]] = [0] * offsets[t]
    for _ in range(arr.ambient_dim - pm.ranks[full]):
        h = sigma_pass(h, below)
    return SchurSeries._make(h if t % 2 else [-c for c in h], truncation)
