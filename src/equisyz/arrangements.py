"""Subspace arrangements, their polymatroids, and equivariant Hilbert series.

The Hilbert series of a product ideal is computed from the polymatroid
rank function alone (Derksen, "Hilbert series of subspace arrangements",
JPAA 2007).  The identity

    sigma^(m - rk A) P(A) = sum over B in A of (-1)^|B| H(B)

inverts on the Boolean lattice to H = sum over B of (-1)^|B| sigma^(m - rk B) P(B).
Each correction polynomial P(B) lives at its own degree |B| - 1, and the
P of every subset is built in one pass in mask order, whatever the
truncation degree.  Both work on the dense integer vectors of
``schur.graded_index``, over the partitions in the canonical graded
order, so a truncation is a slice.  One routine, ``_rank_buckets``, sums
the P of the subsets of a mask into one vector per rank: the proper
subsets of B for P(B), and every subset of the whole arrangement for H.
Both sum_r sigma^(rk B - r) bucket_r for P(B), at degree |B| - 1, and
sum_r sigma^(m - r) Q_r for H, at degree D, are evaluated by Horner's
rule in sigma: one pass of sigma per unit of rank, however many buckets
there are.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import add, sub as subtract

from .errors import SizeCapError
# intersect is not called here.  perfbench/traced_job.py counts the calls
# through this module's name, where the formula side must read 0.
from .linalg import Subspace, _reduce_into, intersect
from .schur import SchurSeries, check_window, graded_index, sigma_pass

# Cap on the number t of subspaces, checked before a document's vectors are
# parsed.  The P table's 3^t subset sums set the t axis, about 3x per
# subspace.  Python 3.11 on 2 shared x86-64 cores, single cold jobs at
# D = t: product-wide-shaped arrangements (m = 4) take 0.5, 1.2 and 3.4 s
# at t = 11, 12 and 13, and t lines in Q^32 0.5, 1.2 and 3.0 s, most of it
# the subset sums.  The three caps compound: at m = 32, D = 24 t
# hyperplanes take 1.2, 1.1, 1.7, 2.2, 3.6, 5.5 and 9.5 s at t = 1, 2, 4,
# 8, 11, 12 and 13, so t, not D, now sets the joint worst case; at t = 13
# the exact ranks, the subset sums and the P table's passes of sigma each
# take a share.
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
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
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
    The table of correction polynomials P, one dense vector per mask (see
    ``_p_table``), is built on first use and shared by ``p_polynomial`` and
    ``hilbert_product``.
    """

    def __init__(self, ground_size: int, rank_source):
        if ground_size < 0:
            raise ValueError("ground size must be nonnegative")
        ranks = [rank_source(mask) for mask in range(1 << ground_size)]
        if ranks[0] != 0 or any(
            ranks[mask & ~(1 << i)] > rank
            for mask, rank in enumerate(ranks)
            for i in range(ground_size)
            if mask >> i & 1
        ):
            raise ValueError("rank function must be 0 on the empty set and monotone")
        self.ground_size = ground_size
        self.ranks = ranks
        self._p_values: list[list[int]] | None = None

    def as_mask(self, subset) -> int:
        if type(subset) is int:  # a bool is no mask: iterating it is a TypeError
            mask = subset
        else:
            mask = 0
            for i in subset:
                mask |= 1 << i
        if not 0 <= mask < (1 << self.ground_size):
            raise ValueError(f"subset {subset!r} outside ground set of size {self.ground_size}")
        return mask

    def rank(self, subset) -> int:
        return self.ranks[self.as_mask(subset)]

    def rank_table(self) -> list[tuple[tuple[int, ...], int]]:
        """All (subset, rank) pairs ordered by size then lexicographically."""
        t = self.ground_size
        return [
            (subset, self.rank(subset))
            for k in range(t + 1)
            for subset in combinations(range(t), k)
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
    """
    check_window(truncation)
    if truncation < pm.ground_size:
        raise ValueError(
            f"truncation degree {truncation} below ground-set size {pm.ground_size}"
        )
    return SchurSeries._make(_p_table(pm)[pm.as_mask(subset)], truncation)


def _rank_buckets(ranks, dense, mask: int, sub: int, n: int) -> list:
    """The submasks C of ``mask``, from ``sub`` down to the empty set, summed
    by rank: bucket_r is the sum of -(-1)^(|mask| - |C|) P(C) over the C of
    rank r, a dense vector of length n, or None if there is none.  Each P(C)
    is a C-level slice update of the prefix that holds it."""
    size = mask.bit_count()
    buckets: list = [None] * (ranks[mask] + 1)
    while True:
        p = dense[sub]
        if p:
            r = ranks[sub]
            if buckets[r] is None:
                buckets[r] = [0] * n
            op = add if (size - sub.bit_count()) % 2 else subtract
            buckets[r][: len(p)] = map(op, buckets[r], p)
        if sub == 0:
            return buckets
        sub = (sub - 1) & mask


def _p_table(pm: Polymatroid) -> list[list[int]]:
    """P(B) at its own degree |B| - 1 (degree 0 for the empty set), for every
    mask in increasing order, as a dense vector of ``graded_index`` with its
    trailing zeros cut: each proper subset of B is a smaller mask, so its P
    is already in the table.  Built once per polymatroid.

    The proper subsets of B are summed into their rank buckets by
    ``_rank_buckets``, which folds in the outer minus sign of the
    recursion.  The sum over r of sigma^(rk B - r) * bucket_r is then taken
    by Horner's rule in sigma.  bucket_0 is a constant c: a subset of rank 0
    has only subsets of rank 0, so its own P is its bucket_0, a constant by
    induction from P(empty set) = 1.  So Horner starts at the first nonempty
    bucket r > 0 from c * sigma^r, each sigma^r built once per table, and
    takes rk B - r passes of sigma for any number of buckets.
    """
    if pm._p_values is None:
        ranks = pm.ranks
        _, offsets, _, below = graded_index(max(pm.ground_size - 1, 0))
        powers = [[1] + [0] * (offsets[-1] - 1)]  # sigma^r, as far as needed
        dense = [[1]]
        for mask in range(1, len(ranks)):
            n = offsets[mask.bit_count()]
            buckets = _rank_buckets(ranks, dense, mask, (mask - 1) & mask, n)
            c = buckets[0][0]
            buckets[0] = None
            r = next((r for r, b in enumerate(buckets) if b is not None), ranks[mask])
            while len(powers) <= r:
                powers.append(sigma_pass(powers[-1], below))
            acc = [c * x for x in powers[r][:n]]
            for i, bucket in enumerate(buckets[r:]):
                if i:
                    acc = sigma_pass(acc, below)
                if bucket is not None:
                    acc = list(map(add, acc, bucket))
            while acc and not acc[-1]:
                acc.pop()
            dense.append(acc)
        pm._p_values = dense
    return pm._p_values


def hilbert_product(arr: Arrangement, truncation: int) -> SchurSeries:
    """Equivariant Hilbert series of the product ideal of the arrangement.

    By Moebius inversion of sigma^(m - rk A) P(A) = sum over B of
    (-1)^|B| H(B), H = sum over r of sigma^(m - r) Q_r, where Q_r is the sum
    of (-1)^|B| P(B) over the subsets B of rank r.  These are the P table's
    rank buckets over every subset of the whole arrangement E, E included:
    Q_r = (-1)^(t+1) bucket_r.  The sum over r is taken by Horner's rule in
    sigma on the dense vector of ``graded_index(truncation)``, which must be
    at least the generation degree t: rk E passes of sigma between the
    buckets, then m - rk E more.
    """
    t = len(arr.subspaces)
    check_window(truncation)
    if truncation < t:
        raise ValueError(
            f"truncation degree {truncation} below generation degree {t}"
        )
    pm = polymatroid_of(arr)
    _, offsets, _, below = graded_index(truncation)
    full = (1 << t) - 1
    buckets = _rank_buckets(pm.ranks, _p_table(pm), full, full, offsets[max(t, 1)])
    h = [0] * offsets[-1]
    for r, bucket in enumerate(buckets):
        if r:
            h = sigma_pass(h, below)
        if bucket is not None:
            h[: len(bucket)] = map(add, h, bucket)
    for _ in range(arr.ambient_dim - pm.ranks[full]):
        h = sigma_pass(h, below)
    return SchurSeries._make(h if t % 2 else [-c for c in h], truncation)
