"""Subspace arrangements, their polymatroids, and equivariant Hilbert series.

The Hilbert series of a product ideal is computed from the polymatroid
rank function alone (Derksen, "Hilbert series of subspace arrangements",
JPAA 2007).  The identity

    sigma^(m - rk A) P(A) = sum over B in A of (-1)^|B| H(B)

inverts on the Boolean lattice to H = sum over B of (-1)^|B| sigma^(m - rk B) P(B).
Both this sum and the truncated inclusion-exclusion that defines each
correction polynomial P(B) are bucketed by rank, so every multiplication
is one Pieri power of sigma per rank.  Each P(B) lives at its own degree
|B| - 1, and the P of every subset is built in one pass in mask order,
whatever the truncation degree.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import SizeCapError
# intersect is not called here.  perfbench/traced_job.py counts the calls
# through this module's name, where the formula side must read 0.
from .linalg import Subspace, _integer_rows, _nullspace, _reduce_into, intersect
from .schur import SchurSeries, sigma, sigma_power, times_sigma_power

# Cap on the number t of subspaces, checked before a document's vectors are
# parsed.  The P table's 3^t subset sums set the t axis, about 3x per
# subspace.  Python 3.11 on a 2-core x86-64 VM, single cold jobs at D = t:
# product-wide-shaped arrangements (m = 4) take 1.0, 2.9, 8.7 and 26 s at
# t = 11, 12, 13 and 14; t lines in general position in Q^t take 3.7 s at
# t = 12 and 12.7 s at t = 13.  The three caps compound, and no t cap keeps
# their joint worst case inside the ~15 s the others aim for, since one
# hyperplane of Q^32 at D = 24 already takes 10-16 s.  At m = 32, D = 24:
# t hyperplanes take 16, 18, 26, 40, 51, 53 and 64 s at t = 1, 2, 4, 8,
# 11, 12 and 13 (one Pieri power per rank bucket), t lines 16, 20 and 33 s
# at t = 11, 12 and 13.
MAX_GROUND_SET = 13
# Cap on the ambient dimension m, checked before a document's vectors are
# parsed.  Python 3.11 on a 2-core x86-64 VM, single cold jobs at D = 24: a
# line in Q^24 takes 7.6-9.1 s, a line in Q^32 8.2-13 s and a hyperplane
# of Q^32 10-15 s (7.3-9.3 s in Q^24).
MAX_AMBIENT_DIM = 32
# Cap on the truncation degree D.  Python 3.11 on a 2-core x86-64 VM: at
# D = 24 a product job on m = t = 4 takes 0.8 s (3.5 s at D = 30), but one
# on m = 24, t = 1 takes 8-9 s and writes a 4.6 MB report.  Most of that
# job is the accumulation loop of times_sigma_power over its Pieri passes,
# one per factor of sigma^m and sigma^-m, which the cap bounds.
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

    ``ranks[mask]`` is evaluated for every mask at construction.  The table
    of correction polynomials P, one per mask, is built on first use and
    shared by ``p_polynomial`` and ``hilbert_product``.
    """

    def __init__(self, ground_size: int, rank_source):
        if ground_size < 0:
            raise ValueError("ground size must be nonnegative")
        self.ground_size = ground_size
        self.ranks = [rank_source(mask) for mask in range(1 << ground_size)]
        self._p_values: list[SchurSeries] | None = None

    def as_mask(self, subset) -> int:
        if isinstance(subset, int):
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
        out = []
        for mask, rank in enumerate(self.ranks):
            subset = tuple(i for i in range(self.ground_size) if mask >> i & 1)
            out.append((subset, rank))
        out.sort(key=lambda kv: (len(kv[0]), kv[0]))
        return out


@lru_cache(maxsize=4)
def polymatroid_of(arr: Arrangement) -> Polymatroid:
    """Polymatroid of an arrangement: rank(B) = m - dim of the intersection
    over B, with rank of the empty set 0.

    That is the rank of the annihilator rows of the subspaces in B stacked,
    taken with the fraction-free kernel on primitive integer rows; no
    intersection is built.  The subsets are walked depth first, a child
    adding the next lower subspace to a copy of its parent's echelon, so at
    most t + 1 echelons of at most m rows are alive at once.  An echelon of
    m rows is full: every superset has rank m, and nothing more is reduced.
    The last few polymatroids are kept, so the report and the Hilbert
    series of one job share one polymatroid.
    """
    m = arr.ambient_dim
    t = len(arr.subspaces)
    normals = [_integer_rows(_nullspace(s.basis, m)) for s in arr.subspaces]
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
    if truncation < pm.ground_size:
        raise ValueError(
            f"truncation degree {truncation} below ground-set size {pm.ground_size}"
        )
    return SchurSeries._make(dict(_p_table(pm)[pm.as_mask(subset)].coeffs), truncation)


def _add_into(acc: dict, series: SchurSeries, sign: int):
    for lam, c in series.coeffs.items():
        v = acc.get(lam, 0) + sign * c
        if v:
            acc[lam] = v
        else:
            del acc[lam]


def _sum_of_sigma_powers(buckets: dict, top_rank: int, degree: int) -> dict:
    """Coefficients of the sum over r of sigma^(top_rank - r) * buckets[r],
    truncated at ``degree``: one Pieri power per rank."""
    total: dict = {}
    for r, coeffs in buckets.items():
        term = times_sigma_power(SchurSeries._make(coeffs, degree), top_rank - r)
        _add_into(total, term, 1)
    return total


def _p_table(pm: Polymatroid) -> list[SchurSeries]:
    """P(B) at its own degree |B| - 1 (degree 0 for the empty set), for every
    mask in increasing order: each proper subset of B is a smaller mask, so
    its P is already in the table.  Built once per polymatroid."""
    if pm._p_values is None:
        ranks = pm.ranks
        table = [SchurSeries._make({(): 1}, 0)]
        for mask in range(1, len(ranks)):
            size = mask.bit_count()
            buckets: dict[int, dict] = {}
            sub = (mask - 1) & mask
            while True:
                # the outer minus sign of the recursion is folded in here
                sign = 1 if (size - sub.bit_count()) % 2 else -1
                _add_into(buckets.setdefault(ranks[sub], {}), table[sub], sign)
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            coeffs = _sum_of_sigma_powers(buckets, ranks[mask], size - 1)
            table.append(SchurSeries._make(coeffs, size - 1))
        pm._p_values = table
    return pm._p_values


def hilbert_product(arr: Arrangement, truncation: int) -> SchurSeries:
    """Equivariant Hilbert series of the product ideal of the arrangement.

    By Moebius inversion of sigma^(m - rk A) P(A) = sum over B of
    (-1)^|B| H(B), H = sum over r of sigma^(m - r) Q_r, where Q_r is the sum
    of (-1)^|B| P(B) over the subsets B of rank r.  Truncated to
    ``truncation``, which must be at least the generation degree t.
    """
    t = len(arr.subspaces)
    if truncation < t:
        raise ValueError(
            f"truncation degree {truncation} below generation degree {t}"
        )
    pm = polymatroid_of(arr)
    buckets: dict[int, dict] = {}
    for mask, p in enumerate(_p_table(pm)):
        sign = -1 if mask.bit_count() % 2 else 1
        _add_into(buckets.setdefault(pm.ranks[mask], {}), p, sign)
    return SchurSeries._make(
        _sum_of_sigma_powers(buckets, arr.ambient_dim, truncation), truncation
    )


def lines_first_disagreement(arr: Arrangement, truncation: int) -> int | None:
    """First degree >= t where H differs from sigma^m - t*sigma, or None.

    Only defined for arrangements of t distinct lines; the leading-term
    statement says the two agree above the low-degree correction.
    """
    t = len(arr.subspaces)
    if any(s.dim != 1 for s in arr.subspaces):
        raise ValueError("arrangement must consist of one-dimensional subspaces")
    if len(set(arr.subspaces)) != t:
        raise ValueError("lines must be pairwise distinct")
    D = truncation
    h = hilbert_product(arr, D)
    model = sigma_power(D, arr.ambient_dim) - t * sigma(D)
    for d in range(t, D + 1):
        if h.graded_part(d) != model.graded_part(d):
            return d
    return None
