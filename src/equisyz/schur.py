"""Degree-truncated symmetric functions in the Schur basis.

A :class:`SchurSeries` is a finite integer combination of Schur functions
``s_lam`` with an explicit truncation degree D, stored as one dense vector
over ``graded_index``, the partitions in canonical graded order, trailing
zeros cut.  Its terms come out in that order without a sort, truncations
and graded parts are slices, sums and scalar multiples act entry by entry,
and ``omega``, the symmetric-to-exterior transpose of characters, gathers
each entry from the index of its conjugate.  Every operation truncates its
result, so all degrees up to D are exact and nothing above D is stored.
A series builds the index only up to its highest nonzero degree, so a
window of 60 holding s[1] is cheap, but a term past degree ~35 is not.

The pipeline only ever multiplies by powers of sigma = 1 + s_1 + s_2 + ...
By the Pieri rule (Macdonald, Symmetric Functions and Hall Polynomials,
I.5) sigma adds every horizontal strip, a unitriangular 0/1 matrix on the
index: a sigma pass adds to each coefficient those of the partitions below
it, and a sigma^-1 pass is forward substitution.  The general product,
by the Littlewood-Richardson rule, remains for the ring API.  This module
holds series only: weight tables and their Schur coefficients convert in
``equisyz.oracle``, the one place that reads weights.

Series are immutable and all operations are pure, so values can be shared
freely across threads.
"""

from __future__ import annotations

from functools import cache
from itertools import zip_longest
from numbers import Real
from operator import itemgetter
from types import MappingProxyType

from .partitions import (
    Partition,
    check_partition,
    contains,
    lr_coefficient,
    partitions_of,
    strips,
    weyl_dimension,
)


@cache
def _pair_product(mu: Partition, nu: Partition) -> tuple[tuple[Partition, int], ...]:
    """Full Schur expansion of s_mu * s_nu (homogeneous of degree |mu|+|nu|)."""
    if not mu:
        return ((nu, 1),)
    if not nu:
        return ((mu, 1),)
    total = sum(mu) + sum(nu)
    out = []
    for lam in partitions_of(total, max_parts=len(mu) + len(nu)):
        if lam[0] > mu[0] + nu[0] or not contains(lam, mu):
            continue
        c = lr_coefficient(lam, mu, nu)
        if c:
            out.append((lam, c))
    return tuple(out)


_TERM_STYLES = {"plain": ("s[{}]", "*"), "latex": ("s_{{({})}}", "\\,")}


def format_terms(pairs, style: str = "plain") -> str:
    """(partition, coefficient) pairs as a signed sum, each Schur function
    written s[2,1] (``"plain"``) or s_{(2,1)} (``"latex"``); "0" if empty."""
    shape, times = _TERM_STYLES[style]
    chunks = []
    for lam, c in pairs:
        term = shape.format(",".join(map(str, lam))) if lam else "1"
        mag = abs(c)
        body = term if mag == 1 and lam else (f"{mag}{times}{term}" if lam else str(mag))
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(("+ " if c > 0 else "- ") + body)
    return " ".join(chunks) or "0"


def _is_integer(c) -> bool:
    """Whether c is a real number without a fractional part; a string or a
    number like 3/2 is not, and must not be truncated by ``int``."""
    return isinstance(c, Real) and not c % 1


def _summed(pairs, degree: int) -> list[int]:
    """The (partition, coefficient) pairs of size at most ``degree`` as a
    cut vector, repeated partitions added.  The vector runs over
    ``graded_index`` of the highest degree with a nonzero sum.  A number
    with a fractional part is a ValueError, not truncated."""
    coeffs: dict[Partition, int] = {}
    for lam, c in pairs:
        lam = check_partition(lam)
        if not _is_integer(c):
            raise ValueError(f"coefficient {c!r} of s{list(lam)} is not an integer")
        if sum(lam) <= degree:
            coeffs[lam] = coeffs.get(lam, 0) + int(c)
    coeffs = {lam: c for lam, c in coeffs.items() if c}
    _, offsets, index, _, _ = graded_index(max(map(sum, coeffs), default=0))
    vec = [0] * offsets[-1]
    for lam, c in coeffs.items():
        vec[index[lam]] = c
    return _cut(vec)


def _cut(vec: list[int]) -> list[int]:
    """vec with its trailing zeros removed, in place."""
    while vec and not vec[-1]:
        vec.pop()
    return vec


def _reach(vec: list[int]):
    """``graded_index`` of the highest degree that ``vec`` reaches."""
    d = 0
    while graded_index(d)[1][-1] < len(vec):
        d += 1
    return graded_index(d)


def _upto(vec: list[int], k: int) -> list[int]:
    """The entries of degree <= k, a prefix of vec (vec itself if k is at
    least its highest degree)."""
    offsets = _reach(vec)[1]
    return vec[: offsets[k + 1]] if k + 1 < len(offsets) else vec


def check_window(degree):
    """A truncation window is an int >= 0, and not a bool."""
    if type(degree) is not int or degree < 0:
        raise ValueError(f"truncation degree must be nonnegative and an int, got {degree!r}")


class SchurSeries:
    """Truncated formal sum of Schur functions with exact integer
    coefficients: ``vec`` holds them over ``graded_index``, trailing zeros
    cut, and ``degree`` is the truncation window."""

    __slots__ = ("vec", "degree")

    def __init__(self, coeffs=None, *, degree: int):
        check_window(degree)
        self.vec = _summed(coeffs.items() if coeffs else (), degree)
        self.degree = degree

    @classmethod
    def _make(cls, vec: list[int], degree: int) -> "SchurSeries":
        # internal fast path: vec runs over graded_index no deeper than
        # degree, and is taken over, its trailing zeros cut in place
        obj = object.__new__(cls)
        obj.vec = _cut(vec)
        obj.degree = degree
        return obj

    @classmethod
    def from_pairs(cls, pairs, *, degree: int) -> "SchurSeries":
        """Build a series from (partition, coefficient) pairs; the
        coefficients of a repeated partition are added."""
        series = cls(degree=degree)
        series.vec = _summed(pairs, degree)
        return series

    # -- queries ---------------------------------------------------------

    @property
    def coeffs(self) -> MappingProxyType:
        """The nonzero coefficients as a read-only mapping, in canonical order."""
        return MappingProxyType(dict(self.items()))

    def coefficient(self, lam) -> int:
        i = _reach(self.vec)[2].get(check_partition(lam), len(self.vec))
        return self.vec[i] if i < len(self.vec) else 0

    def min_degree(self) -> int | None:
        """Lowest degree with a nonzero coefficient, or None for the zero series."""
        return next((sum(lam) for lam, _ in self.items()), None)

    def items(self) -> list[tuple[Partition, int]]:
        """Nonzero coefficients in the canonical order of ``graded_index``."""
        parts = _reach(self.vec)[0]
        return [(parts[i], c) for i, c in enumerate(self.vec) if c]

    def to_pairs(self) -> list[list]:
        """JSON-ready [[partition-as-list, coefficient], ...] in canonical order."""
        return [[list(lam), c] for lam, c in self.items()]

    def pretty(self) -> str:
        return format_terms(self.items())

    def __repr__(self) -> str:
        return f"<SchurSeries {self.pretty()} (deg <= {self.degree})>"

    def __bool__(self) -> bool:
        return bool(self.vec)

    def __eq__(self, other) -> bool:
        # equality of coefficient data; the truncation window is not compared
        if isinstance(other, int):
            return self.vec == ([other] if other else [])
        if isinstance(other, SchurSeries):
            return self.vec == other.vec
        return NotImplemented

    __hash__ = None  # mutable list inside; value semantics only

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return SchurSeries._make([other], self.degree)
        if isinstance(other, SchurSeries):
            return other
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        degree = min(self.degree, rhs.degree)
        pairs = zip_longest(_upto(self.vec, degree), _upto(rhs.vec, degree), fillvalue=0)
        return SchurSeries._make([a + b for a, b in pairs], degree)

    __radd__ = __add__

    def __neg__(self):
        return SchurSeries._make([-c for c in self.vec], self.degree)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return SchurSeries._make([c * other for c in self.vec], self.degree)
        if not isinstance(other, SchurSeries):
            return NotImplemented
        degree, right = min(self.degree, other.degree), other.items()
        terms = []
        for mu, a in self.items():
            for nu, b in right:
                if sum(mu) + sum(nu) > degree:
                    break  # the terms come in increasing degree
                terms += [(lam, a * b * c) for lam, c in _pair_product(mu, nu)]
        return SchurSeries._make(_summed(terms, degree), degree)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.invert() ** (-k)
        out = SchurSeries._make([1], self.degree)
        for _ in range(k):
            out = out * self
        return out

    def invert(self) -> "SchurSeries":
        """Multiplicative inverse up to the truncation degree.

        Only defined when the constant term is +1 or -1 (the units of the
        integer coefficient ring); computed degree by degree.
        """
        c0 = self.coefficient(())
        if c0 not in (1, -1):
            raise ValueError(
                "series is not invertible: constant term must be +1 or -1, "
                f"got {c0}"
            )
        D = self.degree
        f_parts = [self.graded_part(d) for d in range(D + 1)]
        g_parts = [SchurSeries._make([c0], D)]
        for d in range(1, D + 1):
            s = SchurSeries._make([], D)
            for e in range(1, d + 1):
                if f_parts[e]:
                    s = s + f_parts[e] * g_parts[d - e]
            g_parts.append((-c0) * s)
        return sum(g_parts[1:], g_parts[0])

    # -- structural operations ---------------------------------------------

    def omega(self) -> "SchurSeries":
        """The involution sending s_lam to s_{lam'}: each entry is read from
        the position of its conjugate, which has the same degree."""
        _, offsets, _, _, conjugates = _reach(self.vec)
        vec = self.vec + [0] * (offsets[-1] - len(self.vec))
        return SchurSeries._make([vec[j] for j in conjugates], self.degree)

    def truncate(self, k: int) -> "SchurSeries":
        """Sub-series of degree <= k; the truncation window stays at D."""
        if not 0 <= k <= self.degree:
            raise ValueError(f"truncation bound {k} outside 0..{self.degree}")
        return SchurSeries._make(_upto(self.vec, k), self.degree)

    def graded_part(self, d: int) -> "SchurSeries":
        """Homogeneous degree-d component: the slice of degree d."""
        if not 0 <= d <= self.degree:
            raise ValueError(f"degree {d} outside 0..{self.degree}")
        low = len(_upto(self.vec, d - 1))
        return SchurSeries._make([0] * low + _upto(self.vec, d)[low:], self.degree)

    def dimension(self, n: int, d: int) -> int:
        """Dimension of the degree-d part evaluated in n variables."""
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be positive and an int, got {n!r}")
        return sum(c * weyl_dimension(lam, n) for lam, c in self.graded_part(d).items())


def zero(degree: int) -> SchurSeries:
    return SchurSeries({}, degree=degree)


def one(degree: int) -> SchurSeries:
    return SchurSeries({(): 1}, degree=degree)


def sigma(degree: int) -> SchurSeries:
    """The full symmetric-algebra character 1 + s_1 + s_2 + ... up to D."""
    return SchurSeries(
        {((i,) if i else ()): 1 for i in range(degree + 1)}, degree=degree
    )


@cache
def graded_index(D: int):
    """The partitions of size <= D as one dense index: ``(parts, offsets,
    index, below, conjugates)``.

    ``parts`` lists them in the canonical graded order, and degree d holds
    the positions ``offsets[d]:offsets[d + 1]``, so a series of degree d is
    a prefix and truncating it is a slice.  ``index`` maps a partition, also
    one padded with a single zero, to its position.  ``below[j]`` is an
    itemgetter of the positions of the lam != mu = parts[j] for which mu/lam
    is a horizontal strip, the ``strips(mu)`` before mu itself.  Each such
    lam is smaller than mu, so it comes first.  On these vectors sigma is
    the unitriangular 0/1 matrix I + below (Pieri, Macdonald I.5).
    ``conjugates[j]`` is the position of the conjugate of parts[j], which
    has the same size.  The index of D extends a copy of that of D - 1, so
    building it caches every smaller one.
    """
    if D < 0:
        raise ValueError(f"index degree must be nonnegative, got {D!r}")
    if not D:
        return [()], [0, 1], {(): 0, (0,): 0}, [itemgetter(slice(0))], [0]
    parts, offsets, index, below, conjugates = graded_index(D - 1)
    parts, offsets, index = [*parts], [*offsets], {**index}
    below, conjugates = [*below], [*conjugates]
    for mu in partitions_of(D):
        index[mu] = index[mu + (0,)] = len(parts)
        parts.append(mu)
        # a strip source has the length of mu, so it ends in at most one zero
        src = list(map(index.__getitem__, strips(mu)))[:-1]  # the last is mu
        # a one-index itemgetter would return a scalar, not a tuple
        below.append(
            itemgetter(*src) if src[1:] else itemgetter(slice(src[0], src[0] + 1))
        )
    offsets.append(len(parts))
    for mu in parts[offsets[-2]:]:
        # mu' is len(mu) followed by the conjugate of mu less its first column
        rest = parts[conjugates[index[tuple([p - 1 for p in mu if p > 1])]]]
        conjugates.append(index[(len(mu),) + rest])
    return parts, offsets, index, below, conjugates


def sigma_pass(v: list[int], below) -> list[int]:
    """sigma * v on a dense vector: v_j plus its horizontal-strip sources."""
    return [a + sum(g(v)) for a, g in zip(v, below)]


def sigma_inverse_pass(v: list[int], below) -> list[int]:
    """sigma^-1 * v, by forward substitution through sigma_pass's
    unitriangular matrix: x_j = v_j - sum(below_j(x)) in index order."""
    x: list[int] = []
    append = x.append
    for a, g in zip(v, below):
        append(a - sum(g(x)))
    return x


def times_sigma_power(series: SchurSeries, k: int) -> SchurSeries:
    """series * sigma^k truncated at ``series.degree``: |k| passes of sigma
    (k > 0) or of sigma^-1 (k < 0) on its vector, padded to the whole of
    ``graded_index(series.degree)``."""
    _, offsets, _, below, _ = graded_index(series.degree)
    v = series.vec + [0] * (offsets[-1] - len(series.vec))
    step = sigma_pass if k > 0 else sigma_inverse_pass
    for _ in range(abs(k)):
        v = step(v, below)
    return SchurSeries._make(v, series.degree)
