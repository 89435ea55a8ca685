"""Brute-force graded characters of arrangement ideals in explicit coordinates.

Given an arrangement in W = Q^m and a second space V of dimension n, the
polynomial ring on W tensor V has m*n variables z[j,i] (ordered (j,i)
lexicographically, j indexing W).  The degree-one part of the k-th linear
ideal is spanned by a tensor e_i for a running over the annihilator of the
k-th subspace - each such form has pure V-weight e_i, so every ideal in
sight is graded by V-weights and both the polynomial and the exterior side
can be row reduced one weight space at a time.

This module spans degree-d pieces of product, intersection and wedge
ideals by generator-times-monomial products and measures weight-space
dimensions by exact elimination.  Every such ideal is GL(V)-stable, so the
Weyl group S_n, permuting the coordinates of V, permutes its weight spaces:
only dominant weights (partitions of d padded to length n) are eliminated,
and each dimension is copied to every permutation of its weight.  The
module shares no code path with the polymatroid recursion, which makes it
an independent check on the series formulas.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, permutations, product as cartesian
from math import comb, gcd, lcm

from .arrangements import Arrangement
from .errors import SizeCapError
from .partitions import partitions_of
from .schur import SchurSeries, from_weight_multiplicities

log = logging.getLogger(__name__)

Weight = tuple[int, ...]


@dataclass(frozen=True)
class OracleCaps:
    """Size limits for the brute-force computations.

    The weight-space matrices grow combinatorially, so every entry point
    refuses inputs beyond these bounds instead of silently hanging.
    """

    ambient_dim: int = 4
    dim_v: int = 4
    degree: int = 4
    subspaces: int = 4


DEFAULT_CAPS = OracleCaps()


def _check_sizes(arr: Arrangement, n: int, d_max: int, caps: OracleCaps):
    if n < 1:
        raise ValueError("dim V must be positive")
    if d_max < 0:
        raise ValueError("maximum degree must be nonnegative")
    checks = (
        ("ambient dimension m", arr.ambient_dim, caps.ambient_dim),
        ("dim V", n, caps.dim_v),
        ("maximum degree", d_max, caps.degree),
        ("arrangement size t", len(arr.subspaces), caps.subspaces),
    )
    for label, value, cap in checks:
        if value > cap:
            raise SizeCapError(
                f"{label} = {value} exceeds the oracle cap {cap} "
                "(pass explicit OracleCaps, or set EQUISYZ_CAPS for the CLI)"
            )


@dataclass
class GradedCharacter:
    """Per-degree weight multiplicity tables of a graded GL(V) representation.

    ``weights[d]`` maps a V-weight (length-n composition of d) to the exact
    dimension of its weight space; zero dimensions are omitted.
    """

    n: int
    weights: dict[int, dict[Weight, int]]

    def dimension(self, d: int) -> int:
        return sum(self.weights.get(d, {}).values())

    def min_degree(self) -> int | None:
        nonzero = [d for d, table in self.weights.items() if table]
        return min(nonzero) if nonzero else None

    def schur(self, d: int) -> SchurSeries:
        return from_weight_multiplicities(self.weights.get(d, {}), d, self.n)


def character_to_schur(gc: GradedCharacter, d: int) -> SchurSeries:
    """Faithful Schur expansion of the degree-d piece (requires n >= d)."""
    return gc.schur(d)


class _Echelon:
    """Incremental row echelon form over sparse integer rows, fraction-free.

    Rows are dicts keyed by basis labels (any totally ordered hashables);
    the pivot of a row is its smallest label.  Rational entries are scaled
    to integers on entry, and elimination cross-multiplies instead of
    dividing, so every coefficient stays an exact ``int``: fraction-free
    elimination as in Bareiss (Math. Comp. 22, 1968), except that each row
    is divided by the gcd of its entries rather than by the previous pivot.
    A stored row is primitive, with a positive pivot, and is reduced only
    forward, against the rows of smaller pivot: ``add`` never touches the
    rows already stored.  ``nullspace`` back-substitutes once into fully
    reduced form before it reads off the free labels.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot label -> primitive row, pivot > 0

    def add(self, row: dict) -> bool:
        """Reduce a row against the current basis; keep it if independent."""
        work = {k: v for k, v in row.items() if v}
        if any(type(v) is not int for v in work.values()):
            work = _integral(work)
        while work:
            lead = min(work)
            piv = self.rows.get(lead)
            if piv is None:
                self.rows[lead] = _primitive(work, lead)
                return True
            work = _eliminate(work, piv, lead)
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)

    def nullspace(self, labels) -> list[dict]:
        """Integer basis of the vectors orthogonal to every row added.

        One vector per free label, a label of ``labels`` that is not a
        pivot; every row label must be among ``labels``.  Leaves the stored
        rows fully reduced.
        """
        reduced: dict = {}
        for p in sorted(self.rows, reverse=True):
            prow = self.rows[p]  # replaced below, so free to consume
            for q in [q for q in prow if q in reduced]:
                prow = _eliminate(prow, reduced[q], q)
            reduced[p] = _primitive(prow, p)
        self.rows = reduced
        pivots_with: dict = {}  # free label -> pivots whose rows carry it
        for p, prow in reduced.items():
            for k in prow:
                if k != p:
                    pivots_with.setdefault(k, []).append(p)
        out = []
        for free in labels:
            if free in reduced:
                continue
            hits = pivots_with.get(free, ())
            scale = lcm(*(reduced[p][p] for p in hits))
            vec = {free: scale}
            for p in hits:
                prow = reduced[p]
                vec[p] = -prow[free] * (scale // prow[p])
            out.append(vec)
        return out


def _eliminate(work: dict, piv: dict, lead) -> dict:
    """b*work - a*piv for the smallest b > 0 that clears ``lead``, made
    primitive; ``piv`` has a positive entry at ``lead``.  ``work`` is
    consumed: the result may be the same dict, updated in place."""
    a = work[lead]
    b = piv[lead]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    out = {k: b * v for k, v in work.items()} if b != 1 else work
    for k, v in piv.items():
        w = out.get(k, 0) - a * v
        if w:
            out[k] = w
        else:
            del out[k]
    if b != 1 and out:
        g = gcd(*out.values())
        if g != 1:
            out = {k: v // g for k, v in out.items()}
    return out


def _integral(row: dict) -> dict:
    """Scale a rational row by the lcm of its denominators."""
    den = lcm(*(v.denominator for v in row.values()))
    return {k: int(v * den) for k, v in row.items()}


def _primitive(row: dict, lead) -> dict:
    """Divide an integer row by the gcd of its entries, signed so that the
    entry at ``lead`` comes out positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return {k: v // g for k, v in row.items()} if g != 1 else row


# -- coordinates -----------------------------------------------------------


@dataclass(frozen=True)
class CoordinateIdealBasis:
    """Degree-one generators of each linear ideal in explicit coordinates.

    Variable v = j*n + i stands for z[j,i] = w_j tensor v_i, in (j,i)-lex
    order.  Each form is a pair (i, {var: coeff}): the tensor of an
    annihilator vector of the k-th subspace with e_i, so it has pure
    V-weight e_i.  Factor k contributes (m - dim Y_k) * n forms.  The
    annihilator vectors are scaled to coprime integers, which leaves their
    span alone and makes every spanning row of the oracle integral.
    """

    m: int
    n: int
    forms_per_factor: tuple[tuple, ...]

    @staticmethod
    def of(arr: Arrangement, n: int) -> "CoordinateIdealBasis":
        out = []
        for sub in arr.subspaces:
            forms = []
            for a in sub.annihilator().basis:
                coeffs = _integral({j: c for j, c in enumerate(a) if c})
                coeffs = _primitive(coeffs, min(coeffs))
                for i in range(n):
                    forms.append((i, {j * n + i: c for j, c in coeffs.items()}))
            out.append(tuple(forms))
        return CoordinateIdealBasis(arr.ambient_dim, n, tuple(out))


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if total < 0:
        return
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _weight_monomials(w: Weight, m: int, n: int):
    """Exponent tuples (length m*n) of the polynomial monomials of weight w."""
    per_column = [list(_compositions(wi, m)) for wi in w]
    for choice in cartesian(*per_column):
        exp = [0] * (m * n)
        for i, col in enumerate(choice):
            for j, e in enumerate(col):
                if e:
                    exp[j * n + i] = e
        yield tuple(exp)


def _exterior_weight_monomials(w: Weight, m: int, n: int):
    """Sorted variable-index tuples of the exterior monomials of weight w."""
    if any(wi > m for wi in w):
        return
    per_column = [list(combinations(range(m), wi)) for wi in w]
    for choice in cartesian(*per_column):
        vars_ = [j * n + i for i, col in enumerate(choice) for j in col]
        yield tuple(sorted(vars_))


def _poly_times_form(poly: dict, form: dict) -> dict:
    out: dict = {}
    for mono, c in poly.items():
        for v, a in form.items():
            key = list(mono)
            key[v] += 1
            key = tuple(key)
            val = out.get(key, 0) + c * a
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def _ext_times_form(elem: dict, form: dict) -> dict:
    out: dict = {}
    for mono, c in elem.items():
        for v, a in form.items():
            pos = bisect_left(mono, v)
            if pos < len(mono) and mono[pos] == v:
                continue  # repeated factor wedges to zero
            sign = -1 if (len(mono) - pos) % 2 else 1
            key = mono[:pos] + (v,) + mono[pos:]
            val = out.get(key, 0) + sign * c * a
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def _weight_of_combo(combo, n: int) -> list[int]:
    base = [0] * n
    for i, _ in combo:
        base[i] += 1
    return base


def _dominant_weights(d: int, n: int):
    """Partitions of d with at most n parts, padded with zeros to length n."""
    for lam in partitions_of(d, max_parts=n):
        yield lam + (0,) * (n - len(lam))


def _orbit_filled(dominant: dict[Weight, int]) -> dict[Weight, int]:
    """Copy each dominant weight's dimension to every permutation of it."""
    return {p: dim for w, dim in dominant.items() for p in set(permutations(w))}


def _span_ranks(forms, n: int, d: int, rows) -> dict[Weight, int]:
    """Weight table of the degree-d span of one form per factor times the
    ``rows(combo, rest)`` of weight ``rest``: each dominant weight w is row
    reduced over the combos whose weight fits under w, with rest = w minus
    that weight, and its orbit is filled by symmetry."""
    combos = [(combo, _weight_of_combo(combo, n)) for combo in cartesian(*forms)]
    table = {}
    for w in _dominant_weights(d, n):
        ech = _Echelon()
        for combo, base in combos:
            rest = tuple(a - b for a, b in zip(w, base))
            if min(rest) >= 0:
                for row in rows(combo, rest):
                    ech.add(row)
        if ech.rank:
            table[w] = ech.rank
    return _orbit_filled(table)


# -- characters --------------------------------------------------------------


def product_ideal_character(
    arr: Arrangement, n: int, d_max: int, caps: OracleCaps = DEFAULT_CAPS
) -> GradedCharacter:
    """Graded character of the product ideal J_1(V) ... J_t(V).

    Degree d is spanned by products of one basis form per factor times a
    monomial of degree d - t; spanning vectors have pure V-weight, each
    dominant weight space is row reduced exactly, and the other weights
    follow by S_n symmetry.
    """
    _check_sizes(arr, n, d_max, caps)
    m = arr.ambient_dim
    forms = CoordinateIdealBasis.of(arr, n).forms_per_factor

    def rows(combo, rest):
        for mono in _weight_monomials(rest, m, n):
            poly = {mono: 1}
            for _, form in combo:
                poly = _poly_times_form(poly, form)
            if poly:
                yield poly

    weights: dict[int, dict[Weight, int]] = {}
    for d in range(d_max + 1):
        log.info(
            "product oracle degree %d: monomial space dimension %d",
            d, comb(m * n + d - 1, d),
        )
        weights[d] = _span_ranks(forms, n, d, rows)
    return GradedCharacter(n=n, weights=weights)


def intersection_ideal_character(
    arr: Arrangement, n: int, d_max: int, caps: OracleCaps = DEFAULT_CAPS
) -> GradedCharacter:
    """Graded character of the intersection ideal J_1(V) cap ... cap J_t(V).

    Each factor's degree-d piece is the span of its forms times degree d-1
    monomials; the intersection is computed one dominant weight space at a
    time by stacking annihilators, which is exact and keeps the matrices
    small, and the other weights follow by S_n symmetry.
    """
    _check_sizes(arr, n, d_max, caps)
    m = arr.ambient_dim
    forms = CoordinateIdealBasis.of(arr, n).forms_per_factor
    weights: dict[int, dict[Weight, int]] = {}
    for d in range(d_max + 1):
        log.info(
            "intersection oracle degree %d: monomial space dimension %d",
            d, comb(m * n + d - 1, d),
        )
        table: dict[Weight, int] = {}
        for w in _dominant_weights(d, n):
            labels = list(_weight_monomials(w, m, n))
            ambient = len(labels)
            stack = _Echelon()
            for factor_forms in forms:
                factor = _Echelon()
                for i, form in factor_forms:
                    if w[i] == 0:
                        continue
                    w_minus = tuple(
                        wi - 1 if idx == i else wi for idx, wi in enumerate(w)
                    )
                    for mono in _weight_monomials(w_minus, m, n):
                        factor.add(_poly_times_form({mono: 1}, form))
                for vec in factor.nullspace(labels):
                    stack.add(vec)
                if stack.rank == ambient:
                    break
            dim = ambient - stack.rank
            if dim:
                table[w] = dim
        weights[d] = _orbit_filled(table)
    return GradedCharacter(n=n, weights=weights)


def wedge_ideal_character(
    arr: Arrangement, n: int, d_max: int, caps: OracleCaps = DEFAULT_CAPS
) -> GradedCharacter:
    """Graded character of the wedge ideal J_1(V) ^ ... ^ J_t(V) in the
    exterior algebra on W tensor V.

    Same spanning strategy as the product, dominant weights only, inside
    the exterior algebra: exterior monomials are sorted variable tuples in
    the fixed (j,i)-lex variable order and every wedge tracks the sorting
    sign.
    """
    _check_sizes(arr, n, d_max, caps)
    m = arr.ambient_dim
    if d_max > m * n:
        raise ValueError(
            f"degree {d_max} exceeds the exterior top degree {m * n}"
        )
    forms = CoordinateIdealBasis.of(arr, n).forms_per_factor

    def rows(combo, rest):
        for emono in _exterior_weight_monomials(rest, m, n):
            elem = {(): 1}
            for _, form in combo:
                elem = _ext_times_form(elem, form)
                if not elem:
                    break
            for v in emono:
                if not elem:
                    break
                elem = _ext_times_form(elem, {v: 1})
            if elem:
                yield elem

    weights: dict[int, dict[Weight, int]] = {}
    for d in range(d_max + 1):
        log.info(
            "wedge oracle degree %d: exterior monomial space dimension %d",
            d, comb(m * n, d),
        )
        weights[d] = _span_ranks(forms, n, d, rows)
    return GradedCharacter(n=n, weights=weights)
