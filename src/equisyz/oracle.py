"""Brute-force graded characters of arrangement ideals in explicit coordinates.

Given an arrangement in W = Q^m and a second space V of dimension n, the
polynomial ring on W tensor V has m*n variables z[j,i] (ordered (j,i)
lexicographically, j indexing W).  The degree-one part of the k-th linear
ideal is spanned by a tensor e_i for a running over the annihilator of the
k-th subspace - each such form has pure V-weight e_i, so every ideal in
sight is graded by V-weights and both the polynomial and the exterior side
can be row reduced one weight space at a time.  Both sides write a monomial
as its sorted tuple of variables and share one multiply and one renaming
of V-indices: the exterior side only adds the sign of re-sorting, and a
repeated variable makes its monomial zero.

This module measures the weight-space dimensions of product, intersection
and wedge ideals by exact elimination, and eliminates only what it cannot
deduce.  Every such ideal is GL(V)-stable, so the Weyl group S_n permutes
its weight spaces, and the dominant weights (partitions of d padded to
length n) determine each graded piece.  Kostka numbers are unitriangular
(Macdonald, Symmetric Functions and Hall Polynomials, I.6), so one peel
turns the eliminated dominant dimensions into Schur coefficients, which
is all a character holds; its weights are derived from them for the report.
This module owns both directions of that conversion.  By Cauchy,
Sym(W tensor V) is the sum of the S_lam W tensor S_lam V, so every
S_lam(V) in a product or intersection ideal has at most m rows: only
dominant weights with at most m parts are eliminated, and the peel needs
no others.  One rule spans the product and wedge ideals in every
degree: I_0 is the unit and I_d = I_{d-1} J_d, J_d the d-th linear ideal
up to t and the maximal ideal past it, so weight w of degree d is spanned
by each normal row of step d at each V-index i times I_{d-1} at w - e_i;
the partial products below t are GL(V)-stable and are not reported.  The
intersection ideal is not spanned at all: J_k(V) is the vanishing ideal of
Y_k tensor V, so each weight space of the intersection is the common
kernel of the restrictions to the Y_k tensor V, and its dimension is one
exact rank of their stacked vanishing conditions.
With the polymatroid it shares only each subspace's normal rows and the
fraction-free elimination kernel of ``equisyz.linalg``, which the tests
check against the reference ``Fraction`` RREF (``row_reduce``) and the
nullspace read off it, so it stays an independent check on the series
formulas.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import namedtuple
from functools import cached_property
from itertools import chain, combinations_with_replacement, product as cartesian
from math import comb, prod

from .arrangements import Arrangement
from .errors import SizeCapError
from .linalg import Subspace, _Echelon, _integer_row
from .partitions import Partition, kostka_number, orbit, partitions_of, weyl_dimension
from .schur import SchurSeries, _is_integer

Weight = tuple[int, ...]


OracleCaps = namedtuple(
    "OracleCaps", "ambient_dim dim_v degree subspaces", defaults=(4, 4, 4, 4)
)
OracleCaps.__doc__ = """Size limits for the brute-force computations.

The weight-space matrices grow combinatorially, so every entry point
refuses inputs beyond these bounds instead of silently hanging.
"""

DEFAULT_CAPS = OracleCaps()


def _check_sizes(arr: Arrangement, n: int, d_max: int, caps: OracleCaps):
    if type(n) is not int or n < 1:
        raise ValueError(f"dim V must be positive and an int, got {n!r}")
    if type(d_max) is not int or d_max < 0:
        raise ValueError(f"maximum degree must be nonnegative and an int, got {d_max!r}")
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


class GradedCharacter:
    """Per-degree Schur coefficients of a graded GL(V) representation in
    n = dim V variables.

    ``coeffs[d]`` maps each partition lam of d to c_lam, zeros omitted, in
    the peel order of :func:`kostka_peel`.  ``weights``, derived on first
    read, maps each degree to its dominant weight table: each partition mu
    of d with at most n parts, padded with zeros to length n, to the
    dimension sum c_lam K_{lam mu} of its weight space, zeros omitted.  S_n
    permutes the weight spaces, so every other weight has the dimension of
    the dominant weight in its orbit (``partitions.orbit`` lists that orbit).
    """

    def __init__(self, n: int, coeffs: dict[int, dict[Partition, int]]):
        self.n = n
        self.coeffs = coeffs

    def __eq__(self, other):
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    @cached_property
    def weights(self) -> dict[int, dict[Weight, int]]:
        n, weights = self.n, {}
        for d, coeffs in self.coeffs.items():
            table = weights[d] = {}
            for mu in partitions_of(d, max_parts=n):
                dim = sum(c * kostka_number(lam, mu) for lam, c in coeffs.items())
                if dim:
                    table[mu + (0,) * (n - len(mu))] = dim
        return weights

    def dimension(self, d: int) -> int:
        return sum(c * weyl_dimension(lam, self.n) for lam, c in self.coeffs.get(d, {}).items())

    def min_degree(self) -> int | None:
        nonzero = [d for d, coeffs in self.coeffs.items() if coeffs]
        return min(nonzero) if nonzero else None

    def schur(self, d: int) -> SchurSeries:
        return _polynomial(self.coeffs.get(d, {}), d, self.n)


def character_to_schur(gc: GradedCharacter, d: int) -> SchurSeries:
    """Faithful Schur expansion of the degree-d piece (requires n >= d)."""
    return gc.schur(d)


def _polynomial(coeffs: dict[Partition, int], d: int, n: int) -> SchurSeries:
    """The degree-d series of the coefficients peeled from a character in n
    variables.  Requires n >= d so all partitions of d are visible.  Raises
    ValueError when some coefficient is negative - i.e. when it is not a
    polynomial character; the first negative one in peeling order is named."""
    if n < d:
        raise ValueError(f"need n >= d for a faithful expansion, got n={n}, d={d}")
    for lam, c in coeffs.items():
        if c < 0:
            raise ValueError(
                "not a polynomial character: multiplicity "
                f"{c} at weight {lam + (0,) * (n - len(lam))}"
            )
    return SchurSeries(coeffs, degree=d)


def kostka_peel(dims, d: int, n: int, max_parts: int) -> dict[Partition, int]:
    """Schur coefficients c_lam, for lam with at most ``max_parts`` parts, of
    a degree-d character whose dominant weights (length n) have dimensions
    ``dims``, missing meaning zero.  K_{nu lam} != 0 needs nu to dominate
    lam, so Kostka is unitriangular in decreasing lex order: c_lam is
    dims[lam] minus the c_nu K_{nu lam} of the nu peeled before it.  They
    come back in that order, zeros omitted."""
    coeffs: dict[Partition, int] = {}
    for lam in partitions_of(d, max_parts=max_parts):
        c = dims.get(lam + (0,) * (n - len(lam)), 0) - sum(
            cn * kostka_number(nu, lam) for nu, cn in coeffs.items()
        )
        if c:
            coeffs[lam] = c
    return coeffs


def from_weight_multiplicities(weights, d: int, n: int) -> SchurSeries:
    """Recover a degree-d Schur expansion from weight multiplicities in n variables.

    ``weights`` maps length-n compositions of d, with entries of type int,
    to weight-space dimensions (missing keys mean zero).  Every weight and
    multiplicity is checked, and the table must be constant on each S_n
    orbit (each distinct orbit is walked once); then :func:`kostka_peel`
    reads its dominant weights, which needs n >= d, and the first negative
    coefficient is named.  Every failure is a ValueError.
    """
    table: dict[tuple[int, ...], int] = {}
    for w, mult in weights.items():
        w = tuple(w)
        if len(w) != n or any(type(x) is not int or x < 0 for x in w) or sum(w) != d:
            raise ValueError(f"weight {w!r} is not a composition of {d} into {n} parts")
        if not _is_integer(mult):
            raise ValueError(f"multiplicity {mult!r} at weight {w} is not an integer")
        if mult:
            table[w] = table.get(w, 0) + int(mult)

    # symmetry check over whole permutation orbits
    for canon in {tuple(sorted(w, reverse=True)) for w in table}:
        vals = {table.get(w, 0) for w in orbit(canon)}
        if len(vals) != 1:
            raise ValueError(
                f"weight multiplicities are not symmetric on the orbit of {canon}"
            )

    return _polynomial(kostka_peel(table, d, n, n), d, n)


# -- coordinates -----------------------------------------------------------


def _times_form(elem: dict, form: dict, exterior: bool) -> dict:
    """elem times a linear form {var: coeff}.  A monomial of either algebra
    is its sorted tuple of variables; on the exterior side each variable is
    wedged on the right, so it takes the sign of the variables it passes,
    and a repeated variable gives zero."""
    out: dict = {}
    for mono, c in elem.items():
        for v, a in form.items():
            pos = bisect_left(mono, v)
            if exterior:
                if pos < len(mono) and mono[pos] == v:
                    continue
                if (len(mono) - pos) % 2:
                    a = -a
            key = mono[:pos] + (v,) + mono[pos:]
            val = out.get(key, 0) + c * a
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def _renamed(elem: dict, perm, exterior: bool) -> dict:
    """elem with every z[j,k] renamed z[j,perm[k]]; each monomial is sorted
    again, and on the exterior side picks up the sign of that sorting."""
    n = len(perm)
    out = {}
    for mono, c in elem.items():
        vs = [v - v % n + perm[v % n] for v in mono]
        if exterior and sum(a > b for x, a in enumerate(vs) for b in vs[x + 1:]) % 2:
            c = -c
        out[tuple(sorted(vs))] = c
    return out


def _restriction_rows(basis: list[dict], m: int, e: int) -> list[dict]:
    """Sym^e of the restriction W* -> Y*, for Y spanned by the integer
    vectors ``basis``: z_j becomes sum_l basis[l][j] s_l.  One row per
    monomial of degree e in the s_l, keyed by the index of each degree-e
    monomial of W it reads, in ``combinations_with_replacement`` order."""
    columns = [{l: b[j] for l, b in enumerate(basis) if j in b} for j in range(m)]
    rows: dict = {}
    for idx, mono in enumerate(combinations_with_replacement(range(m), e)):
        image = {(): 1}
        for j in mono:
            image = _times_form(image, columns[j], False)
        for beta, c in image.items():
            rows.setdefault(beta, {})[idx] = c
    return list(rows.values())


def _kronecker_rows(per_column: list[list[dict]], strides: list[int]):
    """Rows of the Kronecker product of the per-column matrices, a source
    monomial labelled by the sum over columns of its index times the
    column's stride."""
    for choice in cartesian(*per_column):
        row = {0: 1}
        for col, stride in zip(choice, strides):
            row = {k + a * stride: c * x for k, c in row.items() for a, x in col.items()}
        yield row


def _dominant_weights(d: int, n: int, parts: int) -> list[Weight]:
    """Partitions of d with at most ``parts`` parts, padded with zeros to length n."""
    return [lam + (0,) * (n - len(lam)) for lam in partitions_of(d, max_parts=parts)]


def _log_degree(name, d, n, eliminated, offered, kept, reported=True):
    # Until something imports logging, no handler can be listening; the CLI
    # imports it only under --verbose, so a quiet job never loads it.
    logging = sys.modules.get("logging")
    if logging is None:
        return
    filled = len(partitions_of(d, max_parts=n)) - eliminated if reported else 0
    logging.getLogger(__name__).info(
        "%s oracle degree %d: %d dominant weights eliminated, %d filled by "
        "Kostka, %d rows offered, %d kept", name, d, eliminated, filled, offered, kept
    )


def _span_character(name, arr, n, d_max, rows, exterior):
    """Schur coefficients of J_1(V)...J_t(V), or of the wedge ideal in the
    exterior algebra if ``exterior``, one linear ideal at a time: I_0 is
    the unit and I_d = I_{d-1} J_d, with J_d the maximal ideal past t, and
    I_d is reported from d = t on.  I_{d,w} is spanned by each normal row
    of step d placed at each V-index i times I_{d-1,w-e_i}, the stored
    basis of the dominant permutation of w - e_i renamed into place.  Each
    I_d is GL(V)-stable, so only dominant weights with at most ``rows``
    parts are eliminated and peeled, and none when d_max < t leaves nothing
    to report."""
    t = len(arr.subspaces)
    steps = [sub.normal_rows() for sub in arr.subspaces]
    maximal = Subspace(arr.ambient_dim).normal_rows()
    prev: dict[Weight, list] = {(0,) * n: [{(): 1}]}  # the unit, the empty product

    def spanned(w, step):
        if not any(w):  # degree 0, reported only when t = 0
            yield from prev[w]
        for i in range(n):
            if w[i]:
                u = w[:i] + (w[i] - 1,) + w[i + 1:]
                perm = sorted(range(n), key=lambda k: -u[k])
                p = tuple(u[k] for k in perm)
                forms = [{j * n + i: c for j, c in row.items()} for row in step]
                for elem in prev.get(p, ()):
                    moved = elem if p == u else _renamed(elem, perm, exterior)
                    for form in forms:
                        yield _times_form(moved, form, exterior)

    coeffs: dict[int, dict[Partition, int]] = {}
    for d in range(d_max + 1):
        span = d >= t or (0 < d and d_max >= t)
        dominant = _dominant_weights(d, n, rows) if span else []
        step = steps[d - 1] if 0 < d <= t else maximal
        bases, offered = {}, 0
        for w in dominant:
            ech = _Echelon()
            for row in spanned(w, step):
                if row:
                    offered += 1
                    ech.add(row)
            if ech.rank:
                bases[w] = list(ech.rows.values())
        table = {w: len(basis) for w, basis in bases.items()}
        _log_degree(name, d, n, len(dominant), offered, sum(table.values()), d >= t)
        coeffs[d] = kostka_peel(table, d, n, rows) if d >= t else {}
        if span:
            prev = bases
    return coeffs


# -- characters --------------------------------------------------------------


def product_ideal_character(
    arr: Arrangement, n: int, d_max: int, caps: OracleCaps = DEFAULT_CAPS
) -> GradedCharacter:
    """Graded character of the product ideal J_1(V) ... J_t(V).

    Degree d is spanned by the normal rows of the d-th factor, or by the
    variables past t, times the basis of degree d - 1, from the unit up.
    Spanning vectors have pure V-weight and each dominant weight space with
    at most m parts is row reduced exactly.  By Cauchy, every S_lam(V) in
    the ideal has at most m rows, so those weights give every Schur
    coefficient.
    """
    _check_sizes(arr, n, d_max, caps)
    coeffs = _span_character("product", arr, n, d_max, min(n, arr.ambient_dim), False)
    return GradedCharacter(n, coeffs)


def intersection_ideal_character(
    arr: Arrangement, n: int, d_max: int, caps: OracleCaps = DEFAULT_CAPS
) -> GradedCharacter:
    """Graded character of the intersection ideal J_1(V) cap ... cap J_t(V).

    J_k(V) is the vanishing ideal of Y_k tensor V, so its weight-w piece is
    the kernel of the restriction Sym(W tensor V)_w -> Sym(Y_k tensor V)_w,
    and the intersection's is the common kernel: the number of monomials of
    weight w minus the rank of every factor's vanishing conditions stacked
    in one elimination.  The restriction preserves each V-column, so on
    weight w it is the Kronecker product over i of Sym^{w_i} of the
    restriction W* -> Y_k*, written in an integer basis of Y_k; the source
    monomials are labelled by their mixed-radix index.  Elimination stops
    once the rank reaches the number of monomials.  Only dominant weights
    with at most m parts are eliminated: by Cauchy, every S_lam(V) inside
    Sym(W tensor V) has at most m rows, so those weights give every Schur
    coefficient, and the ideal is a sum of S_lam W-parts tensor S_lam V, so
    c_lam does not depend on n: every n >= min(d_max, m) gives these coeffs.
    """
    _check_sizes(arr, n, d_max, caps)
    m = arr.ambient_dim
    restrictions = [
        [_restriction_rows([*map(_integer_row, sub.basis)], m, e) for e in range(d_max + 1)]
        for sub in arr.subspaces
    ]
    coeffs: dict[int, dict[Partition, int]] = {}
    for d in range(d_max + 1):
        table: dict[Weight, int] = {}
        dominant = _dominant_weights(d, n, min(n, m))
        offered = kept = 0
        for w in dominant:
            column_sizes = [comb(wi + m - 1, m - 1) for wi in w if wi]
            strides = [prod(column_sizes[:i]) for i in range(len(column_sizes))]
            ambient = prod(column_sizes)
            stack = _Echelon()
            for row in chain.from_iterable(
                _kronecker_rows([sym[wi] for wi in w if wi], strides)
                for sym in restrictions
            ):
                offered += 1
                stack.add(row)
                if stack.rank == ambient:
                    break
            kept += stack.rank
            if ambient > stack.rank:
                table[w] = ambient - stack.rank
        _log_degree("intersection", d, n, len(dominant), offered, kept)
        coeffs[d] = kostka_peel(table, d, n, min(n, m))
    return GradedCharacter(n, coeffs)


def wedge_ideal_character(
    arr: Arrangement, n: int, d_max: int, caps: OracleCaps = DEFAULT_CAPS
) -> GradedCharacter:
    """Graded character of the wedge ideal J_1(V) ^ ... ^ J_t(V) in the
    exterior algebra on W tensor V.

    Same spanning as the product, inside the exterior algebra: every wedge
    and every renaming of V-indices tracks the sign of sorting the
    variables again.  Its S_lam'(V) can have up to d rows, so every
    dominant weight is eliminated.
    """
    _check_sizes(arr, n, d_max, caps)
    m = arr.ambient_dim
    if d_max > m * n:
        raise ValueError(
            f"degree {d_max} exceeds the exterior top degree {m * n}"
        )
    coeffs = _span_character("wedge", arr, n, d_max, n, True)
    return GradedCharacter(n, coeffs)
