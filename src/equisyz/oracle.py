"""Brute-force graded characters of arrangement ideals in explicit coordinates.

Given an arrangement in W = Q^m and a second space V of dimension n, the
polynomial ring on W tensor V has m*n variables z[j,i] (ordered (j,i)
lexicographically, j indexing W).  The degree-one part of the k-th linear
ideal is spanned by a tensor e_i for a running over the annihilator of the
k-th subspace - each such form has pure V-weight e_i, so every ideal in
sight is graded by V-weights and both the polynomial and the exterior side
can be row reduced one weight space at a time.

This module measures the weight-space dimensions of product, intersection
and wedge ideals by exact elimination, and eliminates only what it cannot
deduce.  Every such ideal is GL(V)-stable, so the Weyl group S_n permutes
its weight spaces: only dominant weights (partitions of d padded to length
n) are eliminated, and each dimension is copied to every permutation of its
weight.  By Cauchy, Sym(W tensor V) is the sum of the S_lam W tensor S_lam V,
so every S_lam(V) in a product or intersection ideal has at most m rows:
only dominant weights with at most m parts are eliminated, and the others
follow from Kostka numbers.  The product and wedge ideals are generated in
degree t, so each degree above t is spanned by the variables times the
previous degree's basis.  The intersection ideal is not spanned at all:
J_k(V) is the vanishing ideal of Y_k tensor V, so each weight space of the
intersection is the common kernel of the restrictions to the Y_k tensor V,
and its dimension is one exact rank of their stacked vanishing conditions.
With the polymatroid it shares only the fraction-free elimination kernel
of ``equisyz.linalg``, which the tests check against the ``Fraction`` RREF,
so it stays an independent check on the series formulas.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import namedtuple
from itertools import chain, permutations, product as cartesian
from math import comb, prod

from .arrangements import Arrangement
from .errors import SizeCapError
from .linalg import _Echelon, _integer_rows
from .partitions import kostka_number, partitions_of
from .schur import SchurSeries, from_weight_multiplicities, kostka_peel

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


class GradedCharacter:
    """Per-degree weight multiplicity tables of a graded GL(V) representation.

    ``weights[d]`` maps a V-weight (length-n composition of d) to the exact
    dimension of its weight space; zero dimensions are omitted.
    """

    def __init__(self, n: int, weights: dict[int, dict[Weight, int]]):
        self.n = n
        self.weights = weights

    def __eq__(self, other):
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        return self.n == other.n and self.weights == other.weights

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


# -- coordinates -----------------------------------------------------------


def _forms_per_factor(arr: Arrangement, n: int) -> tuple[tuple, ...]:
    """Degree-one generators of each linear ideal in explicit coordinates.

    Variable v = j*n + i stands for z[j,i] = w_j tensor v_i, in (j,i)-lex
    order.  Each form is a pair (i, {var: coeff}): the tensor of an
    annihilator vector of the k-th subspace with e_i, so it has pure
    V-weight e_i.  Factor k contributes (m - dim Y_k) * n forms.  The
    annihilator vectors are scaled to coprime integers, which leaves their
    span alone and makes every spanning row of the oracle integral.
    """
    out = []
    for sub in arr.subspaces:
        forms = []
        for coeffs in _integer_rows(sub.annihilator().basis):
            for i in range(n):
                forms.append((i, {j * n + i: c for j, c in coeffs.items()}))
        out.append(tuple(forms))
    return tuple(out)


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


def _poly_renamed(poly: dict, perm) -> dict:
    """poly with every z[j,k] renamed z[j,perm[k]]."""
    n = len(perm)
    src = [0] * len(next(iter(poly)))
    for v in range(len(src)):
        src[v - v % n + perm[v % n]] = v
    return {tuple(mono[s] for s in src): c for mono, c in poly.items()}


def _ext_renamed(elem: dict, perm) -> dict:
    """elem with every z[j,k] renamed z[j,perm[k]]; each monomial is sorted
    again and picks up the sign of that sorting permutation."""
    n = len(perm)
    out = {}
    for mono, c in elem.items():
        vs = [v - v % n + perm[v % n] for v in mono]
        swaps = sum(a > b for x, a in enumerate(vs) for b in vs[x + 1:])
        out[tuple(sorted(vs))] = -c if swaps % 2 else c
    return out


def _restriction_rows(basis: list[dict], m: int, e: int) -> list[dict]:
    """Sym^e of the restriction W* -> Y*, for Y spanned by the integer
    vectors ``basis``: z_j becomes sum_l basis[l][j] s_l.  One row per
    monomial of degree e in the s_l, keyed by the index in
    ``_compositions(e, m)`` of each degree-e monomial of W it reads."""
    r = len(basis)
    columns = [{l: b[j] for l, b in enumerate(basis) if j in b} for j in range(m)]
    rows: dict = {}
    for idx, alpha in enumerate(_compositions(e, m)):
        image = {(0,) * r: 1}
        for j, a in enumerate(alpha):
            for _ in range(a):
                image = _poly_times_form(image, columns[j])
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


def _support_filled(table: dict[Weight, int], d: int, n: int, rows: int):
    """Complete the dominant weights of a representation whose S_lam(V)
    have at most ``rows`` rows, from those with at most ``rows`` parts: the
    c_lam are peeled by ``kostka_peel``, and then mu gets sum c_lam K_{lam mu}."""
    if n <= rows:
        return table
    coeffs = kostka_peel(table, d, n, rows)
    out = dict(table)
    for mu in partitions_of(d, max_parts=n):
        if len(mu) > rows:
            dim = sum(c * kostka_number(lam, mu) for lam, c in coeffs.items())
            if dim:
                out[mu + (0,) * (n - len(mu))] = dim
    return out


def _orbit_filled(dominant: dict[Weight, int]) -> dict[Weight, int]:
    """Copy each dominant weight's dimension to every permutation of it."""
    return {p: dim for w, dim in dominant.items() for p in set(permutations(w))}


def _log_degree(name: str, d: int, n: int, eliminated: int, offered: int, kept: int):
    # Until something imports logging, no handler can be listening; the CLI
    # imports it only under --verbose, so a quiet job never loads it.
    logging = sys.modules.get("logging")
    if logging is None:
        return
    filled = len(partitions_of(d, max_parts=n)) - eliminated if eliminated else 0
    logging.getLogger(__name__).info(
        "%s oracle degree %d: %d dominant weights eliminated, %d filled by "
        "Kostka, %d rows offered, %d kept", name, d, eliminated, filled, offered, kept
    )


def _span_character(name, forms, m, n, d_max, rows, one, times, renamed):
    """Weight tables of the ideal generated by the products of one form per
    factor, in the algebra with unit ``one``, product by a form ``times``
    and V-index renaming ``renamed``.  Degree t is spanned by the products
    of weight w; above it, I_{d,w} by z[j,i] times I_{d-1,w-e_i}, the stored
    basis of the dominant permutation of w - e_i renamed into place.  Only
    dominant weights with at most ``rows`` parts are eliminated."""
    t = len(forms)
    at_t: dict = {}
    for combo in cartesian(*forms):
        w = tuple(sum(i == k for i, _ in combo) for k in range(n))
        at_t.setdefault(w, []).append(combo)
    prev: dict[Weight, list] = {}

    def products(w):
        for combo in at_t.get(w, ()):
            elem = one
            for _, form in combo:
                elem = times(elem, form)
            yield elem

    def raised(w):
        for i in range(n):
            if w[i]:
                u = w[:i] + (w[i] - 1,) + w[i + 1:]
                perm = sorted(range(n), key=lambda k: -u[k])
                p = tuple(u[k] for k in perm)
                for row in prev.get(p, ()):
                    moved = row if p == u else renamed(row, perm)
                    for j in range(m):
                        yield times(moved, {j * n + i: 1})

    weights: dict[int, dict[Weight, int]] = {}
    for d in range(d_max + 1):
        bases, offered = {}, 0
        dominant = _dominant_weights(d, n, rows) if d >= t else []
        for w in dominant:
            ech = _Echelon()
            for row in products(w) if d == t else raised(w):
                if row:
                    offered += 1
                    ech.add(row)
            if ech.rank:
                bases[w] = list(ech.rows.values())
        table = {w: len(basis) for w, basis in bases.items()}
        _log_degree(name, d, n, len(dominant), offered, sum(table.values()))
        weights[d] = _orbit_filled(_support_filled(table, d, n, rows))
        prev = bases
    return weights


# -- characters --------------------------------------------------------------


def product_ideal_character(
    arr: Arrangement, n: int, d_max: int, caps: OracleCaps = DEFAULT_CAPS
) -> GradedCharacter:
    """Graded character of the product ideal J_1(V) ... J_t(V).

    Degree t is spanned by the products of one basis form per factor, and
    each degree above t by the variables times the previous degree's basis.
    Spanning vectors have pure V-weight and each dominant weight space with
    at most m parts is row reduced exactly.  By Cauchy, every S_lam(V) in
    the ideal has at most m rows, so the other dominant weights follow by
    Kostka numbers, and the remaining weights by S_n symmetry.
    """
    _check_sizes(arr, n, d_max, caps)
    m = arr.ambient_dim
    forms = _forms_per_factor(arr, n)
    weights = _span_character(
        "product", forms, m, n, d_max, min(n, m),
        {(0,) * (m * n): 1}, _poly_times_form, _poly_renamed,
    )
    return GradedCharacter(n=n, weights=weights)


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
    Sym(W tensor V) has at most m rows, so the other dominant weights
    follow by Kostka numbers, and the remaining weights by S_n symmetry.
    """
    _check_sizes(arr, n, d_max, caps)
    m = arr.ambient_dim
    restrictions = [
        [_restriction_rows(_integer_rows(sub.basis), m, e) for e in range(d_max + 1)]
        for sub in arr.subspaces
    ]
    weights: dict[int, dict[Weight, int]] = {}
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
        weights[d] = _orbit_filled(_support_filled(table, d, n, m))
    return GradedCharacter(n=n, weights=weights)


def wedge_ideal_character(
    arr: Arrangement, n: int, d_max: int, caps: OracleCaps = DEFAULT_CAPS
) -> GradedCharacter:
    """Graded character of the wedge ideal J_1(V) ^ ... ^ J_t(V) in the
    exterior algebra on W tensor V.

    Same spanning as the product, inside the exterior algebra: exterior
    monomials are sorted variable tuples in the fixed (j,i)-lex variable
    order, and every wedge and every renaming of V-indices tracks the
    sorting sign.  Its S_lam'(V) can have up to d rows, so every dominant
    weight is eliminated.
    """
    _check_sizes(arr, n, d_max, caps)
    m = arr.ambient_dim
    if d_max > m * n:
        raise ValueError(
            f"degree {d_max} exceeds the exterior top degree {m * n}"
        )
    forms = _forms_per_factor(arr, n)
    weights = _span_character(
        "wedge", forms, m, n, d_max, n, {(): 1}, _ext_times_form, _ext_renamed
    )
    return GradedCharacter(n=n, weights=weights)
