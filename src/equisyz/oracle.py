"""Brute-force graded characters of arrangement ideals in explicit coordinates.

Given an arrangement in W = Q^m and a second space V of dimension n, the
polynomial ring on W tensor V has m*n variables z[j,i], j indexing W.  The
degree-one part of the k-th linear ideal is spanned by a tensor e_i for a
running over the normal rows of the k-th subspace - each such form has
pure V-weight e_i, so every ideal in sight is graded by V-weights and both
the polynomial and the exterior side are row reduced one weight space at
a time.  Both pack a monomial into one int: one block of m fields per
V-index, z[j,i] in field i*m + m-1-j, a field max(d, 1).bit_length() bits
wide in Sym and one bit in the exterior algebra, whose monomials wedge
their variables in field order.  A product by a variable adds its key, a
renaming of V-indices moves whole blocks, and the exterior side adds only
signs.  Comparing keys as ints is a lex monomial order, so the pivot of a
product (its smallest key) is the product of its factors' pivots (Cox,
Little, O'Shea, Ideals, Varieties, and Algorithms, 2.2).  A normal row's
largest column is its free one, and with W reversed in each block that
variable is its pivot: distinct forms lead with distinct variables, so
their products rarely collide in the elimination.

This module measures the weight-space dimensions of product, intersection
and wedge ideals by exact elimination.  Every such ideal is GL(V)-stable,
so the Weyl group S_n permutes its weight spaces, and the dominant weights
(partitions of d padded to length n) determine each graded piece.  Each
entry point eliminates at the least n that shows its whole series, which
``errors.oracle_dim_v`` works out: min(d_max, m) for the product and
intersection ideals, d_max for the wedge.  Kostka numbers are
unitriangular (Macdonald, Symmetric Functions and Hall Polynomials, I.6),
so one peel turns the eliminated dominant dimensions into Schur
coefficients.  Every degree's peel goes into the one ``SchurSeries`` each
entry point returns; ``dominant_weights`` derives one degree's weight
table from it at any n, so the report derives only the degrees it writes.
One rule spans the product and wedge ideals in every degree: I_0 is the
unit and I_d = I_{d-1} J_d, J_d the d-th linear ideal up to t and the
maximal ideal past it, so weight w of degree d is spanned by each normal
row of step d at each V-index i times I_{d-1} at w - e_i; the partial
products below t are GL(V)-stable and are not reported.  The intersection
ideal is not spanned at all: J_k(V) is the vanishing ideal of Y_k tensor
V, so each weight space of the intersection is the common kernel of the
restrictions to the Y_k tensor V, and its dimension is one exact rank of
their stacked vanishing conditions.  With the polymatroid it shares only
each subspace's integer echelon and normal rows and the fraction-free
elimination kernel of ``equisyz.linalg``, which the tests check against
the reference ``Fraction`` RREF (``row_reduce``) and the nullspace read
off it, so it stays an independent check on the series formulas.
``OracleCaps`` (caps on m and d, which bound every other size), its check
``check_sizes`` and ``oracle_dim_v`` are defined in ``equisyz.errors``, so
the CLI checks an oracle's caps without importing this module.
"""

from __future__ import annotations

import sys
from itertools import chain, combinations_with_replacement, product as cartesian
from math import comb, prod

from .arrangements import Arrangement
from .errors import DEFAULT_CAPS, OracleCaps, oracle_dim_v
from .linalg import Subspace, _Echelon
from .partitions import Partition, kostka_number, orbit, partitions_of
from .schur import SchurSeries, _is_integer

Weight = tuple[int, ...]


def dominant_weights(series: SchurSeries, n: int, d: int) -> dict[Weight, int]:
    """The dominant weight table of degree d of ``series``, a character in
    n = dim V variables: each partition mu of d with at most n parts,
    padded with zeros to length n, maps to the dimension sum c_lam K_{lam mu}
    of its weight space, zeros omitted.  S_n permutes the weight spaces, so
    every other weight has the dimension of the dominant weight in its
    orbit (``partitions.orbit`` lists that orbit).
    """
    coeffs = series.graded_part(d).items()
    table = {}
    for mu in partitions_of(d, max_parts=n):
        dim = sum(c * kostka_number(lam, mu) for lam, c in coeffs)
        if dim:
            table[mu + (0,) * (n - len(mu))] = dim
    return table


def character_to_schur(series: SchurSeries, d: int) -> SchurSeries:
    """The degree-d part of ``series`` as a Schur expansion.  Raises
    ValueError when some coefficient is negative - i.e. when it is not a
    polynomial character; the first negative one in canonical order is
    named with its partition."""
    part = series.graded_part(d)
    for lam, c in part.items():
        if c < 0:
            raise ValueError(f"not a polynomial character: coefficient {c} at partition {lam}")
    return part


def kostka_peel(dims, d: int, n: int) -> dict[Partition, int]:
    """Schur coefficients c_lam, for lam with at most n parts, of a degree-d
    character whose dominant weights (length n) have dimensions ``dims``,
    missing meaning zero.  K_{nu lam} != 0 needs nu to dominate
    lam, so Kostka is unitriangular in decreasing lex order: c_lam is
    dims[lam] minus the c_nu K_{nu lam} of the nu peeled before it.  They
    come back in that order, zeros omitted."""
    coeffs: dict[Partition, int] = {}
    for lam in partitions_of(d, max_parts=n):
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

    if n < d:
        raise ValueError(f"need n >= d for a faithful expansion, got n={n}, d={d}")
    return character_to_schur(SchurSeries(kostka_peel(table, d, n), degree=d), d)


# -- coordinates -----------------------------------------------------------


def _times_form(elem: dict, form: dict, exterior: bool) -> dict:
    """elem times a linear form {variable: coeff}, in packed keys: a
    variable's key is 1 in its field, so a product by it adds its key.  On
    the exterior side a set bit gives zero, and the variable wedged on the
    right passes every variable above it, one sign each."""
    out: dict = {}
    for k, c in elem.items():
        for v, a in form.items():
            if exterior:
                if k & v:
                    continue
                if (k & -v).bit_count() & 1:
                    a = -a
            key = k + v
            val = out.get(key, 0) + c * a
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def _renamed(elem: dict, perm, width: int, exterior: bool) -> dict:
    """elem with every z[j,k] renamed z[j,perm[k]]: the block of ``width``
    bits of V-index k moves to block perm[k].  On the exterior side each
    block passes the variables of the blocks already moved above it."""
    mask = (1 << width) - 1
    out = {}
    for k, c in elem.items():
        key = 0
        for i, to in enumerate(perm):
            block = k >> i * width & mask
            if exterior and (key >> to * width).bit_count() * block.bit_count() & 1:
                c = -c
            key |= block << to * width
        out[key] = c
    return out


def _restriction_rows(basis, m: int, e: int) -> list[dict]:
    """Sym^e of the restriction W* -> Y*, for Y spanned by the integer
    vectors ``basis`` (``Subspace.echelon``): z_j becomes sum_l basis[l][j]
    s_l, s_l the field l of a packed monomial.  One row per monomial of
    degree e in the s_l, keyed by the index of each degree-e monomial of W
    it reads, in ``combinations_with_replacement`` order."""
    bits = max(e, 1).bit_length()
    columns = [{1 << l * bits: b[j] for l, b in enumerate(basis) if b[j]} for j in range(m)]
    rows: dict = {}
    for idx, mono in enumerate(combinations_with_replacement(range(m), e)):
        image = {0: 1}
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


def _dominant_weights(d: int, n: int) -> list[Weight]:
    """Partitions of d with at most n parts, padded with zeros to length n."""
    return [lam + (0,) * (n - len(lam)) for lam in partitions_of(d, max_parts=n)]


def _log_degree(name, d, eliminated, offered, kept):
    # Until something imports logging, no handler can be listening; the CLI
    # imports it only under --verbose, so a quiet job never loads it.
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).info(
            "%s oracle degree %d: %d dominant weights eliminated, %d rows offered, "
            "%d kept", name, d, eliminated, offered, kept
        )


def _span_character(name, arr, d_max, caps, exterior):
    """The character of J_1(V)...J_t(V), or of the wedge ideal in the
    exterior algebra if ``exterior``, one linear ideal at a time: I_0 is
    the unit and I_d = I_{d-1} J_d, with J_d the maximal ideal past t, and
    I_d is reported from d = t on.  I_{d,w} is spanned by each normal row
    of step d placed at each V-index i times I_{d-1,w-e_i}, the stored
    basis of the dominant permutation of w - e_i renamed into place.  Each
    I_d is GL(V)-stable, so only its dominant weights are eliminated, and
    none when d_max < t leaves nothing to report: every peel goes into the
    one series returned."""
    n = oracle_dim_v(arr, d_max, caps, exterior)
    t, m = len(arr.subspaces), arr.ambient_dim
    bits = 1 if exterior else max(d_max, 1).bit_length()
    steps = [sub.normal_rows() for sub in arr.subspaces]
    maximal = Subspace(m).normal_rows()
    prev: dict[Weight, list] = {(0,) * n: [{0: 1}]}  # the unit, the empty product

    def spanned(w, step):
        if not any(w):  # degree 0, reported only when t = 0
            yield from prev[w]
        for i in range(n):
            if w[i]:
                u = w[:i] + (w[i] - 1,) + w[i + 1:]
                perm = sorted(range(n), key=lambda k: -u[k])
                p = tuple(u[k] for k in perm)
                forms = [
                    {1 << (i * m + m - 1 - j) * bits: c for j, c in row.items()} for row in step
                ]
                for elem in prev.get(p, ()):
                    moved = elem if p == u else _renamed(elem, perm, m * bits, exterior)
                    for form in forms:
                        yield _times_form(moved, form, exterior)

    coeffs: dict[Partition, int] = {}
    for d in range(d_max + 1):
        span = d >= t or (0 < d and d_max >= t)
        dominant = _dominant_weights(d, n) if span else []
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
        _log_degree(name, d, len(dominant), offered, sum(table.values()))
        if d >= t:
            coeffs.update(kostka_peel(table, d, n))
        if span:
            prev = bases
    return SchurSeries(coeffs, degree=d_max)


# -- characters --------------------------------------------------------------


def product_ideal_character(
    arr: Arrangement, d_max: int, caps: OracleCaps = DEFAULT_CAPS
) -> SchurSeries:
    """The ``SchurSeries`` of the product ideal J_1(V) ... J_t(V) to degree
    d_max, eliminated at dim V = min(d_max, m).

    Degree d is spanned by the normal rows of the d-th factor, or by the
    variables past t, times the basis of degree d - 1, from the unit up.
    Spanning vectors have pure V-weight and each dominant weight space is
    row reduced exactly.
    """
    return _span_character("product", arr, d_max, caps, False)


def intersection_ideal_character(
    arr: Arrangement, d_max: int, caps: OracleCaps = DEFAULT_CAPS
) -> SchurSeries:
    """The ``SchurSeries`` of the intersection ideal J_1(V) cap ... cap
    J_t(V) to degree d_max, eliminated at dim V = min(d_max, m).

    J_k(V) is the vanishing ideal of Y_k tensor V, so its weight-w piece is
    the kernel of the restriction Sym(W tensor V)_w -> Sym(Y_k tensor V)_w,
    and the intersection's is the common kernel: the number of monomials of
    weight w minus the rank of every factor's vanishing conditions stacked
    in one elimination.  The restriction preserves each V-column, so on
    weight w it is the Kronecker product over i of Sym^{w_i} of the
    restriction W* -> Y_k*, written in an integer basis of Y_k; the source
    monomials are labelled by their mixed-radix index.  Elimination stops
    once the rank reaches the number of monomials.
    """
    n = oracle_dim_v(arr, d_max, caps)
    m = arr.ambient_dim
    restrictions = [
        [_restriction_rows(sub.echelon, m, e) for e in range(d_max + 1)]
        for sub in arr.subspaces
    ]
    coeffs: dict[Partition, int] = {}
    for d in range(d_max + 1):
        table: dict[Weight, int] = {}
        dominant = _dominant_weights(d, n)
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
        _log_degree("intersection", d, len(dominant), offered, kept)
        coeffs.update(kostka_peel(table, d, n))
    return SchurSeries(coeffs, degree=d_max)


def wedge_ideal_character(
    arr: Arrangement, d_max: int, caps: OracleCaps = DEFAULT_CAPS
) -> SchurSeries:
    """The ``SchurSeries`` of the wedge ideal J_1(V) ^ ... ^ J_t(V) in the
    exterior algebra on W tensor V to degree d_max, eliminated at
    dim V = d_max.

    Same spanning as the product, inside the exterior algebra: every wedge
    and every renaming of V-indices tracks the sign of sorting the
    variables again.
    """
    return _span_character("wedge", arr, d_max, caps, True)
