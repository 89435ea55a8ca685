"""Exact rational linear algebra for subspaces of Q^m.

Two exact eliminations live here.  The kernel is fraction-free: sparse
integer rows in an incremental echelon (``_Echelon``, ``_reduce_into``),
which takes every rank the pipeline needs: the polymatroid's, the
oracle's, and the span of every spanning set.  The ``Fraction`` RREF
(``row_reduce``) gives subspaces their canonical form: a subspace is
stored as the nonzero rows of the RREF of at most m spanning vectors, so
equality of subspaces is equality of representations and subspaces can
be used as dictionary keys.  ``intersect`` and ``Subspace.annihilator``
stay on the RREF as the slow reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]


# -- the fraction-free kernel ------------------------------------------------


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
    rows already stored.  The oracles and the polymatroid read only the
    rank; ``Subspace`` reads the kept rows of a spanning set.  No
    nullspace is taken here.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot label -> primitive row, pivot > 0

    def add(self, row: dict) -> bool:
        """Reduce a row against the current basis; keep it if independent."""
        return _reduce_into(self.rows, row)

    @property
    def rank(self) -> int:
        return len(self.rows)


def _reduce_into(rows: dict, row: dict) -> bool:
    """Reduce ``row`` against the echelon ``rows`` (pivot label -> primitive
    row) and store it there if it is independent.  ``row`` is not changed."""
    work = {k: v for k, v in row.items() if v}
    if any(type(v) is not int for v in work.values()):
        work = _integral(work)
    while work:
        lead = min(work)
        piv = rows.get(lead)
        if piv is None:
            rows[lead] = _primitive(work, lead)
            return True
        work = _eliminate(work, piv, lead)
    return False


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


def _integer_rows(vectors) -> list[dict]:
    """Each nonzero rational vector as a sparse row {index: entry} of
    coprime integers, its first entry positive; it spans the same line."""
    out = []
    for a in vectors:
        coeffs = _integral({j: c for j, c in enumerate(a) if c})
        out.append(_primitive(coeffs, min(coeffs)))
    return out


def _primitive(row: dict, lead) -> dict:
    """Divide an integer row by the gcd of its entries, signed so that the
    entry at ``lead`` comes out positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return {k: v // g for k, v in row.items()} if g != 1 else row


# -- the Fraction RREF and canonical subspaces ---------------------------------


def row_reduce(rows) -> tuple[tuple[Vector, ...], int]:
    """Reduced row echelon form and rank, computed exactly.

    Returns a matrix of the same shape with unit pivots, zeros above and
    below every pivot, and zero rows collected at the bottom.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return (), 0
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("ragged matrix")
    pivot_row = 0
    for col in range(ncols):
        sel = next((r for r in range(pivot_row, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = mat[pivot_row][col]
        mat[pivot_row] = [x / inv for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(row) for row in mat), pivot_row


def _pivot_columns(rref_rows) -> list[int]:
    pivots = []
    for row in rref_rows:
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            pivots.append(lead)
    return pivots


def _nullspace(rref_rows, ncols: int) -> list[Vector]:
    """Basis of the right nullspace of a matrix already in RREF."""
    pivots = _pivot_columns(rref_rows)
    pivot_set = set(pivots)
    out = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rref_rows[r][free]
        out.append(tuple(vec))
    return out


def _spanning_rows(vectors, m: int) -> list[list[int]]:
    """At most m integer rows with the same span as the rational
    ``vectors``: the rows the kernel keeps, and it stops once it holds m
    of them."""
    rows: dict = {}
    for vec in vectors:
        _reduce_into(rows, dict(enumerate(vec)))
        if len(rows) == m:
            break
    return [[row.get(j, 0) for j in range(m)] for row in rows.values()]


class Subspace:
    """A linear subspace of Q^m in canonical form.

    ``Subspace(m, vectors)`` is the span of the given vectors (none for the
    zero subspace).  Every entry is read as a ``Fraction``; the kernel
    then thins the vectors to at most m rows with the same span, these
    are row-reduced once, and ``basis`` holds the nonzero RREF rows, so
    two Subspace values compare equal exactly when they are the same
    subspace.  Hashed by value, so never mutated.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors=()):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        rows = [[Fraction(x) for x in row] for row in vectors]
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError(
                    f"vector length {len(row)} differs from ambient dimension {ambient_dim}"
                )
        rref, rank = row_reduce(_spanning_rows(rows, ambient_dim))
        self.ambient_dim = ambient_dim
        self.basis = rref[:rank]

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector) -> bool:
        m = self.ambient_dim
        return Subspace(m, self.basis + (vector,)).dim == self.dim

    def annihilator(self) -> "Subspace":
        """Vectors orthogonal to the subspace; read as linear forms they
        vanish exactly on it.  Has dimension m - dim."""
        return Subspace(self.ambient_dim, _nullspace(self.basis, self.ambient_dim))


def intersect(subspaces) -> Subspace:
    """Intersection of one or more subspaces of the same ambient space.

    Computed by stacking the annihilators and taking the annihilator of
    their span, which is exact and lands back in canonical form.
    """
    subs = list(subspaces)
    if not subs:
        raise ValueError("intersect needs at least one subspace")
    m = subs[0].ambient_dim
    if any(s.ambient_dim != m for s in subs):
        raise ValueError("ambient dimension mismatch between subspaces")
    if len(subs) == 1:
        return subs[0]
    normals = [row for s in subs for row in s.annihilator().basis]
    return Subspace(m, normals).annihilator()
