"""Exact rational linear algebra for subspaces of Q^m.

Everything runs on :class:`fractions.Fraction`, so rank decisions are
exact.  A subspace is built by row-reducing its spanning vectors once and
is stored as the nonzero rows of that reduced row echelon form; RREF is
canonical, hence equality of subspaces is equality of representations and
subspaces can be used as dictionary keys.
"""

from __future__ import annotations

from fractions import Fraction

Vector = tuple[Fraction, ...]


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


class Subspace:
    """A linear subspace of Q^m in canonical form.

    ``Subspace(m, vectors)`` is the span of the given vectors (none for the
    zero subspace).  They are row-reduced once, and ``basis`` holds the
    nonzero RREF rows, so two Subspace values compare equal exactly when
    they are the same subspace.  Hashed by value, so never mutated.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors=()):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        rows = list(vectors)
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError(
                    f"vector length {len(row)} differs from ambient dimension {ambient_dim}"
                )
        rref, rank = row_reduce(rows)
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
