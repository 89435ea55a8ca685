"""Exact rational linear algebra for subspaces of Q^m.

One exact elimination runs here, and it is fraction-free: sparse rows of
nonzero ``int`` entries in an incremental echelon (``_Echelon``,
``_reduce_into``), which takes every rank the pipeline needs: the
polymatroid's, the oracle's, and the span of every spanning set.  A
rational vector becomes such a row in one place, ``_integer_row``.  A
subspace is stored as the nonzero rows of its RREF, which is unique, so
equality of subspaces is equality of representations and subspaces can
be used as dictionary keys.  ``Subspace`` reads that RREF off the
kernel's echelon of at most m spanning rows: back-substitute, then divide
each row by its pivot.  ``Subspace.normal_rows`` reads a basis of the
annihilator off the RREF's free columns, as primitive integer rows, with
no further elimination; the polymatroid and the oracle both take their
linear forms from it.  ``intersect`` and ``Subspace.annihilator`` build
new subspaces from normal rows and stay as the tests' slow reference.
``row_reduce``, a ``Fraction`` Gauss-Jordan elimination, is only the
reference the tests and the benchmark's checks compare against: no
function here calls it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]


# -- the fraction-free kernel ------------------------------------------------


class _Echelon:
    """Incremental row echelon form over sparse integer rows, fraction-free.

    Rows are dicts keyed by basis labels (any totally ordered hashables)
    whose entries are all nonzero ``int``s; ``_integer_row`` makes one of a
    rational vector.  The pivot of a row is its smallest label.
    Elimination cross-multiplies instead of dividing, so every coefficient
    stays an exact ``int``: fraction-free elimination as in Bareiss (Math.
    Comp. 22, 1968), except that each row is divided by the gcd of its
    entries rather than by the previous pivot.  A stored row is primitive,
    with a positive pivot, and is reduced only forward, against the rows of
    smaller pivot: ``add`` never touches the rows already stored.  The
    oracles and the polymatroid read only the rank; ``_rref`` reduces the
    kept rows of a spanning set backward too, into the subspace's RREF.
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
    """Reduce ``row``, a sparse row of nonzero ``int``s, against the echelon
    ``rows`` (pivot label -> primitive row) and store it there if it is
    independent.  ``row`` is not changed."""
    work = dict(row)
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
    primitive when b != 1; ``piv`` has a positive entry at ``lead``.
    ``work`` is consumed: the result may be the same dict, updated in
    place."""
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


def _integer_row(vector) -> dict:
    """A nonzero rational vector as a sparse row {index: entry} of coprime
    integers, its first entry positive; it spans the same line."""
    row = {j: c for j, c in enumerate(vector) if c}
    den = lcm(*(c.denominator for c in row.values()))
    ints = {j: c.numerator * (den // c.denominator) for j, c in row.items()}
    return _primitive(ints, min(row))


def _primitive(row: dict, lead) -> dict:
    """Divide an integer row by the gcd of its entries, signed so that the
    entry at ``lead`` comes out positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return {k: v // g for k, v in row.items()} if g != 1 else row


# -- the reference RREF and canonical subspaces --------------------------------


def row_reduce(rows) -> tuple[tuple[Vector, ...], int]:
    """Reduced row echelon form and rank, computed exactly by ``Fraction``
    Gauss-Jordan elimination: the reference for ``Subspace``'s RREF.

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


def _rref(vectors, m: int) -> tuple[Vector, ...]:
    """The nonzero RREF rows of the span of ``vectors``: the kernel keeps at
    most m rows, back-substitution clears each pivot column from the rows
    above it, last pivot first, and each row is divided by its pivot."""
    rows: dict = {}
    for vec in vectors:
        if any(vec) and _reduce_into(rows, _integer_row(vec)) and len(rows) == m:
            break
    for p in sorted(rows, reverse=True):
        for q in rows:
            if q < p and p in rows[q]:
                rows[q] = _eliminate(rows[q], rows[p], p)
    return tuple(
        tuple(Fraction(row.get(j, 0), row[p]) for j in range(m)) for p, row in sorted(rows.items())
    )


class Subspace:
    """A linear subspace of Q^m in canonical form.

    ``Subspace(m, vectors)`` is the span of the given vectors (none for the
    zero subspace).  Every entry is read as a ``Fraction``; the integer
    kernel then keeps at most m independent rows of the vectors, and
    ``basis`` holds the nonzero RREF rows read off them (``_rref``), so two
    Subspace values compare equal exactly when they are the same
    subspace.  Hashed by value, so never mutated.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors=()):
        if type(ambient_dim) is not int or ambient_dim < 1:  # a bool is no size
            raise ValueError(f"ambient dimension must be a positive int, got {ambient_dim!r}")
        rows = [[Fraction(x) for x in row] for row in vectors]
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError(
                    f"vector length {len(row)} differs from ambient dimension {ambient_dim}"
                )
        self.ambient_dim = ambient_dim
        self.basis = _rref(rows, ambient_dim)

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

    def normal_rows(self) -> list[dict]:
        """A basis of the annihilator as primitive integer rows {index: entry},
        one per free column of ``basis``: its unit vector less that column of
        the RREF at the pivots.  Read as linear forms they vanish exactly on
        the subspace.  No elimination is run."""
        m = self.ambient_dim
        at = {row.index(1): row for row in self.basis}  # a row's first nonzero is its pivot, 1
        return [
            _integer_row([-at[j][free] if j in at else int(j == free) for j in range(m)])
            for free in range(m)
            if free not in at
        ]

    def annihilator(self) -> "Subspace":
        """Vectors orthogonal to the subspace; read as linear forms they
        vanish exactly on it.  Has dimension m - dim."""
        m = self.ambient_dim
        return Subspace(m, [[row.get(j, 0) for j in range(m)] for row in self.normal_rows()])


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
