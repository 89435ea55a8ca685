"""Exact rational linear algebra for subspaces of Q^m.

One exact elimination runs here, and it is fraction-free: sparse rows of
nonzero ``int`` entries in an incremental echelon (``_Echelon``,
``_reduce_into``), which takes every rank the pipeline needs: the
polymatroid's, the oracle's, and the span of every spanning set.
Rationals become integers in ``Subspace``, once: it reads each entry
(``read_rational``: a non-bool ``int``, a ``numbers.Rational`` such as a
``Fraction``, or a "p/q" string) as a numerator and a denominator and
scales each vector by the lcm of its denominators (``scaled_numerators``),
so the kernel takes integers only and no job builds a ``Fraction``.  A
subspace is stored as its canonical integer echelon (``Subspace.echelon``):
the kernel's echelon of at most m spanning rows, back-substituted so that
every pivot column is zero outside its own row, each row primitive with a
positive pivot.  Each row is then the one such multiple of a row of the
RREF, so the form is unique: equality of subspaces is equality of
representations, and subspaces can be used as dictionary keys.
``Subspace.normal_rows`` reads a basis of the annihilator off its free
columns, as primitive integer rows, with no further elimination; the
polymatroid and the oracle both take their linear forms from it.
``intersect`` and ``Subspace.annihilator`` build new subspaces from normal
rows and stay as the tests' slow reference.  ``Subspace.basis`` (the
``Fraction`` RREF) and ``row_reduce`` (a ``Fraction`` Gauss-Jordan
elimination) are for the tests and the benchmark's checks: no function
here calls them, and each imports ``fractions`` only when it runs.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from numbers import Rational

from .errors import SizeCapError

# "p" or "p/q" in ASCII digits with an optional sign: no decimals, exponents,
# spaces or underscores, which Fraction() or int() would also read
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def read_rational(value) -> tuple[int, int]:
    """A vector entry as (numerator, denominator), the denominator positive.

    An entry is a non-bool ``int``, a ``numbers.Rational`` such as a
    ``Fraction``, or a string "p" or "p/q" (``_RATIONAL``).  Anything else is
    a ValueError: a float, whose binary value is not the decimal it prints
    as, a bool, "0.5" or "1e3", a zero denominator, or more digits than
    ``int()`` converts.
    """
    if type(value) is int:
        return value, 1
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match:
            num, den = match.groups()
            try:  # int() refuses more digits than the interpreter converts
                num, den = int(num), int(den or 1)
            except ValueError:
                den = 0
            if den:
                return num, den
    elif isinstance(value, Rational) and not isinstance(value, bool):
        return int(value.numerator), int(value.denominator)
    raise ValueError(f"entry {value!r} is not a rational number")


def scaled_numerators(entries) -> list[int]:
    """(numerator, denominator) pairs as the integer vector they make times
    the lcm of the denominators; it spans the same line."""
    entries = list(entries)
    den = lcm(*(d for _, d in entries))
    return [n * (den // d) for n, d in entries]


# -- the fraction-free kernel ------------------------------------------------


class _Echelon:
    """Incremental row echelon form over sparse integer rows, fraction-free.

    Rows are dicts keyed by basis labels (any totally ordered hashables)
    whose entries are all nonzero ``int``s; ``_integer_row`` makes one of an
    integer vector.  The pivot of a row is its smallest label.
    Elimination cross-multiplies instead of dividing, so every coefficient
    stays an exact ``int``: fraction-free elimination as in Bareiss (Math.
    Comp. 22, 1968), except that each row is divided by the gcd of its
    entries rather than by the previous pivot.  A stored row is primitive,
    with a positive pivot, and is reduced only forward, against the rows of
    smaller pivot: ``add`` never touches the rows already stored.  The
    oracles and the polymatroid read only the rank; ``_echelon`` reduces the
    kept rows of a spanning set backward too, into the subspace's canonical
    echelon.
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
    """A nonzero integer vector as a sparse row {index: entry} of coprime
    integers, its first entry positive; it spans the same line."""
    row = {j: c for j, c in enumerate(vector) if c}
    return _primitive(row, min(row))


def _primitive(row: dict, lead) -> dict:
    """Divide an integer row by the gcd of its entries, signed so that the
    entry at ``lead`` comes out positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return {k: v // g for k, v in row.items()} if g != 1 else row


# -- the reference RREF and canonical subspaces --------------------------------


def row_reduce(rows) -> tuple[tuple[tuple, ...], int]:
    """Reduced row echelon form and rank, computed exactly by ``Fraction``
    Gauss-Jordan elimination: the reference for ``Subspace``'s echelon.

    Returns a matrix of the same shape with unit pivots, zeros above and
    below every pivot, and zero rows collected at the bottom.
    """
    from fractions import Fraction  # only the tests and the benchmark's checks call this

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


def _echelon(vectors, m: int) -> tuple[tuple[int, ...], ...]:
    """The canonical integer echelon of the span of the integer ``vectors``:
    the kernel keeps at most m rows, back-substitution clears each pivot
    column from the rows above it, last pivot first, and each row is made
    primitive with a positive pivot.  Rows come in pivot order, dense."""
    rows: dict = {}
    for vec in vectors:
        if any(vec) and _reduce_into(rows, _integer_row(vec)) and len(rows) == m:
            break
    for p in sorted(rows, reverse=True):
        for q in rows:
            if q < p and p in rows[q]:
                rows[q] = _eliminate(rows[q], rows[p], p)
    return tuple(
        tuple(row.get(j, 0) for j in range(m))
        for row in (_primitive(rows[p], p) for p in sorted(rows))
    )


# Cap on the digits of one subspace's entries, numerators and denominators
# summed, an integer's denominator 1 included.  The report writes each RREF
# entry in lowest terms, a ratio of two minors of the scaled spanning rows,
# and by Hadamard's bound such a minor has fewer digits than the subspace's
# entries plus (r/2) log10 m + 1 for r <= m rows: at most 4275 at m = 32,
# so no written int passes the 4300 digits that Python converts to str by
# default.  Python 3.11.7 on 2 shared x86-64 cores, single cold jobs at the
# cap: a line of Q^32 whose RREF entry has 4188 digits takes 0.10 s.
MAX_SUBSPACE_DIGITS = 4250
# An int longer than this many bits is at least 2**_CAP_BITS > 10**4250, so
# it is past the cap by itself; every shorter one has at most 4251 digits,
# which str() counts.
_CAP_BITS = (10**MAX_SUBSPACE_DIGITS).bit_length()


def _pivot(row) -> int:
    """The column of the first nonzero entry of a dense row."""
    return next(j for j, c in enumerate(row) if c)


class Subspace:
    """A linear subspace of Q^m in canonical form.

    ``Subspace(m, vectors)`` is the span of the given vectors (none for the
    zero subspace), each a list or tuple.  It is the one reader of entries:
    each is read once by ``read_rational`` (a ValueError names a refused
    entry or vector), entries of more than ``MAX_SUBSPACE_DIGITS`` digits
    in all are a SizeCapError before any elimination, and each vector is
    scaled to integers; the integer
    kernel then keeps at most m independent rows of them, and ``echelon``
    holds the canonical integer echelon read off those (``_echelon``): one
    dense tuple of coprime ints per basis vector, in pivot order, each
    pivot positive and its column zero in every other row.  It is unique,
    so two Subspace values compare equal exactly when they are the same
    subspace.  Hashed by value, so never mutated.
    """

    __slots__ = ("ambient_dim", "echelon", "_basis")

    def __init__(self, ambient_dim: int, vectors=()):
        if type(ambient_dim) is not int or ambient_dim < 1:  # a bool is no size
            raise ValueError(f"ambient dimension must be a positive int, got {ambient_dim!r}")
        rows, digits = [], 0
        for vec in vectors:
            if not isinstance(vec, (list, tuple)):  # a str or dict is iterable too
                raise ValueError(f"vector {vec!r} is not a list or tuple of entries")
            entries = [read_rational(x) for x in vec]
            if any(max(abs(n), d).bit_length() > _CAP_BITS for n, d in entries):
                raise SizeCapError(
                    f"an entry of more than {MAX_SUBSPACE_DIGITS} digits exceeds "
                    f"the cap of {MAX_SUBSPACE_DIGITS} digits per subspace"
                )
            digits += sum(len(str(abs(n))) + len(str(d)) for n, d in entries)
            rows.append(scaled_numerators(entries))
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError(
                    f"vector length {len(row)} differs from ambient dimension {ambient_dim}"
                )
        if digits > MAX_SUBSPACE_DIGITS:
            raise SizeCapError(
                f"entries of {digits} digits exceed the cap of "
                f"{MAX_SUBSPACE_DIGITS} digits per subspace"
            )
        self.ambient_dim = ambient_dim
        self.echelon = _echelon(rows, ambient_dim)
        self._basis = None

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.echelon == other.echelon

    def __hash__(self):
        return hash((self.ambient_dim, self.echelon))

    @property
    def dim(self) -> int:
        return len(self.echelon)

    @property
    def basis(self) -> tuple[tuple, ...]:
        """The nonzero rows of the RREF as tuples of ``Fraction``: each row of
        ``echelon`` divided by its pivot.  Built on first access; no job
        reads it."""
        if self._basis is None:
            from fractions import Fraction

            basis = []
            for row in self.echelon:
                piv = row[_pivot(row)]
                basis.append(tuple(Fraction(c, piv) for c in row))
            self._basis = tuple(basis)
        return self._basis

    def contains(self, vector) -> bool:
        return Subspace(self.ambient_dim, self.echelon + (vector,)).dim == self.dim

    def normal_rows(self) -> list[dict]:
        """A basis of the annihilator as primitive integer rows {index: entry},
        one per free column of ``echelon``: its unit vector less that column
        of the RREF at the pivots, times the lcm of the pivots it divides by.
        Read as linear forms they vanish exactly on the subspace.  No
        elimination is run."""
        m = self.ambient_dim
        at = {_pivot(row): row for row in self.echelon}
        normals = []
        for free in range(m):
            if free in at:
                continue
            den = lcm(*(row[p] for p, row in at.items() if row[free]))
            vec = [0] * m
            vec[free] = den
            for p, row in at.items():
                vec[p] = -row[free] * (den // row[p])
            normals.append(_integer_row(vec))
        return normals

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
    normals = [row for s in subs for row in s.annihilator().echelon]
    return Subspace(m, normals).annihilator()
