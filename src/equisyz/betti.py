"""Equivariant Betti tables of linear resolutions.

For a module generated in degree t with a linear resolution, the alternating
Schur expansion of sigma^-m times its Hilbert series carries one column of
Tor multiplicities per degree.  This module extracts those columns (and
validates the sign pattern that linearity forces), computes regularity, and
transposes tables to the exterior side by conjugating every index.  A
column is the signed slice of one degree of the series' dense vector over
``schur.graded_index``, so it is checked and stored in the canonical order.
"""

from __future__ import annotations

from .arrangements import check_truncation
from .schur import SchurSeries, check_nonnegative_int, graded_index, times_sigma_power


class LinearityError(ValueError):
    """The series is not consistent with a linear resolution."""

    def __init__(self, degree, partition, coefficient):
        self.degree = degree
        self.partition = partition
        self.coefficient = coefficient
        super().__init__(
            "series is not consistent with a linear resolution: "
            f"coefficient {coefficient} of s{list(partition)} in degree {degree} "
            "has the wrong sign"
        )


class GenerationDegreeError(ValueError):
    """sigma^-m times the series is nonzero below the stated generation degree."""


class BettiTable:
    """Columns of Tor multiplicities for a t-linear resolution.

    ``columns[i]`` is the character of the i-th syzygy space, a nonnegative
    Schur series concentrated in degree i + t.
    """

    __slots__ = ("t", "columns")

    def __init__(self, t: int, columns: tuple[SchurSeries, ...]):
        check_nonnegative_int(t, "generation degree")
        for i, col in enumerate(columns):
            for lam, c in col.items():
                if sum(lam) != i + t:
                    raise ValueError(
                        f"column {i} has a term of degree {sum(lam)}, expected {i + t}"
                    )
                if c < 0:
                    raise ValueError(f"column {i} has a negative multiplicity")
        self.t = t
        self.columns = columns

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.t == other.t and self.columns == other.columns

    def to_dict(self) -> dict:
        """JSON-ready representation with columns in homological order."""
        return {
            "t": self.t,
            "columns": [
                {"i": i, "degree": i + self.t, "terms": col.to_pairs()}
                for i, col in enumerate(self.columns)
            ],
        }


def betti_from_series(series: SchurSeries, ambient_dim: int, t: int) -> BettiTable:
    """Extract the Betti table of a t-linear resolution from a Hilbert series.

    Takes ambient_dim passes of sigma^-1 on the dense vector of
    ``graded_index(D)``, checks that nothing survives below degree t and
    that the degree-d coefficients all carry sign (-1)^(d-t), then stores
    column i as (-1)^i times the slice of degree i + t, so every kept
    multiplicity is nonnegative.  The slice is in the canonical order, so a
    LinearityError names the first wrong sign in that order.  A series
    truncated above MAX_DEGREE is a SizeCapError.
    """
    check_nonnegative_int(t, "generation degree")
    check_nonnegative_int(ambient_dim, "ambient dimension")
    D = series.degree
    check_truncation(D)
    if D < t:
        raise ValueError(f"series truncation {D} below generation degree {t}")
    parts, offsets, _, _, _ = graded_index(D)
    reduced = times_sigma_power(series, -ambient_dim).vec
    for d in range(t):
        if any(reduced[offsets[d] : offsets[d + 1]]):
            raise GenerationDegreeError(
                f"generation degree mismatch: sigma^-{ambient_dim} * series has "
                f"nonzero terms in degree {d} < {t}"
            )
    columns = []
    for i in range(D - t + 1):
        lo = offsets[i + t]
        sign = -1 if i % 2 else 1
        column = [sign * c for c in reduced[lo : offsets[i + t + 1]]]
        for j, c in enumerate(column, lo):
            if c < 0:
                raise LinearityError(i + t, parts[j], sign * c)
        columns.append(SchurSeries._make([0] * lo + column, D))
    return BettiTable(t, tuple(columns))


def regularity(table: BettiTable) -> int:
    """Castelnuovo-Mumford regularity of a table with a nonzero column: t.

    A BettiTable stores column i only in degree i + t, so the largest
    internal degree minus homological index is t for every nonzero column.
    The value restates the linear sign check of ``betti_from_series``; it
    is not an independent verdict on linearity.
    """
    if not any(table.columns):
        raise ValueError("empty Betti table has no regularity")
    return table.t


def transpose_table(table: BettiTable) -> BettiTable:
    """Conjugate every index: the table of the transposed (exterior) module."""
    return BettiTable(table.t, tuple(col.omega() for col in table.columns))


def series_from_betti(table: BettiTable, ambient_dim: int) -> SchurSeries:
    """Euler-characteristic reconstruction: sigma^m times the alternating sum
    of the columns, one product for the whole table."""
    if not table.columns:
        raise ValueError("empty Betti table")
    check_nonnegative_int(ambient_dim, "ambient dimension")
    D = table.columns[0].degree
    total = SchurSeries({}, degree=D)
    for i, col in enumerate(table.columns):
        total = total - col if i % 2 else total + col
    return times_sigma_power(total, ambient_dim)
