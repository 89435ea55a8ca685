"""Exact equivariant commutative algebra for subspace arrangements.

Computes equivariant Hilbert series, Betti tables and Castelnuovo-Mumford
regularity for product ideals of subspace arrangements over the symmetric
algebra, transposes everything to the exterior algebra by conjugating
Schur indices, and verifies the formulas against an independent
brute-force oracle in explicit coordinates.

The root exports the README quickstart's pipeline and the types and
errors it takes, returns or raises; every other name is imported from its
module.  Importing the package never loads ``equisyz.oracle``.
"""

from .arrangements import Arrangement, hilbert_product
from .betti import (
    BettiTable,
    GenerationDegreeError,
    LinearityError,
    betti_from_series,
    regularity,
    transpose_table,
)
from .errors import SizeCapError
from .linalg import Subspace
from .schur import SchurSeries, sigma

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "BettiTable",
    "GenerationDegreeError",
    "LinearityError",
    "SchurSeries",
    "SizeCapError",
    "Subspace",
    "betti_from_series",
    "hilbert_product",
    "regularity",
    "sigma",
    "transpose_table",
]
