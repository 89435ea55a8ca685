"""Exact equivariant commutative algebra for subspace arrangements.

Computes equivariant Hilbert series, Betti tables and Castelnuovo-Mumford
regularity for product ideals of subspace arrangements over the symmetric
algebra, transposes everything to the exterior algebra by conjugating
Schur indices, and verifies the formulas against an independent
brute-force oracle in explicit coordinates.
"""

from .arrangements import (
    Arrangement,
    Polymatroid,
    hilbert_product,
    p_polynomial,
    polymatroid_of,
)
from .betti import (
    BettiTable,
    GenerationDegreeError,
    LinearityError,
    betti_from_series,
    regularity,
    series_from_betti,
    transpose_table,
)
from .errors import DEFAULT_CAPS, OracleCaps, SizeCapError
from .linalg import Subspace, intersect
from .partitions import (
    Partition,
    conjugate,
    kostka_number,
    lr_coefficient,
    partitions_of,
    weyl_dimension,
)
from .schur import SchurSeries, sigma, times_sigma_power

__version__ = "0.1.0"

# Read from equisyz.oracle on first use (PEP 562), so that importing the
# package, or a product job's CLI, never loads the oracle.
_ORACLE_NAMES = frozenset({
    "character_to_schur",
    "dominant_weights",
    "from_weight_multiplicities",
    "intersection_ideal_character",
    "product_ideal_character",
    "wedge_ideal_character",
})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Arrangement",
    "BettiTable",
    "DEFAULT_CAPS",
    "GenerationDegreeError",
    "LinearityError",
    "OracleCaps",
    "Partition",
    "Polymatroid",
    "SchurSeries",
    "SizeCapError",
    "Subspace",
    "betti_from_series",
    "character_to_schur",
    "conjugate",
    "dominant_weights",
    "from_weight_multiplicities",
    "hilbert_product",
    "intersect",
    "intersection_ideal_character",
    "kostka_number",
    "lr_coefficient",
    "p_polynomial",
    "partitions_of",
    "polymatroid_of",
    "product_ideal_character",
    "regularity",
    "series_from_betti",
    "sigma",
    "times_sigma_power",
    "transpose_table",
    "weyl_dimension",
    "wedge_ideal_character",
]
