"""Exception types and size caps shared across modules."""

from collections import namedtuple


class SizeCapError(Exception):
    """A requested computation exceeds a configured size cap."""


OracleCaps = namedtuple(
    "OracleCaps", "ambient_dim dim_v degree subspaces", defaults=(4, 4, 4, 4)
)
OracleCaps.__doc__ = """Size limits for the brute-force computations.

The weight-space matrices grow combinatorially, so every entry point
refuses inputs beyond these bounds instead of silently hanging.  They live
here, not in ``equisyz.oracle``, so that every job can read them without
importing the oracle.
"""

DEFAULT_CAPS = OracleCaps()
