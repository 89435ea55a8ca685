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


def check_sizes(arr, n: int, d_max: int, caps: OracleCaps):
    """Refuse an oracle run on the arrangement ``arr`` at dim V = n up to
    degree d_max: a size that is not an int is a ValueError, one past its
    cap a SizeCapError naming it.  Every oracle entry point calls this, and
    the CLI calls it before the formula side runs."""
    if type(n) is not int or n < 1:
        raise ValueError(f"dim V must be positive and an int, got {n!r}")
    if type(d_max) is not int or d_max < 0:
        raise ValueError(f"maximum degree must be nonnegative and an int, got {d_max!r}")
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
