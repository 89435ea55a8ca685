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
    cap a SizeCapError naming it.  The CLI calls this before the formula
    side runs, at the dim V of its report."""
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


def oracle_dim_v(arr, d_max: int, caps: OracleCaps, exterior: bool = False) -> int:
    """The dim V at which an oracle on ``arr`` eliminates up to degree
    d_max, refused by ``check_sizes`` there: the least n that shows its
    whole series.  By Cauchy, Sym(W tensor V) is the sum of the S_lam W
    tensor S_lam V, so an S_lam(V) in a product or intersection ideal has
    at most m rows and n = min(d_max, m); one in the wedge ideal, with
    ``exterior``, can have d_max rows.  A d_max of 0, or one that
    ``check_sizes`` refuses, gives n = 1.  Every oracle entry point calls
    this, and the CLI calls it for an intersection job's series."""
    n = 1
    if type(d_max) is int and d_max > 0:
        n = d_max if exterior else min(d_max, arr.ambient_dim)
    check_sizes(arr, n, d_max, caps)
    return n
