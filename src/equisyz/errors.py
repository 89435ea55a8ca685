"""Exception types and size caps shared across modules."""

from collections import namedtuple


class SizeCapError(Exception):
    """A requested computation exceeds a configured size cap."""


OracleCaps = namedtuple("OracleCaps", "ambient_dim degree", defaults=(4, 4))
OracleCaps.__doc__ = """Size limits for the brute-force computations: the
ambient dimension m and the degree d.

The weight-space matrices grow combinatorially, so every entry point
refuses inputs beyond these bounds instead of silently hanging.  No oracle
runs at a dim V above its degree, a product or wedge oracle spans nothing
below degree t, and the intersection oracle's cost is linear in t, so no
other size needs a cap.  They live here, not in ``equisyz.oracle``, so
that every job can read them without importing the oracle.
"""

DEFAULT_CAPS = OracleCaps()


def check_sizes(arr, d_max: int, caps: OracleCaps):
    """Refuse an oracle run on the arrangement ``arr`` up to degree d_max:
    a degree that is not a nonnegative int is a ValueError, a size past
    its cap a SizeCapError naming it.  The CLI calls this before the
    formula side runs."""
    if type(d_max) is not int or d_max < 0:
        raise ValueError(f"maximum degree must be nonnegative and an int, got {d_max!r}")
    for label, value, cap in (
        ("ambient dimension m", arr.ambient_dim, caps.ambient_dim),
        ("maximum degree", d_max, caps.degree),
    ):
        if value > cap:
            raise SizeCapError(
                f"{label} = {value} exceeds the oracle cap {cap} "
                "(pass explicit OracleCaps, or set EQUISYZ_CAPS for the CLI)"
            )


def oracle_dim_v(arr, d_max: int, caps: OracleCaps, exterior: bool = False) -> int:
    """The dim V at which an oracle on ``arr`` eliminates up to degree
    d_max, once ``check_sizes`` passes: the least n that shows its whole
    series.  By Cauchy, Sym(W tensor V) is the sum of the S_lam W tensor
    S_lam V, so an S_lam(V) in a product or intersection ideal has at most
    m rows and n = min(d_max, m); one in the wedge ideal, with
    ``exterior``, can have d_max rows.  A d_max of 0 gives n = 1.  Every
    oracle entry point calls this."""
    check_sizes(arr, d_max, caps)
    return max(1, d_max if exterior else min(d_max, arr.ambient_dim))
