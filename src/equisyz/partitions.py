"""Integer partitions and tableau combinatorics.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  This module provides the
combinatorial kernels everything else is built on: conjugation, ordered
enumeration, Littlewood-Richardson coefficients, Kostka numbers, the S_n
orbit of a weight, and dimensions of the corresponding irreducible GL_n
representations.

The horizontal strips of the Pieri rule (Macdonald, Symmetric Functions
and Hall Polynomials, I.5) come from one place, ``strips``: the graded
index of ``schur`` lists them, and Kostka numbers branch over them.

All functions are pure.  The coefficient counters are memoized; concurrent
calls with the same arguments return identical values.
"""

from __future__ import annotations

from functools import cache
from itertools import product

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Coerce to a tuple and check that it is weakly decreasing with
    positive integer entries; a bool is not one."""
    lam = tuple(parts)
    if not all(
        type(p) is int and p >= 1 and (i == 0 or lam[i - 1] >= p) for i, p in enumerate(lam)
    ):
        raise ValueError(f"not a partition: {parts!r}")
    return lam


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths become row lengths."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


def contains(lam: Partition, mu: Partition) -> bool:
    """Containment of Young diagrams: mu fits inside lam."""
    return len(mu) <= len(lam) and all(mu[i] <= lam[i] for i in range(len(mu)))


@cache
def _partitions(d: int, max_part: int, max_parts: int) -> tuple[Partition, ...]:
    if d == 0:
        return ((),)
    if max_part == 0 or max_parts == 0:
        return ()
    out = []
    for first in range(min(d, max_part), 0, -1):
        for rest in _partitions(d - first, first, max_parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(d: int, max_parts: int | None = None) -> list[Partition]:
    """All partitions of ``d``, optionally with at most ``max_parts`` parts.

    Listed in the canonical within-degree order (reverse-lexicographic).
    Both arguments are checked before the cache: it would take 2.0 or True
    for the key 2 or 1.
    """
    if type(d) is not int or d < 0:
        raise ValueError(f"d must be a nonnegative int, got {d!r}")
    if max_parts is not None and type(max_parts) is not int:
        raise ValueError(f"max_parts must be an int or None, got {max_parts!r}")
    limit = d if max_parts is None else max(0, min(max_parts, d))
    return list(_partitions(d, d, limit))


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu,nu}.

    Counts semistandard skew tableaux of shape lam/mu and content nu whose
    reverse reading word (rows right to left, top to bottom) is a lattice
    word.  Returns 0 when mu does not fit in lam or the sizes do not add up.
    All three partitions are checked on every call, before the cache: it
    would take (2.0,) or (True,) for the key (2,) or (1,).
    """
    return _lr(check_partition(lam), check_partition(mu), check_partition(nu))


@cache
def _lr(lam: Partition, mu: Partition, nu: Partition) -> int:
    if sum(lam) != sum(mu) + sum(nu) or not contains(lam, mu):
        return 0
    if not nu:
        return 1
    # cells in reverse-reading-word order: rows top to bottom, right to left
    cells = []
    for r in range(len(lam)):
        lo = mu[r] if r < len(mu) else 0
        cells.extend((r, c) for c in range(lam[r] - 1, lo - 1, -1))
    counts = [0] * len(nu)
    grid: dict[tuple[int, int], int] = {}

    def fill(k: int) -> int:
        if k == len(cells):
            return 1
        r, c = cells[k]
        above = grid.get((r - 1, c))
        right = grid.get((r, c + 1))
        total = 0
        for v in range(1, len(nu) + 1):
            if counts[v - 1] >= nu[v - 1]:
                continue
            if v > 1 and counts[v - 1] >= counts[v - 2]:
                continue  # would break the lattice-word property
            if above is not None and v <= above:
                continue
            if right is not None and v > right:
                continue
            counts[v - 1] += 1
            grid[(r, c)] = v
            total += fill(k + 1)
            counts[v - 1] -= 1
            del grid[(r, c)]
        return total

    return fill(0)


# the misses of the cache count the distinct evaluations
lr_coefficient.cache_info = _lr.cache_info


def strips(lam: Partition):
    """The nu with lam/nu a horizontal strip, each as a tuple of length
    len(lam) whose last entry may be 0: exactly the nu with
    lam_(r+1) <= nu_r <= lam_r in every row r, a product of row intervals
    in lexicographic order, so lam itself comes last."""
    return product(*map(range, (*lam[1:], 0), [p + 1 for p in lam]))


def kostka_number(lam: Partition, content: tuple[int, ...]) -> int:
    """Number of semistandard Young tableaux of shape lam and given content.

    ``content`` may be any vector of nonnegative integers; entry i is used
    content[i-1] times.  Returns 0 when the sizes disagree.  K is symmetric
    in its content, so zeros are dropped and the rest sorted, the largest
    part last; the cells of that last label form a horizontal strip lam/nu,
    and K is the sum of K_{nu, content without that part} over those
    ``strips`` (Pieri).  Both arguments are checked on every call, before
    the cache: it would take (2.0,) or (True, True) for the key (2,) or (1, 1).
    """
    lam = check_partition(lam)
    content = tuple(content)
    if not all(type(c) is int and c >= 0 for c in content):
        raise ValueError(f"content is not a vector of nonnegative integers: {content!r}")
    return _kostka(lam, content)


@cache
def _kostka(lam: Partition, content: tuple[int, ...]) -> int:
    if sum(lam) != sum(content):
        return 0
    parts = sorted(filter(None, content))
    if not parts:
        return 1
    size, rest = sum(lam) - parts[-1], tuple(parts[:-1])
    return sum(_kostka(tuple(filter(None, nu)), rest) for nu in strips(lam) if sum(nu) == size)


# the misses of the recursion's cache count the distinct evaluations
kostka_number.cache_info = _kostka.cache_info


def orbit(w: tuple[int, ...]):
    """The distinct permutations of w, in lexicographic order, each once:
    the S_n orbit of a weight, at O(n) per permutation rather than n! in
    all (Knuth, TAOCP 7.2.1.2, Algorithm L)."""
    a = sorted(w)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def weyl_dimension(lam: Partition, n: int) -> int:
    """Dimension of the irreducible polynomial GL_n representation for lam.

    Hook content formula: product over cells of (n + col - row) / hook.
    Zero when lam has more than n rows.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be positive and an int, got {n!r}")
    lam = check_partition(lam)
    if len(lam) > n:
        return 0
    conj = conjugate(lam)
    num = 1
    den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= row - j + conj[j] - i - 1
    return num // den
