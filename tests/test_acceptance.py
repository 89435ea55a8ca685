"""Acceptance suite.

Each test implements one exit criterion at its stated (exact) tolerance and
prints a single pass/fail line; run with ``pytest tests/test_acceptance.py -rA``
(or ``-s``) to see the lines.
"""

import random
import time

from equisyz.arrangements import (
    Arrangement,
    hilbert_product,
    p_polynomial,
    polymatroid_of,
)
from equisyz.betti import betti_from_series, regularity, transpose_table
from equisyz.linalg import Subspace
from equisyz.oracle import (
    character_to_schur,
    product_ideal_character,
    wedge_ideal_character,
)
from equisyz.schur import SchurSeries, sigma, zero

from helpers import (
    axes,
    lines_first_disagreement,
    lines_in_plane,
    origin_copies,
    sigma_power,
    worked_product_arrangements,
    plane_and_normal_line,
)


def criterion(number, description):
    def deco(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL - {description}")
                raise
            print(f"[criterion {number}] PASS - {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


# -- 1: golden Hilbert series ---------------------------------------------------


@criterion(1, "golden Hilbert series at D=5, under a second each")
def test_criterion_1_golden_hilbert_series():
    s = sigma(5)
    cases = []
    for t in (1, 2, 3):
        expected = s - SchurSeries(
            {((i,) if i else ()): 1 for i in range(t)}, degree=5
        )
        cases.append((origin_copies(t), expected))
    cases.append((axes(2), (s - 1) ** 2))
    cases.append((plane_and_normal_line(), s**3 - s**2 - s + 1))
    for arr, expected in cases:
        start = time.perf_counter()
        computed = hilbert_product(arr, 5)
        elapsed = time.perf_counter() - start
        assert computed == expected, arr
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


# -- 2: golden Betti tables -----------------------------------------------------


GOLDEN_TABLES = [
    # (series builder, m, t, symmetric columns, exterior columns)
    (
        lambda s: s - 1,
        1,
        1,
        [{(1,): 1}, {(1, 1): 1}, {(1, 1, 1): 1}],
        [{(1,): 1}, {(2,): 1}, {(3,): 1}],
    ),
    (
        lambda s: s - 1 - SchurSeries({(1,): 1}, degree=s.degree),
        1,
        2,
        [{(2,): 1}, {(2, 1): 1}, {(2, 1, 1): 1}],
        [{(1, 1): 1}, {(2, 1): 1}, {(3, 1): 1}],
    ),
    (
        lambda s: (s - 1) ** 2,
        2,
        2,
        [
            {(2,): 1, (1, 1): 1},
            {(2, 1): 2, (1, 1, 1): 2},
            {(2, 2): 1, (2, 1, 1): 3, (1, 1, 1, 1): 3},
        ],
        [
            {(2,): 1, (1, 1): 1},
            {(2, 1): 2, (3,): 2},
            {(2, 2): 1, (3, 1): 3, (4,): 3},
        ],
    ),
    (
        lambda s: s**3 - s**2 - s + 1,
        3,
        2,
        [
            {(2,): 2, (1, 1): 2},
            {(3,): 1, (2, 1): 6, (1, 1, 1): 5},
            {(3, 1): 3, (2, 2): 5, (2, 1, 1): 12, (1, 1, 1, 1): 9},
        ],
        [
            {(1, 1): 2, (2,): 2},
            {(1, 1, 1): 1, (2, 1): 6, (3,): 5},
            {(2, 1, 1): 3, (2, 2): 5, (3, 1): 12, (4,): 9},
        ],
    ),
    (
        lambda s: s**3 - 3 * s + 2,
        3,
        2,
        [
            {(2,): 3, (1, 1): 3},
            {(3,): 2, (2, 1): 10, (1, 1, 1): 8},
            {(3, 1): 6, (2, 2): 9, (2, 1, 1): 21, (1, 1, 1, 1): 15},
        ],
        [
            {(1, 1): 3, (2,): 3},
            {(1, 1, 1): 2, (2, 1): 10, (3,): 8},
            {(2, 1, 1): 6, (2, 2): 9, (3, 1): 21, (4,): 15},
        ],
    ),
]


@criterion(2, "golden Betti tables and their exterior transposes, exact")
def test_criterion_2_golden_betti_tables():
    for build, m, t, sym_cols, ext_cols in GOLDEN_TABLES:
        series = build(sigma(t + 2))
        table = betti_from_series(series, m, t)
        flipped = transpose_table(table)
        for i, expected in enumerate(sym_cols):
            assert table.columns[i].coeffs == expected, (m, t, i)
        for i, expected in enumerate(ext_cols):
            assert flipped.columns[i].coeffs == expected, (m, t, i)


# -- 3: regularity ---------------------------------------------------------------


@criterion(3, "regularity t for products with t <= 4, and 2 for the "
               "three-axes intersection")
def test_criterion_3_regularity():
    product_jobs = [
        origin_copies(1),
        origin_copies(2),
        origin_copies(3),
        origin_copies(4),
        axes(2),
        axes(3),
        plane_and_normal_line(),
        lines_in_plane(2),
        lines_in_plane(3),
        lines_in_plane(4),
        Arrangement(
            3,
            (
                Subspace(3, [[1, 0, 0], [0, 1, 0]]),
                Subspace(3, [[0, 0, 1]]),
                Subspace(3, [[1, 1, 1]]),
                Subspace(3, []),
            ),
        ),
    ]
    for arr in product_jobs:
        t = len(arr)
        table = betti_from_series(
            hilbert_product(arr, t + 1), arr.ambient_dim, t
        )
        assert regularity(table) == t, arr
        assert regularity(transpose_table(table)) == t, arr
    s = sigma(4)
    intersection_table = betti_from_series(s**3 - 3 * s + 2, 3, 2)
    assert regularity(intersection_table) == 2
    assert regularity(transpose_table(intersection_table)) == 2


# -- 4 and 5: oracle equivalence and omega-duality --------------------------------


@criterion(4, "product oracle equals the series formula (d <= 4, n = d), "
               "exact, under 60 s")
def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    for name, arr in worked_product_arrangements():
        t = len(arr)
        h = hilbert_product(arr, 4) if t <= 4 else None
        for d in range(1, 5):
            char = product_ideal_character(arr, d)
            assert character_to_schur(char, d) == h.graded_part(d), (name, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion(5, "wedge oracle equals omega of the series formula (d <= 4, n = d)")
def test_criterion_5_omega_duality():
    for name, arr in worked_product_arrangements():
        h = hilbert_product(arr, 4)
        for d in range(1, 5):
            char = wedge_ideal_character(arr, d)
            expected = h.graded_part(d).omega()
            assert character_to_schur(char, d) == expected, (name, d)


# -- 6: regularity transfer to the exterior side ----------------------------------


@criterion(6, "wedge ideal starts in degree t and its table is linear")
def test_criterion_6_regularity_transfer():
    for name, arr in worked_product_arrangements():
        t = len(arr)
        m = arr.ambient_dim
        char = wedge_ideal_character(arr, 4)
        assert char.min_degree() == t, name
        table = transpose_table(
            betti_from_series(hilbert_product(arr, 4), m, t)
        )
        for i, col in enumerate(table.columns):
            assert col.coeffs, (name, i)
            assert {sum(lam) for lam in col.coeffs} == {i + t}, (name, i)


# -- 7: property suites ------------------------------------------------------------


def _random_series(rng, pool, degree):
    coeffs = {}
    for _ in range(rng.randint(0, 4)):
        coeffs[rng.choice(pool)] = rng.randint(-3, 3)
    return SchurSeries(coeffs, degree=degree)


@criterion(7, "property suites: LR identities, omega involution, inversion, "
               "polymatroid axioms on 100 random arrangements, subset closure")
def test_criterion_7_property_suites():
    from equisyz.partitions import conjugate, lr_coefficient, partitions_of

    # LR symmetry and conjugation, exhaustive for |lam| <= 8
    for k in range(9):
        for lam in partitions_of(k):
            lam_c = conjugate(lam)
            for j in range(k + 1):
                for mu in partitions_of(j):
                    for nu in partitions_of(k - j):
                        c = lr_coefficient(lam, mu, nu)
                        assert c == lr_coefficient(lam, nu, mu)
                        assert c == lr_coefficient(lam_c, conjugate(mu), conjugate(nu))

    # omega is a ring involution; inversion round-trips
    rng = random.Random(2024)
    pool = [lam for d in range(5) for lam in partitions_of(d)]
    for _ in range(60):
        f = _random_series(rng, pool, 6)
        g = _random_series(rng, pool, 6)
        assert f.omega().omega() == f
        assert (f * g).omega() == f.omega() * g.omega()
        unit = f - f.coefficient(()) + 1
        assert unit * unit.invert() == 1
    assert sigma(6) * sigma_power(6, -1) == 1

    # polymatroid axioms on exactly 100 random arrangements
    rng = random.Random(777)
    for _ in range(100):
        m = rng.randint(1, 5)
        t = rng.randint(1, 5)
        subs = []
        for _ in range(t):
            k = rng.randint(0, m)
            subs.append(
                Subspace(
                    m, [[rng.randint(-2, 2) for _ in range(m)] for _ in range(k)]
                )
            )
        pm = polymatroid_of(Arrangement(m, tuple(subs)))
        full = 1 << t
        ranks = {mask: pm.rank(mask) for mask in range(full)}
        assert ranks[0] == 0
        for b in range(full):
            assert 0 <= ranks[b] <= m
            for c in range(full):
                if b | c == c:
                    assert ranks[b] <= ranks[c]
                assert ranks[b | c] + ranks[b & c] <= ranks[b] + ranks[c]

    # defining relation holds on every subset, not just the full set
    rng = random.Random(99)
    closure_cases = [arr for _, arr in worked_product_arrangements()]
    big = []
    while len(big) < 2:
        m = rng.randint(2, 4)
        t = rng.randint(4, 5)
        subs = []
        for _ in range(t):
            k = rng.randint(0, m - 1)
            subs.append(
                Subspace(
                    m, [[rng.randint(-2, 2) for _ in range(m)] for _ in range(k)]
                )
            )
        big.append(Arrangement(m, tuple(subs)))
    for arr in closure_cases + big:
        t = len(arr)
        m = arr.ambient_dim
        D = max(t, 4)
        pm = polymatroid_of(arr)
        for mask in range(1 << t):
            total = zero(D)
            sub = mask
            while True:
                indices = [i for i in range(t) if sub >> i & 1]
                h = hilbert_product(arr.subarrangement(indices), D)
                total = total - h if len(indices) % 2 else total + h
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            expected = sigma_power(D, m - pm.rank(mask)) * p_polynomial(pm, mask, D)
            assert total == expected, (arr, mask)


# -- 8: the lines statement --------------------------------------------------------


@criterion(8, "t distinct lines in the plane agree with sigma^2 - t*sigma "
               "from degree t up to D=6")
def test_criterion_8_lines():
    for t in (1, 2, 3):
        arr = lines_in_plane(t)
        assert lines_first_disagreement(arr, 6) is None
