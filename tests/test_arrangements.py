import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisyz import arrangements, linalg
from equisyz.arrangements import (
    MAX_GROUND_SET,
    Arrangement,
    Polymatroid,
    hilbert_product,
    lines_first_disagreement,
    p_polynomial,
    polymatroid_of,
)
from equisyz.errors import SizeCapError
from equisyz.linalg import Subspace, intersect
from equisyz.schur import SchurSeries, sigma, sigma_power, zero

from helpers import (
    NONZERO,
    axes,
    lines_in_plane,
    origin_copies,
    worked_product_arrangements,
    plane_and_normal_line,
    pooled_arrangements,
    reference_hilbert_product,
    reference_p,
    reference_ranks,
)


def random_arrangement(rng, max_m=5, max_t=5, proper=False):
    m = rng.randint(1, max_m)
    t = rng.randint(1, max_t)
    subs = []
    while len(subs) < t:
        k = rng.randint(0, m - 1 if proper else m)
        vecs = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(k)]
        sub = Subspace(m, vecs)
        if proper and sub.dim == m:
            continue
        subs.append(sub)
    return Arrangement(m, tuple(subs))


# -- polymatroids -------------------------------------------------------------


def test_polymatroid_two_axes():
    pm = polymatroid_of(axes(2))
    assert pm.rank([]) == 0
    assert pm.rank([0]) == 1
    assert pm.rank([1]) == 1
    assert pm.rank([0, 1]) == 2


def test_polymatroid_origin_copies():
    pm = polymatroid_of(origin_copies(3))
    for mask in range(1, 8):
        assert pm.rank(mask) == 1
    assert pm.rank(0) == 0


def test_polymatroid_plane_and_line():
    pm = polymatroid_of(plane_and_normal_line())
    assert pm.rank([0]) == 1
    assert pm.rank([1]) == 2
    assert pm.rank([0, 1]) == 3


def test_polymatroid_axioms_random():
    rng = random.Random(23)
    for _ in range(25):
        arr = random_arrangement(rng)
        pm = polymatroid_of(arr)
        t = len(arr)
        full = 1 << t
        ranks = {mask: pm.rank(mask) for mask in range(full)}
        assert ranks[0] == 0
        for b in range(full):
            assert 0 <= ranks[b] <= arr.ambient_dim
            for c in range(full):
                if b | c == c:
                    assert ranks[b] <= ranks[c]
                assert ranks[b | c] + ranks[b & c] <= ranks[b] + ranks[c]


@settings(max_examples=40, deadline=None)
@given(pooled_arrangements(m=4, dims=(0, 1, 2, 3), min_t=1, max_t=4))
def test_ranks_match_whole_subset_intersections(arr):
    pm = polymatroid_of(arr)
    m = arr.ambient_dim
    for mask in range(1, 1 << len(arr)):
        subset = [s for i, s in enumerate(arr.subspaces) if mask >> i & 1]
        assert pm.rank(mask) == m - intersect(subset).dim, mask


@st.composite
def ragged_arrangements(draw):
    """t = 0..7 subspaces of Q^1 .. Q^6 with p/q entries: any dimension,
    the zero subspace included, some of them repeated."""
    m = draw(st.integers(min_value=1, max_value=6))
    entry = st.sampled_from([Fraction(0)] + NONZERO + [-x for x in NONZERO])
    vectors = st.lists(st.lists(entry, min_size=m, max_size=m), max_size=m)
    subs = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        if subs and draw(st.booleans()):
            subs.append(draw(st.sampled_from(subs)))
        else:
            subs.append(Subspace(m, draw(vectors)))
    return Arrangement(m, tuple(subs))


@settings(max_examples=100, deadline=None)
@given(ragged_arrangements())
def test_ranks_match_stacked_annihilator_rref(arr):
    assert polymatroid_of(arr).ranks == reference_ranks(arr)


def test_polymatroid_takes_no_intersection(monkeypatch):
    arr = Arrangement(
        4,
        tuple(
            Subspace(4, vecs)
            for vecs in (
                [[1, "1/2", 0, 2]],
                [[1, 0, 0, 0], [0, 1, "2/3", 0]],
                [],
                [[1, 1, 1, 1], [0, 1, 2, 3], [3, 0, -1, "1/3"]],
                [[1, "1/2", 0, 2]],
            )
        ),
    )
    expected = reference_ranks(arr)
    calls = {"intersect": 0, "row_reduce": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(linalg, "intersect", counted("intersect", linalg.intersect))
    monkeypatch.setattr(arrangements, "intersect", counted("intersect", linalg.intersect))
    monkeypatch.setattr(linalg, "row_reduce", counted("row_reduce", linalg.row_reduce))
    polymatroid_of.cache_clear()
    assert polymatroid_of(arr).ranks == expected
    assert calls["intersect"] == 0
    assert calls["row_reduce"] <= len(arr)


def test_rank_table_ordering():
    pm = polymatroid_of(axes(2))
    assert [s for s, _ in pm.rank_table()] == [(), (0,), (1,), (0, 1)]


def test_mask_validation():
    pm = polymatroid_of(axes(2))
    with pytest.raises(ValueError):
        pm.rank([5])


# -- correction polynomial -----------------------------------------------------


def test_p_of_empty_set_is_one():
    pm = polymatroid_of(axes(2))
    assert p_polynomial(pm, [], 4) == 1


def test_p_two_axes_all_one():
    pm = polymatroid_of(axes(2))
    assert p_polynomial(pm, [0], 4) == 1
    assert p_polynomial(pm, [1], 4) == 1
    assert p_polynomial(pm, [0, 1], 4) == 1


def test_p_single_origin():
    pm = polymatroid_of(origin_copies(1))
    assert p_polynomial(pm, [0], 3) == 1


def test_p_three_lines_frozen():
    # hand-derived: truncating sigma^2 - 3 sigma + 3 to degree 2
    pm = polymatroid_of(lines_in_plane(3))
    expected = SchurSeries({(): 1, (1,): -1, (1, 1): 1}, degree=5)
    assert p_polynomial(pm, [0, 1, 2], 5) == expected


def test_p_requires_degree_at_least_ground_size():
    pm = polymatroid_of(axes(3))
    with pytest.raises(ValueError):
        p_polynomial(pm, [0], 2)


# -- Hilbert series ------------------------------------------------------------


def test_hilbert_two_axes():
    assert hilbert_product(axes(2), 5) == (sigma(5) - 1) ** 2


def test_hilbert_origin_copies():
    for t in (1, 2, 3):
        expected = sigma(5) - SchurSeries(
            {((i,) if i else ()): 1 for i in range(t)}, degree=5
        )
        assert hilbert_product(origin_copies(t), 5) == expected


def test_hilbert_plane_and_line():
    s = sigma(5)
    assert hilbert_product(plane_and_normal_line(), 5) == s**3 - s**2 - s + 1


def test_hilbert_rejects_low_truncation():
    with pytest.raises(ValueError):
        hilbert_product(axes(3), 2)


def test_hilbert_empty_arrangement_is_sigma_power():
    arr = Arrangement(2, ())
    assert hilbert_product(arr, 3) == sigma(3) ** 2


def test_hilbert_permutation_invariance():
    arr = plane_and_normal_line()
    flipped = Arrangement(3, tuple(reversed(arr.subspaces)))
    assert hilbert_product(arr, 4) == hilbert_product(flipped, 4)

    rng = random.Random(5)
    for _ in range(5):
        arr = random_arrangement(rng, max_m=3, max_t=4, proper=True)
        order = list(range(len(arr)))
        rng.shuffle(order)
        shuffled = arr.subarrangement(order)
        assert hilbert_product(arr, len(arr)) == hilbert_product(shuffled, len(arr))


def test_defining_relation_on_all_subsets():
    """sum over C <= B of (-1)^|C| H(C) = sigma^(m - rk B) P(B), all B."""
    rng = random.Random(17)
    cases = [arr for _, arr in worked_product_arrangements()]
    cases += [random_arrangement(rng, max_m=3, max_t=4, proper=True) for _ in range(3)]
    for arr in cases:
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


# -- closed forms against the subset recursions ---------------------------------


def rational_arrangements(max_t):
    """Subspaces of Q^2 .. Q^4 of every proper dimension, from one pool."""
    return st.integers(min_value=2, max_value=4).flatmap(
        lambda m: pooled_arrangements(m=m, dims=tuple(range(m)), min_t=1, max_t=max_t)
    )


@settings(max_examples=40, deadline=None)
@given(arr=rational_arrangements(max_t=5), extra=st.integers(min_value=0, max_value=2))
def test_hilbert_product_matches_subset_recursion(arr, extra):
    D = len(arr) + extra
    assert hilbert_product(arr, D) == reference_hilbert_product(arr, D)


@settings(max_examples=40, deadline=None)
@given(arr=rational_arrangements(max_t=5), extra=st.integers(min_value=0, max_value=2))
def test_p_polynomial_matches_subset_recursion(arr, extra):
    D = len(arr) + extra
    pm = polymatroid_of(arr)
    memo = {}
    for mask in range(1 << len(arr)):
        got = p_polynomial(pm, mask, D)
        assert got == reference_p(pm, mask, D, memo), mask
        assert got.degree == D


def test_lowest_degree_is_generation_degree():
    rng = random.Random(31)
    cases = [arr for _, arr in worked_product_arrangements()]
    cases += [random_arrangement(rng, max_m=4, max_t=3, proper=True) for _ in range(5)]
    for arr in cases:
        t = len(arr)
        h = hilbert_product(arr, t + 1)
        assert h.min_degree() == t, arr


def test_oracle_equivalence_small():
    from equisyz.oracle import character_to_schur, product_ideal_character

    for _, arr in worked_product_arrangements():
        t = len(arr)
        h = hilbert_product(arr, 3) if t <= 3 else None
        for d in range(t, 4):
            char = product_ideal_character(arr, d, d)
            assert character_to_schur(char, d) == h.graded_part(d), (arr, d)


# -- the lines statement ---------------------------------------------------------


def test_lines_agreement():
    for t in (1, 2, 3):
        arr = lines_in_plane(t)
        assert lines_first_disagreement(arr, 6) is None


def test_lines_preconditions():
    with pytest.raises(ValueError):
        lines_first_disagreement(plane_and_normal_line(), 4)
    dup = Arrangement(2, (axes(2).subspaces[0],) * 2)
    with pytest.raises(ValueError):
        lines_first_disagreement(dup, 4)


# -- caps ---------------------------------------------------------------------


def test_ground_set_cap():
    with pytest.raises(SizeCapError):
        Arrangement(1, (Subspace(1),) * (MAX_GROUND_SET + 1))
    assert len(Arrangement(1, (Subspace(1),) * MAX_GROUND_SET)) == MAX_GROUND_SET


def test_custom_polymatroid_rank_source():
    pm = Polymatroid(2, lambda mask: min(mask.bit_count(), 1))
    assert pm.rank(3) == 1
    assert p_polynomial(pm, 3, 3) == 1 - SchurSeries({(1,): 1}, degree=3)
