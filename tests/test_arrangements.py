import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equisyz import arrangements, linalg
from equisyz.arrangements import (
    MAX_AMBIENT_DIM,
    MAX_GROUND_SET,
    Arrangement,
    Polymatroid,
    hilbert_product,
    p_polynomial,
    polymatroid_of,
)
from equisyz.betti import betti_from_series
from equisyz.errors import SizeCapError
from equisyz.linalg import Subspace, intersect
from equisyz.schur import SchurSeries, sigma, times_sigma_power

from helpers import (
    NONZERO,
    assert_dominant_table,
    axes,
    lines_first_disagreement,
    lines_in_plane,
    low_part,
    origin_copies,
    worked_product_arrangements,
    plane_and_normal_line,
    pooled_arrangements,
    reference_hilbert_product,
    reference_intersection_weights,
    reference_p,
    reference_ranks,
    reference_span_weights,
    sigma_power,
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
    assert pm.ranks == [0, 1, 1, 2]  # by mask: {}, {0}, {1}, {0, 1}


def test_polymatroid_origin_copies():
    pm = polymatroid_of(origin_copies(3))
    for mask in range(1, 8):
        assert pm.ranks[mask] == 1
    assert pm.ranks[0] == 0


def test_polymatroid_plane_and_line():
    pm = polymatroid_of(plane_and_normal_line())
    assert pm.ranks == [0, 1, 2, 3]  # by mask: {}, {0}, {1}, {0, 1}


def test_polymatroid_axioms_random():
    rng = random.Random(23)
    for _ in range(25):
        arr = random_arrangement(rng)
        pm = polymatroid_of(arr)
        t = len(arr.subspaces)
        full = 1 << t
        ranks = {mask: pm.ranks[mask] for mask in range(full)}
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
    for mask in range(1, 1 << len(arr.subspaces)):
        subset = [s for i, s in enumerate(arr.subspaces) if mask >> i & 1]
        assert pm.ranks[mask] == m - intersect(subset).dim, mask


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
    assert calls["row_reduce"] == 0


def test_pipeline_builds_no_annihilator(monkeypatch):
    """The polymatroid and the three oracles read each subspace's
    normal rows; none of them builds an annihilator Subspace."""
    from equisyz.oracle import (
        dominant_weights,
        intersection_ideal_character,
        product_ideal_character,
        wedge_ideal_character,
    )

    arr = Arrangement(
        3, (Subspace(3, [[1, "1/2", 2]]), Subspace(3, [[1, 0, 1], [0, 1, "2/3"]]))
    )
    expected = reference_ranks(arr)
    n = d = 3
    weights = [
        reference_span_weights(arr, n, d, False),
        reference_span_weights(arr, n, d, True),
        reference_intersection_weights(arr, n, d),
    ]

    def refuse(self):
        raise AssertionError("Subspace.annihilator called")

    monkeypatch.setattr(Subspace, "annihilator", refuse)
    polymatroid_of.cache_clear()
    assert polymatroid_of(arr).ranks == expected
    characters = [
        product_ideal_character(arr, d),
        wedge_ideal_character(arr, d),
        intersection_ideal_character(arr, d),
    ]
    for char, every in zip(characters, weights):
        assert_dominant_table(dominant_weights(char, n, d), every)


def test_rank_table_ordering():
    pm = polymatroid_of(axes(2))
    assert [s for s, _ in pm.rank_table()] == [(), (0,), (1,), (0, 1)]
    # the rows read the ranks at masks built beside the subsets: on t = 6
    # subspaces whose subsets take every rank 0-4 they are the ranks at the masks
    spans = (
        [],
        [[1, 0, 0, 0]],
        [[0, 1, 0, 0], [0, 0, 1, 0]],
        [[1, 1, 1, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        [[0, 0, 0, 1], [1, 2, 3, 0]],
    )
    pm = polymatroid_of(Arrangement(4, tuple(Subspace(4, vecs) for vecs in spans)))
    subsets = [s for k in range(7) for s in combinations(range(6), k)]
    table = pm.rank_table()
    assert table == [(s, pm.ranks[pm.as_mask(s)]) for s in subsets]
    assert {rank for _, rank in table} == {0, 1, 2, 3, 4}


def test_mask_validation():
    """-1 ended in a negative shift count, True named subspace 1 and 1.0
    raised a raw TypeError."""
    pm = polymatroid_of(axes(2))
    for subset in ([5], [-1], (True,), [1.0]):
        with pytest.raises(ValueError, match="outside ground set"):
            pm.as_mask(subset)


def test_a_bool_is_no_subset():
    """True is an int, but read as mask 1 it named subspace 0."""
    pm = polymatroid_of(axes(2))
    for subset in (True, False):
        with pytest.raises(TypeError):
            pm.as_mask(subset)
    assert (pm.ranks[pm.as_mask(1)], pm.ranks[pm.as_mask([0])]) == (1, 1)


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


@pytest.mark.parametrize("truncation", [4.5, 4.0, True, -1])
def test_formula_side_truncation_is_a_nonnegative_int(truncation):
    """A float or bool window passed through unchecked: 4.5 spread into every
    series built from the result, and 4.0 failed deep in the partition code."""
    pm = polymatroid_of(axes(1))
    message = "truncation degree must be nonnegative and an int"
    with pytest.raises(ValueError, match=message):
        p_polynomial(pm, [0], truncation)
    with pytest.raises(ValueError, match=message):
        hilbert_product(axes(1), truncation)


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
        order = list(range(len(arr.subspaces)))
        rng.shuffle(order)
        shuffled = Arrangement(arr.ambient_dim, tuple(arr.subspaces[i] for i in order))
        assert hilbert_product(arr, len(arr.subspaces)) == hilbert_product(shuffled, len(arr.subspaces))


# -- metamorphic identities ----------------------------------------------------


@st.composite
def spanned_arrangements(draw, max_m=4, max_t=4):
    """(m, spanning vectors of each subspace, truncation D >= t): t <= max_t
    proper subspaces of Q^m, m <= max_m, each spanned by fewer than m
    vectors with small integer entries."""
    m = draw(st.integers(1, max_m))
    vector = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    spans = draw(st.lists(st.lists(vector, max_size=m - 1), min_size=1, max_size=max_t))
    return m, spans, len(spans) + draw(st.integers(0, 2))


def _arrangement(m, spans) -> Arrangement:
    return Arrangement(m, tuple(Subspace(m, vectors) for vectors in spans))


@settings(max_examples=40, deadline=None)
@given(case=spanned_arrangements(), data=st.data())
def test_moving_every_subspace_by_one_g_keeps_ranks_and_series(case, data):
    """GL(W): one invertible g applied to every spanning vector leaves the
    polymatroid and H unchanged."""
    m, spans, D = case
    row = st.lists(st.integers(-2, 2), min_size=m, max_size=m)
    g = data.draw(st.lists(row, min_size=m, max_size=m), label="g")
    assume(Subspace(m, g).dim == m)
    moved = [[[sum(a * x for a, x in zip(g_row, v)) for g_row in g] for v in vectors]
             for vectors in spans]
    arr, image = _arrangement(m, spans), _arrangement(m, moved)
    assert polymatroid_of(image).rank_table() == polymatroid_of(arr).rank_table()
    assert hilbert_product(image, D) == hilbert_product(arr, D)


@settings(max_examples=40, deadline=None)
@given(case=spanned_arrangements())
def test_adding_the_zero_subspace_truncates_the_series_one_degree_up(case):
    """The maximal ideal times I is I_{>= t+1}, as I is generated in degree
    t, so H(A + {0}) = [H(A)]_{>= t+1}, and its table is linear from
    degree t + 1."""
    m, spans, D = case
    t = len(spans)
    h = hilbert_product(_arrangement(m, spans), D + 1)
    h0 = hilbert_product(_arrangement(m, spans + [[]]), D + 1)
    assert h0 == SchurSeries({lam: c for lam, c in h.items() if sum(lam) > t}, degree=D + 1)
    assert betti_from_series(h0, m, t + 1).t == t + 1


@settings(max_examples=40, deadline=None)
@given(case=spanned_arrangements())
def test_the_cone_multiplies_the_series_by_sigma_and_keeps_the_table(case):
    """Y -> Y + Q e_{m+1} in Q^(m+1) adds one variable that no generator
    reads: H is multiplied by sigma and the Betti table does not change."""
    m, spans, D = case
    t = len(spans)
    cone = [[v + [0] for v in vectors] + [[0] * m + [1]] for vectors in spans]
    h = hilbert_product(_arrangement(m, spans), D)
    h_cone = hilbert_product(_arrangement(m + 1, cone), D)
    assert h_cone == times_sigma_power(h, 1)
    assert betti_from_series(h_cone, m + 1, t) == betti_from_series(h, m, t)


@settings(max_examples=12, deadline=None)
@given(a=spanned_arrangements(max_m=3, max_t=3), b=spanned_arrangements(max_m=3, max_t=3))
def test_a_direct_sum_multiplies_the_series_and_p(a, b):
    """A in W_1 and B in W_2 give E = {Y + W_2} u {W_1 + Z} in W_1 + W_2,
    whose product ideal is I_A I_B in disjoint variables: H(E) = H(A) H(B),
    and P(E) = P(A) P(B) at the full sets, both by the ring product."""
    (m1, spans1, _), (m2, spans2, _) = a, b
    D = len(spans1) + len(spans2) + 2
    unit = [[int(i == j) for j in range(m1 + m2)] for i in range(m1 + m2)]
    summed = [[v + [0] * m2 for v in vectors] + unit[m1:] for vectors in spans1]
    summed += [unit[:m1] + [[0] * m1 + v for v in vectors] for vectors in spans2]
    A, B, E = _arrangement(m1, spans1), _arrangement(m2, spans2), _arrangement(m1 + m2, summed)
    assert hilbert_product(E, D) == hilbert_product(A, D) * hilbert_product(B, D)
    p_a, p_b, p_e = (
        p_polynomial(polymatroid_of(arr), (1 << len(arr.subspaces)) - 1, D) for arr in (A, B, E)
    )
    assert p_e == p_a * p_b


# -- the identities at the caps -------------------------------------------------
# Fixed cases at m = 32, where no oracle reaches.  Each subspace
# is spanned by vectors with entries in -5..5, and one g moves the spanning
# vectors, not the echelon, whose entries would pass the digit cap.


def _spans(m, t, codim, seed):
    """Spanning vectors of t generic subspaces of codimension ``codim`` in Q^m."""
    rng = random.Random(seed)
    return [[[rng.randint(-5, 5) for _ in range(m)] for _ in range(m - codim)] for _ in range(t)]


def _moved(spans, m, seed):
    """The spans moved by g: the unit upper bidiagonal matrix with a random
    superdiagonal of +-1, its rows reversed.  g^-1 has entries in -1..1, so
    the normal rows stay small too."""
    rng = random.Random(seed)
    c = [rng.choice((-1, 1)) for _ in range(m - 1)] + [0]

    def g(v):
        return [x + k * y for x, k, y in zip(v, c, v[1:] + [0])][::-1]

    return [[g(v) for v in vectors] for vectors in spans]


CAP_D = 13
BASE_SPANS = _spans(MAX_AMBIENT_DIM - 1, 12, 1, seed=1)


@pytest.fixture(scope="module")
def cap_hyperplanes():
    """12 hyperplanes of Q^32 and H at D = 13.  They are the cones of 12
    generic hyperplanes of Q^31, so that (d) reads its base within the
    ambient cap; their normals are in general position all the same."""
    m = MAX_AMBIENT_DIM
    spans = [[v + [0] for v in vectors] + [[0] * (m - 1) + [1]] for vectors in BASE_SPANS]
    arr = _arrangement(m, spans)
    assert all(r == bin(mask).count("1") for mask, r in enumerate(polymatroid_of(arr).ranks))
    return spans, arr, hilbert_product(arr, CAP_D)


def test_moving_twelve_hyperplanes_of_q32_by_one_g(cap_hyperplanes):
    """(a) GL(W) at the caps."""
    spans, arr, h = cap_hyperplanes
    image = _arrangement(MAX_AMBIENT_DIM, _moved(spans, MAX_AMBIENT_DIM, seed=2))
    assert polymatroid_of(image).rank_table() == polymatroid_of(arr).rank_table()
    assert hilbert_product(image, CAP_D) == h


def test_reordering_twelve_hyperplanes_of_q32(cap_hyperplanes):
    """(b) Order at the caps: the rank table is permuted, H is unchanged."""
    _, arr, h = cap_hyperplanes
    order = list(range(12))
    random.Random(3).shuffle(order)
    shuffled = Arrangement(MAX_AMBIENT_DIM, tuple(arr.subspaces[i] for i in order))
    pm, pm_shuffled = polymatroid_of(arr), polymatroid_of(shuffled)
    for subset, rank in pm_shuffled.rank_table():
        assert pm.ranks[pm.as_mask([order[i] for i in subset])] == rank
    assert hilbert_product(shuffled, CAP_D) == h


def test_the_zero_subspace_with_twelve_hyperplanes_of_q32(cap_hyperplanes):
    """(c) Zero subspace at the caps: t = 13 and H(A + {0}) is the degree-13
    part of H(A), whose table is linear in degree 13."""
    _, arr, h = cap_hyperplanes
    m = MAX_AMBIENT_DIM
    h0 = hilbert_product(Arrangement(m, arr.subspaces + (Subspace(m),)), CAP_D)
    assert h0 == SchurSeries({lam: c for lam, c in h.items() if sum(lam) == CAP_D}, degree=CAP_D)
    assert betti_from_series(h0, m, CAP_D).t == CAP_D


def test_the_cone_of_twelve_hyperplanes_of_q31(cap_hyperplanes):
    """(d) Cone at the caps: Q^31 -> Q^32 multiplies H by sigma and keeps
    the Betti table."""
    _, _, h = cap_hyperplanes
    m = MAX_AMBIENT_DIM - 1
    h_base = hilbert_product(_arrangement(m, BASE_SPANS), CAP_D)
    assert h == times_sigma_power(h_base, 1)
    assert betti_from_series(h, m + 1, 12) == betti_from_series(h_base, m, 12)


def test_moving_nine_codimension_three_subspaces_of_q32_by_one_g():
    """(a) GL(W) on generic codim-3 members at t = D = 9, where the ranks
    step by 3."""
    m = MAX_AMBIENT_DIM
    spans = _spans(m, 9, 3, seed=4)
    arr, image = _arrangement(m, spans), _arrangement(m, _moved(spans, m, seed=5))
    assert polymatroid_of(image).rank_table() == polymatroid_of(arr).rank_table()
    assert set(polymatroid_of(arr).ranks) == set(range(0, 28, 3))
    assert hilbert_product(image, 9) == hilbert_product(arr, 9)


def test_defining_relation_on_all_subsets():
    """sum over C <= B of (-1)^|C| H(C) = sigma^(m - rk B) P(B), all B."""
    rng = random.Random(17)
    cases = [arr for _, arr in worked_product_arrangements()]
    cases += [random_arrangement(rng, max_m=3, max_t=4, proper=True) for _ in range(3)]
    for arr in cases:
        t = len(arr.subspaces)
        m = arr.ambient_dim
        D = max(t, 4)
        pm = polymatroid_of(arr)
        for mask in range(1 << t):
            total = SchurSeries({}, degree=D)
            sub = mask
            while True:
                indices = [i for i in range(t) if sub >> i & 1]
                h = hilbert_product(Arrangement(arr.ambient_dim, tuple(arr.subspaces[i] for i in indices)), D)
                total = total - h if len(indices) % 2 else total + h
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            expected = sigma_power(D, m - pm.ranks[mask]) * p_polynomial(pm, mask, D)
            assert total == expected, (arr, mask)


# -- closed forms against the subset recursions ---------------------------------


def rational_arrangements(max_t, max_m):
    """Subspaces of Q^2 .. Q^max_m of every dimension below m, from one pool.
    A zero subspace has rank m, so rk B > |B|; with m >= t + 2 one subspace
    can raise the rank by more than 1."""
    return st.integers(min_value=2, max_value=max_m).flatmap(
        lambda m: pooled_arrangements(m=m, dims=tuple(range(m)), min_t=1, max_t=max_t)
    )


def _random_subspaces(m, dims, seed):
    rng = random.Random(seed)
    return Arrangement(
        m,
        tuple(
            Subspace(m, [[rng.choice(NONZERO) * rng.choice((1, -1)) for _ in range(m)]
                         for _ in range(k)])
            for k in dims
        ),
    )


# Both shapes at t = 6, whatever hypothesis draws: two zero subspaces among
# lines and planes of Q^4, and six lines of Q^8 (every singleton has rank 7).
# The third contains the whole space Q^3, which the CLI rejects: a nonempty
# subset of rank 0 puts more than P(empty set) into rank bucket 0.
RANK_EXAMPLES = [
    _random_subspaces(4, (0, 1, 2, 0, 1, 3), seed=1),
    _random_subspaces(8, (1,) * 6, seed=2),
    _random_subspaces(3, (3, 1, 0, 2), seed=3),
]


def wide_examples(test):
    for arr in RANK_EXAMPLES:
        test = example(arr=arr, extra=1)(test)
    return test


@wide_examples
@settings(max_examples=40, deadline=None)
@given(arr=rational_arrangements(max_t=6, max_m=8), extra=st.integers(min_value=0, max_value=2))
def test_hilbert_product_matches_subset_recursion(arr, extra):
    D = len(arr.subspaces) + extra
    assert hilbert_product(arr, D) == reference_hilbert_product(arr, D)


@wide_examples
@settings(max_examples=40, deadline=None)
@given(arr=rational_arrangements(max_t=6, max_m=8), extra=st.integers(min_value=0, max_value=2))
def test_p_polynomial_matches_subset_recursion(arr, extra):
    D = len(arr.subspaces) + extra
    pm = polymatroid_of(arr)
    memo = {}
    for mask in range(1 << len(arr.subspaces)):
        got = p_polynomial(pm, mask, D)
        assert got == reference_p(pm, mask, D, memo), mask
        assert got.degree == D


# -- the closed forms on the spanning subsets -------------------------------------


def _assert_matches_reference(pm, D):
    memo = {}
    for mask in range(1 << pm.ground_size):
        assert p_polynomial(pm, mask, D) == reference_p(pm, mask, D, memo), mask


@settings(max_examples=40, deadline=None)
@given(
    arr=st.sampled_from((3, 4)).flatmap(
        lambda m: pooled_arrangements(m=m, dims=(0, 1), min_t=1, max_t=6)
    ),
    extra=st.integers(min_value=0, max_value=2),
)
def test_closed_forms_on_zero_subspaces_and_lines(arr, extra):
    """Zero subspaces and lines of Q^3 or Q^4 span early, so most masks take
    the spanning formula and H most of its truncation."""
    D = len(arr.subspaces) + extra
    _assert_matches_reference(polymatroid_of(arr), D)
    assert hilbert_product(arr, D) == reference_hilbert_product(arr, D)


@st.composite
def monotone_rank_functions(draw):
    """Monotone ranks from 0 on at most six elements, each mask its largest
    lower neighbour plus 0, 1 or 2: mostly not submodular."""
    t = draw(st.integers(min_value=0, max_value=6))
    ranks = [0] * (1 << t)
    for mask in range(1, 1 << t):
        lower = max(ranks[mask & ~(1 << i)] for i in range(t) if mask >> i & 1)
        ranks[mask] = lower + draw(st.integers(min_value=0, max_value=2))
    return Polymatroid(t, ranks.__getitem__)


@settings(max_examples=40, deadline=None)
@given(pm=monotone_rank_functions(), extra=st.integers(min_value=0, max_value=2))
def test_spanning_formula_needs_only_monotone_ranks(pm, extra):
    _assert_matches_reference(pm, pm.ground_size + extra)


@pytest.mark.parametrize(
    "arr",
    [Arrangement(2, ()), RANK_EXAMPLES[2]],
    ids=["t = 0", "a rank-0 factor"],
)
def test_closed_forms_on_edge_arrangements(arr):
    D = len(arr.subspaces) + 1
    _assert_matches_reference(polymatroid_of(arr), D)
    assert hilbert_product(arr, D) == reference_hilbert_product(arr, D)


def test_rank_zero_arrangement():
    """Every subspace the whole space: rk E = 0, the P table holds only the
    empty set, P is 1 throughout and the product ideal is zero."""
    for m, t in ((1, 1), (2, 3), (3, 4)):
        whole = Subspace(m, [[int(i == j) for j in range(m)] for i in range(m)])
        arr = Arrangement(m, (whole,) * t)
        pm = polymatroid_of(arr)
        assert all(p_polynomial(pm, mask, t) == 1 for mask in range(1 << t))
        assert hilbert_product(arr, t + 1) == 0


def test_thirteen_zero_subspaces():
    """Only the empty set is non-spanning: H = sigma^3 from degree 13 on."""
    arr = Arrangement(3, (Subspace(3),) * 13)
    s3 = sigma_power(15, 3)
    assert hilbert_product(arr, 15) == s3 - low_part(s3, 12)


def test_thirteen_lines_in_the_plane():
    arr = Arrangement(2, tuple(Subspace(2, [[1, k]]) for k in range(13)))
    assert lines_first_disagreement(arr, 15) is None


def test_rank_examples_have_the_intended_shape():
    zeros, lines, whole = (polymatroid_of(arr) for arr in RANK_EXAMPLES)
    assert zeros.ranks[0b1] == zeros.ranks[0b1001] == 4  # rk B > |B|
    assert {lines.ranks[1 << i] for i in range(6)} == {7}  # one subspace, 7 ranks
    assert whole.ranks[0b1] == 0  # the whole space
    assert whole.ranks[0b11] == whole.ranks[0b10] == 2
    # one factor of the product ideal is the zero ideal
    assert hilbert_product(RANK_EXAMPLES[2], 5) == 0


def test_lowest_degree_is_generation_degree():
    rng = random.Random(31)
    cases = [arr for _, arr in worked_product_arrangements()]
    cases += [random_arrangement(rng, max_m=4, max_t=3, proper=True) for _ in range(5)]
    for arr in cases:
        t = len(arr.subspaces)
        h = hilbert_product(arr, t + 1)
        assert h.min_degree() == t, arr


def test_oracle_equivalence_small():
    from equisyz.oracle import character_to_schur, product_ideal_character

    for _, arr in worked_product_arrangements():
        t = len(arr.subspaces)
        h = hilbert_product(arr, 3) if t <= 3 else None
        for d in range(t, 4):
            char = product_ideal_character(arr, d)
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
    assert len(Arrangement(1, (Subspace(1),) * MAX_GROUND_SET).subspaces) == MAX_GROUND_SET


@pytest.mark.parametrize("ranks", [[0, 2, 1, 1], [0, -1, 1, 1], [1, 1, 1, 1]])
def test_rank_source_must_be_monotone_from_zero(ranks):
    with pytest.raises(ValueError, match="monotone"):
        Polymatroid(2, ranks.__getitem__)


@pytest.mark.parametrize(
    "source, mask",
    [(lambda m: 1.0 if m else 0, 1), (lambda m: "1" if m else 0, 1), (bool, 0)],
    ids=["float", "str", "bool"],
)
def test_rank_source_must_give_ints(source, mask):
    """A float rank failed later in p_polynomial, a str one in the
    monotonicity check, and bool ranks were kept as bools."""
    with pytest.raises(ValueError, match=f"rank of mask {mask} must be an int"):
        Polymatroid(2, source)


@pytest.mark.parametrize("size", [True, 2.0])
def test_arrangement_ambient_dimension_must_be_a_positive_int(size):
    """True and 2.0 were accepted."""
    with pytest.raises(ValueError, match="ambient dimension must be a positive int"):
        Arrangement(size, ())


@pytest.mark.parametrize("size", [True, 2.0])
def test_ground_size_must_be_a_nonnegative_int(size):
    """True was accepted as a ground set of one, and 2.0 raised a TypeError."""
    with pytest.raises(ValueError, match="ground size must be a nonnegative int"):
        Polymatroid(size, lambda mask: min(mask.bit_count(), 1))


def test_custom_polymatroid_rank_source():
    pm = Polymatroid(2, lambda mask: min(mask.bit_count(), 1))
    assert pm.ranks[3] == 1
    assert p_polynomial(pm, 3, 3) == 1 - SchurSeries({(1,): 1}, degree=3)
