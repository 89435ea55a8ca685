import random
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisyz.betti import betti_from_series
from equisyz.oracle import GradedCharacter, from_weight_multiplicities, kostka_peel
from equisyz.partitions import conjugate, kostka_number, partitions_of
from equisyz.schur import (
    SchurSeries,
    format_terms,
    graded_index,
    one,
    sigma,
    times_sigma_power,
    zero,
)

from helpers import (
    DictSeries,
    compositions,
    reference_pieri_terms,
    reference_sigma_power,
    reference_times_sigma_power,
)


def series(coeffs, degree):
    return SchurSeries(coeffs, degree=degree)


# -- construction and basics ---------------------------------------------------


def test_one_term_formatter_for_repr_and_both_report_styles():
    s = series({(): -1, (1,): 2, (2, 1): 1, (1, 1): -3}, 3)
    assert repr(s) == "<SchurSeries -1 + 2*s[1] - 3*s[1,1] + s[2,1] (deg <= 3)>"
    assert repr(series({(): 2, (3,): -1}, 3)) == "<SchurSeries 2 - s[3] (deg <= 3)>"
    assert repr(zero(2)) == "<SchurSeries 0 (deg <= 2)>"
    assert format_terms(s.to_pairs()) == s.pretty()
    assert format_terms(s.to_pairs(), "latex") == (
        r"-1 + 2\,s_{(1)} - 3\,s_{(1,1)} + s_{(2,1)}"
    )
    assert format_terms([], "latex") == "0"


def test_non_integral_coefficient_is_rejected():
    with pytest.raises(ValueError, match="not an integer"):
        series({(1,): 1.5, (2,): 1}, 2)
    with pytest.raises(ValueError, match="not an integer"):
        series({(2,): Fraction(1, 2)}, 2)
    with pytest.raises(ValueError, match="not an integer"):
        SchurSeries.from_pairs([((1,), Fraction(1, 3))], degree=2)
    # integral values of other types are kept, as ints
    exact = series({(1,): 2.0, (2,): Fraction(4, 2)}, 2)
    assert exact.coeffs == {(1,): 2, (2,): 2}
    assert all(type(c) is int for c in exact.coeffs.values())


def test_zero_coefficient_is_not_stored():
    assert not series({(1,): 0.0, (2,): Fraction(0)}, 2).coeffs
    assert series({(1,): 0}, 2) == 0


def test_sigma_examples():
    assert sigma(0) == 1
    assert sigma(2) == series({(): 1, (1,): 1, (2,): 1}, 2)
    assert len(sigma(5).coeffs) == 6


def test_constructor_drops_zeros_and_high_degrees():
    f = series({(1,): 0, (2,): 3, (3, 3): 1}, 2)
    assert f.coeffs == {(2,): 3}


@pytest.mark.parametrize("degree", [2.5, True, -1])
def test_the_truncation_window_is_a_nonnegative_int(degree):
    """A window of 2.5 or True was accepted, and a sigma pass over 2.5 then
    recursed in graded_index until RecursionError."""
    with pytest.raises(ValueError, match="truncation degree must be nonnegative"):
        SchurSeries({(1,): 1}, degree=degree)
    with pytest.raises(ValueError, match="truncation degree must be nonnegative"):
        SchurSeries.from_pairs([((1,), 1)], degree=degree)


@pytest.mark.parametrize("D", [-1, 2.5])
def test_graded_index_refuses_a_negative_degree_before_recursing(D):
    """2.5 recurses down to -0.5; both used to end in RecursionError."""
    with pytest.raises(ValueError, match="index degree must be nonnegative"):
        graded_index(D)
    with pytest.raises(ValueError, match="index degree must be nonnegative"):
        times_sigma_power(SchurSeries._make([0, 1], D), 1)


H = SchurSeries({(1,): 2, (2,): 1, (1, 1): 3}, degree=2)

# times_sigma_power and truncate raised a TypeError on a float and took
# True as 1; graded_part took True as degree 1 and 1.0 as 1.
NOT_INTS = {
    "sigma^1.5": (lambda: times_sigma_power(H, 1.5), "sigma exponent must be an int"),
    "sigma^True": (lambda: times_sigma_power(H, True), "sigma exponent must be an int"),
    "truncate(1.0)": (lambda: H.truncate(1.0), "truncation bound must be an int"),
    "truncate(True)": (lambda: H.truncate(True), "truncation bound must be an int"),
    "graded_part(True)": (lambda: H.graded_part(True), "degree must be an int"),
    "graded_part(1.0)": (lambda: H.graded_part(1.0), "degree must be an int"),
}


@pytest.mark.parametrize("case", NOT_INTS)
def test_exponents_bounds_and_degrees_must_be_ints(case):
    call, message = NOT_INTS[case]
    with pytest.raises(ValueError, match=message):
        call()
    assert H.graded_part(1) == H.truncate(1) == SchurSeries({(1,): 2}, degree=2)


def test_constructor_rejects_bad_partition():
    with pytest.raises(ValueError):
        series({(1, 2): 1}, 3)


def test_coefficient_checks_its_partition():
    """A bool, a float part or a padding zero is not a partition; they read
    as s[1], s[2] and 0 before the check, and (2, 0) is a key of the
    dense index."""
    s = series({(1,): 5, (2,): 3}, 2)
    for bad in ([True], (2.0,), (2, 0)):
        with pytest.raises(ValueError, match="not a partition"):
            s.coefficient(bad)
    assert (s.coefficient([1]), s.coefficient((2,)), s.coefficient((1, 1))) == (5, 3, 0)
    assert s.coefficient((7, 3)) == 0


def test_dimension_checks_n_in_every_degree():
    """n < 1 is refused also in a degree without terms, where the sum was empty."""
    s = series({(1,): 5, (2,): 3}, 2)
    for n, d in ((0, 1), (0, 0), (-3, 0)):
        with pytest.raises(ValueError, match="n must be positive"):
            s.dimension(n, d)
    # 2.5 variables gave a dimension of 4.0 in degree 2
    for n, d in ((2.5, 2), (2.5, 0), (True, 1)):
        with pytest.raises(ValueError, match="n must be positive and an int"):
            s.dimension(n, d)
    assert (s.dimension(2, 0), s.dimension(2, 1)) == (0, 10)


def test_a_wide_window_builds_no_index_past_its_terms():
    """The index of degree 60 would take far longer than a second: a series
    builds it only up to its highest nonzero degree."""
    start = perf_counter()
    assert one(60) + 1 == 2
    s = SchurSeries({(1,): 2}, degree=60)
    assert s.truncate(1) == s.graded_part(1) == s.omega() == s
    assert (s == 2) is False
    assert perf_counter() - start < 1


def test_addition_identities():
    f = sigma(2)
    assert f + zero(2) == f
    assert f - f == 0
    assert (f - 1) + 1 == f


def test_mixed_truncation_takes_minimum():
    f = sigma(5) + sigma(3)
    assert f.degree == 3
    assert f == 2 * sigma(3)


# -- multiplication ------------------------------------------------------------


def test_s1_squared():
    s1 = series({(1,): 1}, 2)
    assert s1 * s1 == series({(2,): 1, (1, 1): 1}, 2)


def test_sigma_squared_matches_worked_expansion():
    # 1 + 2 s_1 + (3 s_2 + s_11) + ...
    f = sigma(2) ** 2
    assert f == series({(): 1, (1,): 2, (2,): 3, (1, 1): 1}, 2)


def test_square_of_sigma_minus_one():
    s = sigma(4)
    assert (s - 1) ** 2 == s ** 2 - 2 * s + 1


def test_scalar_multiplication():
    assert 0 * sigma(3) == 0
    assert (-1) * sigma(3) == -sigma(3)


# -- inversion -------------------------------------------------------------


def test_invert_unit():
    assert one(4).invert() == 1


def test_invert_sigma_frozen_value():
    # alternating column shapes; certified by the product identity below
    inv = sigma(3).invert()
    assert inv == series({(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}, 3)


def test_invert_roundtrip():
    for f in (sigma(4), sigma(4) ** 2, 1 - series({(1,): 1}, 4)):
        assert f * f.invert() == 1


def test_invert_product_rule():
    s = sigma(4)
    assert (s ** 2).invert() == s.invert() * s.invert()


def test_sigma_power_negative():
    assert times_sigma_power(one(4), -2) == sigma(4).invert() ** 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_times_sigma_power_matches_lr_products(data):
    D = data.draw(st.integers(min_value=0, max_value=6))
    pool = [lam for d in range(D + 1) for lam in partitions_of(d)]
    terms = data.draw(
        st.dictionaries(
            st.sampled_from(pool), st.integers(min_value=-3, max_value=3), max_size=5
        )
    )
    k = data.draw(st.integers(min_value=-4, max_value=4))
    f = series(terms, D)
    product = times_sigma_power(f, k)
    assert product == f * sigma(D) ** k
    assert product.degree == D


def test_sigma_power_matches_lr_chain():
    for D in range(7):
        for k in range(-4, 5):
            assert times_sigma_power(one(D), k) == reference_sigma_power(D, k), (D, k)


def _sources(index, mu):
    """The partitions that the graded index lists below mu."""
    parts, _, positions, below, _ = index
    return sorted(parts[i] for i in below[positions[mu]](range(len(parts))))


def test_graded_index_lists_the_horizontal_strips_below_each_partition():
    """For every mu with |mu| <= 10, the index lists exactly the lam != mu
    that the reference enumeration grows into mu by a horizontal strip.  A
    strip source has the length of mu, so it ends in at most one zero: the
    index keys each partition plain and with one trailing zero, no more."""
    index = graded_index(10)
    parts, offsets, positions, _, conjugates = index
    assert parts == [lam for d in range(11) for lam in partitions_of(d)]
    sizes = [len(partitions_of(d)) for d in range(11)]
    assert offsets == [sum(sizes[:d]) for d in range(12)]
    assert len(positions) == 2 * len(parts)
    for j, mu in enumerate(parts):
        assert positions[mu] == positions[mu + (0,)] == j
        assert parts[conjugates[j]] == conjugate(mu)
        want = sorted(
            lam
            for lam in parts[: offsets[sum(mu)]]
            if (mu, 1) in reference_pieri_terms(lam, sum(mu) - sum(lam), False)
        )
        assert _sources(index, mu) == want, mu


def test_graded_index_rows_with_one_source():
    # (1) and (1, 1) have one source each, so their itemgetter must not
    # return a bare int; (2) has two
    index = graded_index(4)
    assert _sources(index, ()) == []
    assert _sources(index, (1,)) == [()]
    assert _sources(index, (1, 1)) == [(1,)]
    assert _sources(index, (2,)) == [(), (1,)]
    assert times_sigma_power(series({(): 1}, 2), 1) == sigma(2)
    assert times_sigma_power(series({(1,): 1}, 2), -1) == series(
        {(1,): 1, (2,): -1, (1, 1): -1}, 2
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dense_passes_match_the_dict_reference(data):
    D = data.draw(st.integers(min_value=0, max_value=12))
    pool = [lam for d in range(D + 1) for lam in partitions_of(d)]
    terms = data.draw(
        st.dictionaries(
            st.sampled_from(pool), st.integers(min_value=-5, max_value=5), max_size=6
        )
    )
    k = data.draw(st.integers(min_value=-6, max_value=6))
    f = series(terms, D)
    assert times_sigma_power(f, k) == reference_times_sigma_power(f, k)


def test_times_sigma_inverse_signs_vertical_strips():
    # s_1 * sigma^-1 = s_1 * (1 - e_1 + e_2 - ...) up to degree 3
    got = times_sigma_power(series({(1,): 1}, 3), -1)
    assert got == series(
        {(1,): 1, (2,): -1, (1, 1): -1, (2, 1): 1, (1, 1, 1): 1}, 3
    )


def test_invert_requires_unit_constant():
    with pytest.raises(ValueError):
        (2 * one(3)).invert()
    with pytest.raises(ValueError):
        (sigma(3) - 1).invert()


# -- omega -------------------------------------------------------------------


def test_omega_of_sigma():
    assert sigma(3).omega() == series(
        {(): 1, (1,): 1, (1, 1): 1, (1, 1, 1): 1}, 3
    )


def test_omega_swaps_conjugate_pair():
    f = series({(2,): 1, (1, 1): 1}, 2)
    assert f.omega() == f


def test_omega_on_squared_maximal_ideal_series():
    h = sigma(4) - 1 - series({(1,): 1}, 4)
    assert h.omega() == sigma(4).omega() - 1 - series({(1,): 1}, 4)


# -- truncation and grading -----------------------------------------------------


def test_truncate_example():
    assert sigma(5).truncate(1) == series({(): 1, (1,): 1}, 5)


def test_graded_part_of_sigma_squared():
    f = sigma(2) ** 2
    assert f.graded_part(2) == series({(2,): 3, (1, 1): 1}, 2)


def test_graded_parts_decompose():
    f = sigma(4) ** 2 - 3 * sigma(4)
    total = zero(4)
    for d in range(5):
        total = total + f.graded_part(d)
    assert total == f


def test_truncate_bounds_checked():
    with pytest.raises(ValueError):
        sigma(3).truncate(4)
    with pytest.raises(ValueError):
        sigma(3).graded_part(-1)


# -- dimension evaluation -------------------------------------------------


def test_dimension_examples():
    assert sigma(3).dimension(2, 3) == 4  # Sym^3 of a plane
    f = (sigma(2) - 1) ** 2
    assert f.dimension(2, 2) == 4  # span of x_i y_j, i,j in {1,2}
    assert sigma(3).omega().dimension(2, 3) == 0  # wedge^3 of a plane


def test_dimension_is_multiplicative_over_degrees():
    f = sigma(4)
    g = (sigma(4) - 1) ** 2
    prod = f * g
    for n in (1, 2, 3):
        for d in range(5):
            expected = sum(
                f.dimension(n, e) * g.dimension(n, d - e) for e in range(d + 1)
            )
            assert prod.dimension(n, d) == expected


# -- weight multiplicities -----------------------------------------------------


def test_from_weights_examples():
    assert from_weight_multiplicities({(1, 0): 1, (0, 1): 1}, 1, 2) == series(
        {(1,): 1}, 1
    )
    assert from_weight_multiplicities(
        {(2, 0): 1, (1, 1): 2, (0, 2): 1}, 2, 2
    ) == series({(2,): 1, (1, 1): 1}, 2)
    assert from_weight_multiplicities({(1, 1): 1}, 2, 2) == series({(1, 1): 1}, 2)


def _weight_table(coeffs, d, n):
    """Weight table of sum c_lam s_lam in n variables, from Kostka numbers."""
    table = {}
    for w in compositions(d, n):
        dim = sum(c * kostka_number(lam, w) for lam, c in coeffs.items())
        if dim:
            table[w] = dim
    return table


def test_from_weights_roundtrip():
    """Left inverse of expanding a Schur function into weights, d <= 5.

    Then random nonnegative sums of s_lam with at most r < n rows: the
    expansion returns their coefficients, and so does the peel of the
    dominant weights with at most r parts, from which a character derives
    every dominant weight.
    """
    for d in range(1, 6):
        n = d
        for lam in partitions_of(d):
            table = _weight_table({lam: 1}, d, n)
            assert from_weight_multiplicities(table, d, n) == series({lam: 1}, d)
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 5)
        d = rng.randint(1, n)
        r = rng.randint(1, n - 1)
        shapes = partitions_of(d, max_parts=r)
        picked = rng.sample(shapes, rng.randint(1, len(shapes)))
        coeffs = {lam: rng.randint(1, 3) for lam in picked}
        table = _weight_table(coeffs, d, n)
        assert from_weight_multiplicities(table, d, n) == series(coeffs, d)
        dominant = {w: c for w, c in table.items() if list(w) == sorted(w, reverse=True)}
        few_parts = {w: c for w, c in dominant.items() if len(w) - w.count(0) <= r}
        assert GradedCharacter(n, {d: kostka_peel(few_parts, d, n, r)}).weights[d] == dominant


def test_from_weights_in_twelve_variables():
    """n = 12 > d: each orbit check walks the distinct permutations of a
    weight, not its 12! orderings; an asymmetric change is still caught."""
    coeffs = {(3, 1): 2, (2, 1, 1): 1, (1, 1, 1, 1): 3}
    table = _weight_table(coeffs, 4, 12)
    assert from_weight_multiplicities(table, 4, 12) == series(coeffs, 4)
    table[(0,) * 10 + (1, 3)] += 1
    with pytest.raises(ValueError, match=r"orbit of \(3, 1, 0"):
        from_weight_multiplicities(table, 4, 12)


def test_from_weights_rejects_asymmetric():
    with pytest.raises(ValueError):
        from_weight_multiplicities({(2, 0): 1}, 2, 2)


def test_from_weights_rejects_negative():
    with pytest.raises(ValueError, match=r"multiplicity -1 at weight \(2, 0\)$"):
        from_weight_multiplicities({(2, 0): -1, (0, 2): -1, (1, 1): -1}, 2, 2)


def test_from_weights_rejects_late_negative():
    # symmetric, top weight fine, goes negative only after the first peel
    with pytest.raises(ValueError, match=r"multiplicity -2 at weight \(1, 1\)$"):
        from_weight_multiplicities({(2, 0): 1, (0, 2): 1, (1, 1): -1}, 2, 2)


@pytest.mark.parametrize("mult", [1.5, Fraction(3, 2), "2"])
def test_from_weights_rejects_a_multiplicity_that_is_not_an_integer(mult):
    """Truncated, 3/2 at both weights of degree one read as s[1]; the
    string "2" was read as 2."""
    with pytest.raises(ValueError, match="not an integer"):
        from_weight_multiplicities({(1, 0): mult, (0, 1): mult}, 1, 2)


def test_from_weights_rejects_small_n():
    with pytest.raises(ValueError):
        from_weight_multiplicities({(2,): 1}, 2, 1)


def test_from_weights_rejects_bad_weight():
    with pytest.raises(ValueError):
        from_weight_multiplicities({(1, 0, 0): 1}, 1, 2)


@pytest.mark.parametrize(
    "weights",
    [{(0.5, 0.5): 3}, {(1.0, 0.0): 1, (0.0, 1.0): 1}, {(True, False): 1, (False, True): 1}],
)
def test_from_weights_rejects_a_weight_entry_that_is_not_an_int(weights):
    """(0.5, 0.5) was read as the zero series, and the float and bool
    weights of degree one as s[1]."""
    with pytest.raises(ValueError, match="is not a composition of 1 into 2 parts"):
        from_weight_multiplicities(weights, 1, 2)


# -- ring properties -----------------------------------------------------------


PARTITION_POOL = [lam for d in range(5) for lam in partitions_of(d)]


def sparse_series(draw):
    terms = draw(
        st.dictionaries(
            st.sampled_from(PARTITION_POOL),
            st.integers(min_value=-3, max_value=3),
            max_size=4,
        )
    )
    return SchurSeries(terms, degree=6)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_multiply_commutative_and_associative(data):
    f = sparse_series(data.draw)
    g = sparse_series(data.draw)
    h = sparse_series(data.draw)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_omega_is_a_ring_involution(data):
    f = sparse_series(data.draw)
    g = sparse_series(data.draw)
    assert f.omega().omega() == f
    assert (f * g).omega() == f.omega() * g.omega()
    assert (f + g).omega() == f.omega() + g.omega()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_invert_succeeds_iff_unit_and_roundtrips(data):
    f = sparse_series(data.draw)
    c0 = f.coefficient(())
    if c0 in (1, -1):
        assert f * f.invert() == 1
    else:
        with pytest.raises(ValueError):
            f.invert()


SMALL_POOL = [lam for d in range(7) for lam in partitions_of(d)]
PAIRS = st.lists(
    st.tuples(st.sampled_from(SMALL_POOL), st.integers(min_value=-3, max_value=3)),
    max_size=6,
)
WINDOWS = st.integers(min_value=0, max_value=6)


@settings(max_examples=60, deadline=None)
@given(PAIRS, PAIRS, WINDOWS, WINDOWS, st.integers(min_value=-3, max_value=3), st.data())
def test_dense_series_matches_the_dict_reference(p, q, wf, wg, k, data):
    """Every operation on the dense vector against the dict series it
    replaced, on random pairs with repeats, zero sums and terms above the
    window; items() comes out in the reference's sorted order."""
    f, g = SchurSeries.from_pairs(p, degree=wf), SchurSeries.from_pairs(q, degree=wg)
    rf, rg = DictSeries(p, wf), DictSeries(q, wg)
    assert f.items() == rf.items() and g.items() == rg.items()
    assert (f + g).items() == (rf + rg).items() and (f + g).degree == min(wf, wg)
    assert (f - g).items() == (rf + rg.scaled(-1)).items()
    assert (k * f).items() == (f * k).items() == rf.scaled(k).items()
    assert f.omega().items() == rf.omega().items()
    j = data.draw(st.integers(min_value=0, max_value=wf))
    assert f.truncate(j).items() == rf.truncate(j).items() and f.truncate(j).degree == wf
    assert f.graded_part(j).items() == rf.graded_part(j).items()
    assert [f.coefficient(lam) for lam in SMALL_POOL] == [
        rf.coeffs.get(lam, 0) for lam in SMALL_POOL
    ]
    assert f.min_degree() == rf.min_degree()
    assert (f == g) == (rf.coeffs == rg.coeffs)
    assert f == SchurSeries.from_pairs(f.to_pairs(), degree=6)
    assert (f * g).items() == (rf * rg).items()
    unit = f - f.coefficient(()) + data.draw(st.sampled_from((1, -1)))
    assert unit * unit.invert() == 1


# -- serialization ---------------------------------------------------------


def test_to_pairs_is_canonically_ordered():
    f = series({(1, 1): 1, (3,): 2, (2,): -1, (): 5}, 3)
    assert f.to_pairs() == [[[], 5], [[2], -1], [[1, 1], 1], [[3], 2]]


def test_from_pairs_roundtrip():
    f = sigma(3) ** 2 - 2 * sigma(3)
    again = SchurSeries.from_pairs(f.to_pairs(), degree=3)
    assert again == f


def test_from_pairs_sums_repeated_partitions():
    f = SchurSeries.from_pairs([((1,), 1), ((1,), -1)], degree=2)
    assert not f and f == 0 and f.coeffs == {}
    g = SchurSeries.from_pairs([([1], 2), ((2,), 1), ((1,), 3), ((3,), 5)], degree=2)
    assert g.coeffs == {(1,): 5, (2,): 1}
