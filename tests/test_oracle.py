import json
import logging
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equisyz.arrangements import Arrangement, hilbert_product
from equisyz.cli import EXIT_OK, EXIT_VALIDATION, main
from equisyz.errors import SizeCapError
from equisyz.linalg import Subspace, row_reduce
from equisyz.oracle import (
    DEFAULT_CAPS,
    OracleCaps,
    _Echelon,
    _renamed,
    _times_form,
    character_to_schur,
    dominant_weights,
    from_weight_multiplicities,
    intersection_ideal_character,
    product_ideal_character,
    wedge_ideal_character,
)
from equisyz.partitions import partitions_of
from equisyz.schur import SchurSeries, sigma

from helpers import (
    _times_form as reference_times_form,
    all_weights_intersection,
    all_weights_span,
    assert_dominant_table,
    axes,
    forms_per_factor,
    orbit_expanded,
    origin_copies,
    worked_product_arrangements,
    plane_and_normal_line,
    pooled_arrangements,
    reference_intersection_weights,
    reference_renamed,
    reference_span_weights,
    ssyt_count,
    symmetric_orbit_ok,
    tuple_renamed,
    tuple_span_coeffs,
    tuple_times_form,
)


def generic_lines():
    l1 = Subspace(2, [[1, 0]])
    l2 = Subspace(2, [[1, 1]])
    return Arrangement(2, (l1, l2))


# -- coordinates ---------------------------------------------------------------


def test_coordinate_basis_form_counts():
    """Factor k carries (m - dim Y_k) * n pure-weight linear forms."""
    for arr in (axes(2), axes(3), plane_and_normal_line(), generic_lines()):
        for n in (1, 2, 3):
            factors = forms_per_factor(arr, n)
            assert len(factors) == len(arr.subspaces)
            for sub, forms in zip(arr.subspaces, factors):
                assert len(forms) == (arr.ambient_dim - sub.dim) * n
                for i, form in forms:
                    assert 0 <= i < n
                    assert all(v % n == i and v < arr.ambient_dim * n for v in form)


def test_coordinate_basis_forms_are_primitive_integers():
    arr = Arrangement(3, (Subspace(3, [["1/2", "2/3", 1]]),))
    for i, form in forms_per_factor(arr, 2)[0]:
        assert all(type(c) is int for c in form.values())
        assert gcd(*form.values()) == 1
        assert form[min(form)] > 0


def _decoded(elem: dict, m: int, n: int, bits: int, exterior: bool) -> dict:
    """Packed keys read back as sorted variable tuples, variable j*n + i for
    z[j,i] in field i*m + m-1-j; an exterior monomial wedges its variables
    in field order, so it takes the sign of sorting them by variable."""
    out = {}
    for key, c in elem.items():
        vs = []
        for field in range(m * n):
            i, j = divmod(field, m)
            vs += [(m - 1 - j) * n + i] * (key >> field * bits & (1 << bits) - 1)
        if exterior and sum(a > b for x, a in enumerate(vs) for b in vs[x + 1:]) % 2:
            c = -c
        out[tuple(sorted(vs))] = c
    return out


def _variable(v: int, m: int, n: int, bits: int) -> int:
    """The packed key of variable v = j*n + i, z[j,i]."""
    j, i = divmod(v, n)
    return 1 << (i * m + m - 1 - j) * bits


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_product_and_renaming_match_the_tuple_reference(data):
    """A packed element, read back through the decoder, times a form or
    renamed by a random permutation of V-indices, equals the sorted-tuple
    product and renaming and the references they were checked against."""
    exterior = data.draw(st.booleans())
    m = data.draw(st.integers(min_value=1, max_value=3))
    n = data.draw(st.integers(min_value=1, max_value=4))
    bits = 1 if exterior else data.draw(st.integers(min_value=5, max_value=12)).bit_length()
    var = st.integers(min_value=0, max_value=m * n - 1)
    coeff = st.integers(min_value=-3, max_value=3).filter(bool)
    mono = st.lists(var, max_size=4, unique=exterior).map(lambda vs: tuple(sorted(vs)))
    elem = data.draw(st.dictionaries(mono, coeff, max_size=5))
    form = data.draw(st.dictionaries(var, coeff, max_size=4))
    perm = data.draw(st.permutations(range(n)))
    packed = {}
    for key, c in elem.items():
        k = sum(_variable(v, m, n, bits) for v in key)
        packed[k] = _decoded({k: c}, m, n, bits, exterior)[key]  # the sign is an involution
    assert _decoded(packed, m, n, bits, exterior) == elem
    pform = {_variable(v, m, n, bits): c for v, c in form.items()}
    product = _decoded(_times_form(packed, pform, exterior), m, n, bits, exterior)
    assert product == tuple_times_form(elem, form, exterior)
    assert product == reference_times_form(elem, form, exterior)
    renamed = _decoded(_renamed(packed, perm, m * bits, exterior), m, n, bits, exterior)
    assert renamed == tuple_renamed(elem, perm, exterior)
    assert renamed == reference_renamed(elem, perm, exterior)


@st.composite
def span_cases(draw):
    """A pooled arrangement of Q^m, m <= 3, of proper subspaces from the
    zero subspace up, now and then with one member repeated, to degree
    d <= 5."""
    m = draw(st.integers(min_value=1, max_value=3))
    subs = draw(pooled_arrangements(m=m, dims=tuple(range(m)), min_t=1, max_t=3)).subspaces
    if draw(st.booleans()):
        subs += (draw(st.sampled_from(subs)),)
    return Arrangement(m, subs), draw(st.integers(min_value=0, max_value=5))


@settings(max_examples=40, deadline=None)
@given(case=span_cases())
@example(case=(Arrangement(3, (
    Subspace(3), Subspace(3, [[1, 1, 0], [0, 1, 2]]), Subspace(3, [[1, -1, 1]]),
    Subspace(3, [[1, -1, 1]]),
)), 5))
@example(case=(Arrangement(2, (Subspace(2, [[1, 0], [0, 1]]), Subspace(2))), 3))
def test_span_oracles_match_the_tuple_reference(case):
    """The product and wedge oracles on packed monomials give the Schur
    coefficients of the same spanning on sorted variable tuples at
    n = max(d, 1), where every partition of d is visible.  The examples
    hold the zero subspace, a repeated line and the whole space, whose
    ideal is zero and has no normal row."""
    arr, d = case
    n = max(d, 1)
    caps = OracleCaps(3, 5)
    prod = product_ideal_character(arr, d, caps)
    assert prod == _flat(tuple_span_coeffs(arr, n, d, False), d)
    wedge = wedge_ideal_character(arr, d, caps)
    assert wedge == _flat(tuple_span_coeffs(arr, n, d, True), d)


def _flat(by_degree: dict, d: int) -> SchurSeries:
    """The one series of per-degree Schur coefficients."""
    return SchurSeries({lam: c for part in by_degree.values() for lam, c in part.items()}, degree=d)


# -- fraction-free elimination ---------------------------------------------------


def _dense(rows, labels):
    return [[row.get(k, 0) for k in labels] for row in rows]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_echelon_rank(data):
    ncols = data.draw(st.integers(min_value=1, max_value=7))
    labels = list(range(ncols))
    entry = st.integers(min_value=-6, max_value=6).filter(bool)
    row = st.dictionaries(st.sampled_from(labels), entry, max_size=ncols)
    first = data.draw(st.lists(row, max_size=8))
    later = data.draw(st.lists(row, max_size=4))
    ech = _Echelon()
    offered = []
    for batch in (first, later):
        for r in batch:
            ech.add(r)
        offered += batch
        assert ech.rank == row_reduce(_dense(offered, labels))[1]


def test_echelon_keeps_primitive_rows_with_positive_pivots():
    ech = _Echelon()
    assert ech.add({0: 2, 1: 4, 2: -6})
    assert ech.add({0: 3, 1: -2})
    assert not ech.add({0: 3, 1: 6, 2: -9})
    assert not ech.add({})
    assert ech.rows == {0: {0: 1, 1: 2, 2: -3}, 1: {1: 8, 2: -9}}


# -- product characters --------------------------------------------------------


def test_two_axes_degree_two_weights():
    char = product_ideal_character(axes(2), 2)
    assert_dominant_table(dominant_weights(char, 2, 2), {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert char.dimension(2, 2) == 4
    assert character_to_schur(char, 2) == SchurSeries(
        {(2,): 1, (1, 1): 1}, degree=2
    )


def test_maximal_ideal_degree_one():
    char = product_ideal_character(origin_copies(1), 1)
    assert char.dimension(2, 1) == 2
    assert character_to_schur(char, 1) == SchurSeries({(1,): 1}, degree=1)


def test_product_vanishes_below_generation_degree():
    char = product_ideal_character(axes(3), 2)
    for d in range(3):
        assert dominant_weights(char, 2, d) == {}


def test_product_matches_formula_for_worked_arrangements():
    for name, arr in worked_product_arrangements():
        t = len(arr)
        h = hilbert_product(arr, 3)
        for d in range(t, 4):
            char = product_ideal_character(arr, d)
            assert character_to_schur(char, d) == h.graded_part(d), (name, d)


def test_product_matches_formula_for_generic_lines():
    arr = generic_lines()
    h = hilbert_product(arr, 4)
    for d in (2, 3, 4):
        char = product_ideal_character(arr, d)
        assert character_to_schur(char, d) == h.graded_part(d), d


# -- intersection characters -----------------------------------------------------


def test_three_axes_intersection_small():
    char = intersection_ideal_character(axes(3), 2)
    assert char.dimension(1, 2) == 3  # xy, xz, yz
    assert character_to_schur(char, 2) == SchurSeries(
        {(2,): 3, (1, 1): 3}, degree=2
    )


def test_three_axes_intersection_matches_closed_form():
    arr = axes(3)
    s = sigma(4)
    closed = s**3 - 3 * s + 2
    char = intersection_ideal_character(arr, 4)
    for d in range(1, 5):
        assert character_to_schur(char, d) == closed.graded_part(d), d


def _pencil_and_line() -> Arrangement:
    """Three distinct planes through the line spanned by (1,1,1), plus a
    line inside the first of them."""
    axis = [1, 1, 1]
    planes = tuple(
        Subspace(3, [axis, v]) for v in ([1, 0, 0], [0, 1, 0], [1, 2, 3])
    )
    return Arrangement(3, planes + (Subspace(3, [[2, 1, 1]]),))


def test_no_quadric_vanishes_on_a_pencil_of_planes():
    """A nonzero quadric is divisible by at most two distinct linear forms,
    so it contains at most two planes: weight (2,0,0,0) is empty."""
    arr = _pencil_and_line()
    table = dominant_weights(intersection_ideal_character(arr, 2), 4, 2)
    assert table.get((2, 0, 0, 0), 0) == 0
    assert_dominant_table(table, reference_intersection_weights(arr, 4, 2))


def test_intersection_job_with_rational_planes_exits_cleanly(tmp_path, capsys):
    """Two hyperplanes, a plane and the origin of Q^4 that share spanning
    vectors.  A nullspace read from pivot rows that are not fully reduced
    gave this job a weight table that is no character, and a traceback."""
    doc = {
        "ambient_dim": 4,
        "subspaces": [
            [["1/2", 1, "-1/3", -1], [-1, 2, "-1/3", "-1/3"], [1, "-1/3", 1, 1]],
            [[1, "-1/3", 1, 1], ["-1/3", -2, 0, -2], [-2, 1, -2, "-1/3"]],
            [],
            [[-1, 2, "-1/3", "-1/3"], [-2, 1, -2, "-1/3"]],
        ],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["--input", str(path), "--ideal", "intersection", "--max-degree", "4"]
    code = main(argv + ["--dim-v", "4"])
    assert code in (EXIT_OK, EXIT_VALIDATION)
    report = json.loads(capsys.readouterr().out)
    assert report["hilbert_series"]["terms"]


def test_single_factor_intersection_equals_product():
    arr = Arrangement(2, (Subspace(2, [[1, 1]]),))
    inter = intersection_ideal_character(arr, 2)
    prod = product_ideal_character(arr, 2)
    assert inter == prod


def test_intersection_dominates_product():
    for arr in (axes(3), plane_and_normal_line(), generic_lines()):
        n = 2
        inter = intersection_ideal_character(arr, 3)
        prod = product_ideal_character(arr, 3)
        for d in range(4):
            pw = dominant_weights(prod, n, d)
            iw = dominant_weights(inter, n, d)
            for w, dim in pw.items():
                assert iw.get(w, 0) >= dim, (arr, d, w)


# -- wedge characters ----------------------------------------------------------


def test_full_ring_characters_via_empty_arrangement():
    # with no factors the spanning set is the whole algebra
    empty = Arrangement(1, ())
    sym = product_ideal_character(empty, 2)
    assert character_to_schur(sym, 2) == SchurSeries({(2,): 1}, degree=2)
    ext = wedge_ideal_character(empty, 2)
    assert character_to_schur(ext, 2) == SchurSeries({(1, 1): 1}, degree=2)
    inter = intersection_ideal_character(empty, 2)
    assert inter == sym


def test_two_axes_wedge_degree_two():
    char = wedge_ideal_character(axes(2), 2)
    assert character_to_schur(char, 2) == SchurSeries(
        {(1, 1): 1, (2,): 1}, degree=2
    )


def test_wedge_of_maximal_ideal_degree_two():
    char = wedge_ideal_character(origin_copies(1), 2)
    assert character_to_schur(char, 2) == SchurSeries({(1, 1): 1}, degree=2)


def test_wedge_vanishes_below_generation_degree():
    char = wedge_ideal_character(axes(3), 2)
    for d in range(3):
        assert dominant_weights(char, 2, d) == {}


def test_omega_duality_small():
    cases = [axes(2), generic_lines(), plane_and_normal_line()]
    for arr in cases:
        t = len(arr)
        h = hilbert_product(arr, 3)
        for d in range(t, 4):
            char = wedge_ideal_character(arr, d)
            assert character_to_schur(char, d) == h.graded_part(d).omega(), (arr, d)


def test_rational_entries_through_both_oracles():
    l1 = Subspace(2, [["2", "1"]])
    l2 = Subspace(2, [["3", "-2"]])
    l3 = Subspace(2, [[1, 0]])
    arr = Arrangement(2, (l1, l2, l3))
    h = hilbert_product(arr, 4)
    for d in (3, 4):
        pc = product_ideal_character(arr, d)
        assert character_to_schur(pc, d) == h.graded_part(d), d
        wc = wedge_ideal_character(arr, d)
        assert character_to_schur(wc, d) == h.graded_part(d).omega(), d


def test_raised_caps_degree_five():
    caps = OracleCaps(ambient_dim=5, degree=5)
    arr = axes(2)
    h = hilbert_product(arr, 5)
    pc = product_ideal_character(arr, 5, caps=caps)
    wc = wedge_ideal_character(arr, 5, caps=caps)
    for d in range(2, 6):
        assert character_to_schur(pc, d) == h.graded_part(d), d
        assert character_to_schur(wc, d) == h.graded_part(d).omega(), d


def test_tilted_arrangement_same_series_as_coordinate_twin():
    """The series only sees the rank function, and the oracle agrees even
    when no generator is a monomial."""
    tilted = Arrangement(
        3,
        (
            Subspace(3, [[1, 1, 0], [0, 1, 1]]),
            Subspace(3, [[1, -1, 2]]),
        ),
    )
    h = hilbert_product(tilted, 4)
    assert h == hilbert_product(plane_and_normal_line(), 4)
    for d in (2, 3):
        pc = product_ideal_character(tilted, d)
        assert character_to_schur(pc, d) == h.graded_part(d), d
        wc = wedge_ideal_character(tilted, d)
        assert character_to_schur(wc, d) == h.graded_part(d).omega(), d


def _assert_weights_at_every_dim_v(oracle, arr, d, max_n=None):
    """The series ``oracle`` returns to degree d, eliminated at one dim V,
    gives the dominant weights of the every-weight reference at every n in
    1..d+1 (or 1..max_n, if smaller), n < d and n > m included."""
    series = oracle(arr, d)
    for n in range(1, min(d + 1, max_n or d + 1) + 1):
        if oracle is intersection_ideal_character:
            every = all_weights_intersection(arr, n, d)
        else:
            every = all_weights_span(arr, n, d, oracle is wedge_ideal_character)
        for e in range(d + 1):
            assert_dominant_table(dominant_weights(series, n, e), every[e], n, e)


def test_intersection_series_independent_of_dim_v():
    """The three axes of Q^3 to degree 4, eliminated at n = 3 and read up to
    n = 5."""
    _assert_weights_at_every_dim_v(intersection_ideal_character, axes(3), 4)


@settings(max_examples=20, deadline=None)
@given(arr=pooled_arrangements(), d=st.integers(min_value=0, max_value=4))
def test_intersection_coefficients_do_not_depend_on_dim_v(arr, d):
    """By Cauchy, an S_lam(V) in the intersection ideal has at most m rows,
    so the series eliminated at n = min(d, m) gives every other n: planes
    of Q^3 up to degree 4, (2,1,1) at n = 3 included, read up to n = 4 > m
    (the every-weight reference at n = 5 is too slow to draw here)."""
    _assert_weights_at_every_dim_v(intersection_ideal_character, arr, d, max_n=4)


def _planes_or_lines():
    return st.one_of(pooled_arrangements(), pooled_arrangements(m=2, dims=(1,), min_t=1))


@settings(max_examples=20, deadline=None)
@given(arr=_planes_or_lines(), d=st.integers(min_value=0, max_value=4))
def test_product_coefficients_do_not_depend_on_dim_v(arr, d):
    """The product ideal is a sum of S_lam W-parts tensor S_lam V as well,
    so the series eliminated at n = min(d, m) gives every other n: planes
    of Q^3 and lines of Q^2, read up to n = d + 1, past m."""
    _assert_weights_at_every_dim_v(product_ideal_character, arr, d)


@settings(max_examples=20, deadline=None)
@given(arr=_planes_or_lines(), d=st.integers(min_value=0, max_value=4))
def test_wedge_coefficients_do_not_depend_on_dim_v(arr, d):
    """An S_lam'(V) in the wedge ideal can have d rows, so its series is
    eliminated at n = d, and read below d it gives the smaller tables."""
    _assert_weights_at_every_dim_v(wedge_ideal_character, arr, d)


# -- cross checks --------------------------------------------------------------


def _assert_oracles_match_references(arr, n, d_max):
    prod = product_ideal_character(arr, d_max)
    wedge = wedge_ideal_character(arr, d_max)
    inter = intersection_ideal_character(arr, d_max)
    every_prod = all_weights_span(arr, n, d_max, False)
    every_wedge = all_weights_span(arr, n, d_max, True)
    every_inter = all_weights_intersection(arr, n, d_max)
    for d in range(d_max + 1):
        pw, ww, iw = (dominant_weights(char, n, d) for char in (prod, wedge, inter))
        assert_dominant_table(pw, every_prod[d], d)
        assert_dominant_table(pw, reference_span_weights(arr, n, d, False), d)
        assert_dominant_table(ww, every_wedge[d], d)
        assert_dominant_table(ww, reference_span_weights(arr, n, d, True), d)
        assert_dominant_table(iw, every_inter[d], d)
        assert_dominant_table(iw, reference_intersection_weights(arr, n, d), d)


@settings(max_examples=40, deadline=None)
@given(arr=pooled_arrangements(), n=st.integers(min_value=1, max_value=3))
def test_oracles_match_slow_reference(arr, n):
    """Dominant tables are the dominant weights of the oracle's every-weight
    loops, and of the Fraction-elimination and dense vanishing-condition
    references, and their orbits expand to those tables.  At n = 3 an orbit
    has up to six weights, more than the cyclic shifts of its dominant one."""
    _assert_oracles_match_references(arr, n, 3)


@settings(max_examples=30, deadline=None)
@given(arr=pooled_arrangements(m=2, dims=(1,), min_t=1, max_t=3))
def test_oracles_match_slow_reference_past_m_parts(arr):
    """Lines in Q^2 at n = 3: the weight (1,1,1) has more than m = 2 parts,
    so the product and intersection tables fill it from Kostka numbers,
    and every degree above t is spanned from the previous degree's basis,
    renamed from a dominant weight."""
    _assert_oracles_match_references(arr, 3, 3)


@st.composite
def mixed_arrangements(draw):
    """Zero subspaces, lines and planes of Q^3 from one rational pool, and
    now and then one member repeated."""
    subs = draw(pooled_arrangements(dims=(0, 1, 2), min_t=1, max_t=3)).subspaces
    if draw(st.booleans()):
        subs += (draw(st.sampled_from(subs)),)
    return Arrangement(3, subs)


@settings(max_examples=20, deadline=None)
@given(arr=mixed_arrangements())
def test_oracles_match_slow_reference_on_mixed_arrangements(arr):
    """Zero subspaces, lines, planes and a repeated member, t <= 4, at n = 2
    up to degree 4: every step of the product and wedge, a linear ideal or
    the maximal ideal past t, multiplies the partial product before it."""
    _assert_oracles_match_references(arr, 2, 4)


@settings(max_examples=40, deadline=None)
@given(arr=mixed_arrangements(), n=st.integers(min_value=1, max_value=3))
def test_intersection_oracle_matches_span_nullspace_and_dense_references(arr, n):
    """The restriction-rank oracle equals the common nullspace of the
    factors' spans, every weight eliminated, and the dense count of
    vanishing conditions; a zero subspace contributes no condition above
    degree 0, and a repeated member none that is new."""
    inter = intersection_ideal_character(arr, 3)
    every = all_weights_intersection(arr, n, 3)
    for d in range(4):
        table = dominant_weights(inter, n, d)
        assert_dominant_table(table, every[d], d)
        assert_dominant_table(table, reference_intersection_weights(arr, n, d), d)


@settings(max_examples=20, deadline=None)
@given(arr=pooled_arrangements())
def test_wedge_renaming_keeps_the_sorting_sign(arr):
    """Planes of Q^3 up to degree 4, eliminated at n = 4 and read at n = 3:
    (2,2,0,0) is spanned from the basis of (2,1,0,0) renamed to (1,2,0,0),
    which swaps two variables of one W-index, so a renamed exterior
    monomial must change sign.  Below degree 4 no renaming reorders the
    variables of a monomial."""
    every = all_weights_span(arr, 3, 4, True)
    wedge = wedge_ideal_character(arr, 4)
    for d in range(5):
        table = dominant_weights(wedge, 3, d)
        assert_dominant_table(table, every[d], d)
        assert_dominant_table(table, reference_span_weights(arr, 3, d, True), d)


def test_weight_tables_are_symmetric():
    """Every key of a dominant weight table is a partition padded to length
    n, and the every-weight reference it stands for is S_n-symmetric."""
    lines = generic_lines()
    cases = (
        (product_ideal_character(lines, 3), 3, all_weights_span(lines, 3, 3, False)),
        (wedge_ideal_character(lines, 3), 3, all_weights_span(lines, 3, 3, True)),
        (intersection_ideal_character(axes(3), 3), 2, all_weights_intersection(axes(3), 2, 3)),
    )
    for series, n, every in cases:
        for d in range(series.degree + 1):
            table = dominant_weights(series, n, d)
            for w in table:
                assert len(w) == n and list(w) == sorted(w, reverse=True), (d, w)
            assert symmetric_orbit_ok(every[d], n), d
            assert_dominant_table(table, every[d], d)


def _outcome(peel, *args):
    try:
        return peel(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dominant_and_every_weight_peels_agree(data):
    """A series of drawn Schur coefficients derives the dominant table that
    tableau counting gives; ``character_to_schur`` and
    ``from_weight_multiplicities`` on that table's orbit expansion give the
    same series for a nonnegative combination and the same error, naming
    the partition, for a negative coefficient; the second alone refuses
    n < d, and the dimension is the size of the expanded table."""
    n = data.draw(st.integers(min_value=1, max_value=5), label="n")
    d = data.draw(st.integers(min_value=0, max_value=6), label="d")
    shapes = partitions_of(d, max_parts=n)
    drawn = data.draw(
        st.dictionaries(st.sampled_from(shapes), st.integers(min_value=-2, max_value=3)),
        label="coeffs",
    )
    coeffs = {lam: drawn[lam] for lam in shapes if drawn.get(lam)}  # peel order
    dominant = {}
    for mu in shapes:
        dim = sum(c * ssyt_count(lam, mu) for lam, c in coeffs.items())
        if dim:
            dominant[mu + (0,) * (n - len(mu))] = dim
    series = SchurSeries(coeffs, degree=d)
    assert dominant_weights(series, n, d) == dominant
    every = orbit_expanded(dominant)
    negative = [lam for lam in shapes if coeffs.get(lam, 0) < 0]
    expected = SchurSeries(coeffs, degree=d)
    if negative:
        lam = negative[0]
        expected = f"not a polynomial character: coefficient {coeffs[lam]} at partition {lam}"
    assert _outcome(character_to_schur, series, d) == expected
    if n < d:
        expected = f"need n >= d for a faithful expansion, got n={n}, d={d}"
    assert _outcome(from_weight_multiplicities, every, d, n) == expected
    assert series.dimension(n, d) == sum(every.values())


def test_dimension_cross_check():
    char = product_ideal_character(plane_and_normal_line(), 3)
    for d in (2, 3):
        schur = character_to_schur(char, d)
        assert char.dimension(3, d) == sum(
            c * _weyl(lam, 3) for lam, c in schur.coeffs.items()
        )


def _weyl(lam, n):
    from equisyz.partitions import weyl_dimension

    return weyl_dimension(lam, n)


def test_each_oracle_logs_its_counts_per_degree(caplog):
    """One INFO line per oracle and degree, counting the dominant weights at
    the dim V the oracle works out: at m = 3 and degree 4 the product and
    intersection oracles eliminate at n = 3 the four partitions of 4 with
    at most 3 parts, and the wedge at n = 4 all five.  Below t the lines
    count the partial products, which are not reported, and nothing is
    eliminated when no degree is."""
    caplog.set_level(logging.INFO, logger="equisyz.oracle")
    prod = product_ideal_character(axes(3), 4)
    wedge_ideal_character(axes(3), 4)
    intersection_ideal_character(axes(3), 4)
    lines = [r.getMessage() for r in caplog.records if r.name == "equisyz.oracle"]
    assert len(lines) == 15
    assert lines[0] == (
        "product oracle degree 0: 0 dominant weights eliminated, 0 rows offered, 0 kept"
    )
    # J_1 J_2 for the first two axes: 4 monomials of weight (2,0,0) and 7 of
    # weight (1,1,0), from 2 forms times 2 rows at each of 3 V-index steps
    assert lines[2] == (
        "product oracle degree 2: 2 dominant weights eliminated, 12 rows offered, 11 kept"
    )
    kept = sum(dominant_weights(prod, 3, 4).values())
    assert lines[4].startswith("product oracle degree 4: 4 dominant weights eliminated, ")
    assert lines[4].endswith(f" rows offered, {kept} kept")
    assert lines[9].startswith("wedge oracle degree 4: 5 dominant weights eliminated, ")
    assert lines[14].startswith("intersection oracle degree 4: 4 dominant weights eliminated, ")
    caplog.clear()
    product_ideal_character(axes(3), 2)
    wedge_ideal_character(axes(3), 2)
    assert [r.getMessage().split(": ")[1] for r in caplog.records] == [
        "0 dominant weights eliminated, 0 rows offered, 0 kept"
    ] * 6


def test_determinism():
    a = product_ideal_character(generic_lines(), 3)
    b = product_ideal_character(generic_lines(), 3)
    assert a == b
    assert a != product_ideal_character(generic_lines(), 2)


def test_min_degree():
    char = wedge_ideal_character(axes(3), 3)
    assert char.min_degree() == 3
    empty = product_ideal_character(axes(3), 2)
    assert empty.min_degree() is None


# -- caps ------------------------------------------------------------------


@pytest.mark.parametrize("oracle", [
    product_ideal_character, intersection_ideal_character, wedge_ideal_character
])
def test_oracles_take_int_sizes(oracle):
    """A float, bool, negative or missing degree is a ValueError, not a
    TypeError deep in the spanning or a wrong message about dim V."""
    for d in (2.0, True, -1, None):
        with pytest.raises(ValueError, match="maximum degree must be nonnegative and an int"):
            oracle(axes(2), d)


def test_caps_rejected_with_named_size():
    """Each oracle refuses an ambient dimension or a degree past its cap,
    by name.  Only m and d are capped: at the degree cap the wedge runs at
    dim V = 4, and five factors run at a degree below five."""
    for oracle in (product_ideal_character, intersection_ideal_character, wedge_ideal_character):
        with pytest.raises(SizeCapError, match="^ambient dimension m = 3 exceeds the oracle cap 2 "):
            oracle(axes(3), 3, caps=OracleCaps(ambient_dim=2))
        with pytest.raises(SizeCapError, match="^maximum degree = 5 exceeds the oracle cap 4 "):
            oracle(axes(2), 5)
        assert oracle(axes(2), 4).min_degree() == 2
    # the product and wedge span nothing below t; the intersection is the maximal ideal
    assert product_ideal_character(origin_copies(5), 4).min_degree() is None
    assert wedge_ideal_character(origin_copies(5), 4).min_degree() is None
    assert intersection_ideal_character(origin_copies(5), 4).min_degree() == 1


def test_caps_can_be_raised():
    caps = OracleCaps(degree=5)
    for oracle in (product_ideal_character, wedge_ideal_character):
        char = oracle(axes(2), 5, caps=caps)
        assert char.dimension(5, 2) == 25  # x V times y V


def test_default_caps_values():
    assert DEFAULT_CAPS == OracleCaps(4, 4)
    assert OracleCaps._fields == ("ambient_dim", "degree")
    assert hash(DEFAULT_CAPS) == hash(OracleCaps(4, 4))
    assert DEFAULT_CAPS != OracleCaps(degree=5)
