import pytest

from equisyz.arrangements import MAX_DEGREE, Arrangement, hilbert_product
from equisyz.betti import (
    BettiTable,
    GenerationDegreeError,
    LinearityError,
    betti_from_series,
    regularity,
    series_from_betti,
    transpose_table,
)
from equisyz.linalg import Subspace
from equisyz.schur import SchurSeries, sigma

from helpers import axes, origin_copies, plane_and_normal_line


def table_columns(table):
    return [dict(col.coeffs) for col in table.columns]


# -- extraction: the worked resolutions --------------------------------------


def test_koszul_columns():
    table = betti_from_series(sigma(5) - 1, 1, 1)
    assert table.t == 1
    assert table.max_index == 4
    for i, col in enumerate(table.columns):
        assert col.coeffs == {(1,) * (i + 1): 1}
    assert regularity(table) == 1


def test_squared_maximal_ideal_columns():
    h = hilbert_product(origin_copies(2), 5)
    table = betti_from_series(h, 1, 2)
    for i, col in enumerate(table.columns):
        assert col.coeffs == {(2,) + (1,) * i: 1}


def test_two_axes_columns():
    h = (sigma(4) - 1) ** 2
    table = betti_from_series(h, 2, 2)
    assert table_columns(table) == [
        {(2,): 1, (1, 1): 1},
        {(2, 1): 2, (1, 1, 1): 2},
        {(2, 2): 1, (2, 1, 1): 3, (1, 1, 1, 1): 3},
    ]


def test_plane_and_line_columns():
    s = sigma(4)
    table = betti_from_series(s**3 - s**2 - s + 1, 3, 2)
    assert table_columns(table) == [
        {(2,): 2, (1, 1): 2},
        {(3,): 1, (2, 1): 6, (1, 1, 1): 5},
        {(3, 1): 3, (2, 2): 5, (2, 1, 1): 12, (1, 1, 1, 1): 9},
    ]


def test_three_axes_intersection_columns():
    s = sigma(4)
    table = betti_from_series(s**3 - 3 * s + 2, 3, 2)
    assert table_columns(table) == [
        {(2,): 3, (1, 1): 3},
        {(3,): 2, (2, 1): 10, (1, 1, 1): 8},
        {(3, 1): 6, (2, 2): 9, (2, 1, 1): 21, (1, 1, 1, 1): 15},
    ]


# -- validation errors ---------------------------------------------------------


def test_wrong_sign_raises_linearity_error():
    bad = sigma(3) * SchurSeries({(1,): 1, (2,): 1}, degree=3)
    with pytest.raises(LinearityError) as info:
        betti_from_series(bad, 1, 1)
    assert info.value.degree == 2
    assert info.value.partition == (2,)


def test_linearity_error_names_the_first_wrong_sign_in_canonical_order():
    """Two wrong-sign terms in degree 3, s[2,1] given before s[3]: the
    error names s[3], which comes first in the canonical order, whatever
    order the terms were given in."""
    bad = SchurSeries.from_pairs([((2,), 1), ((2, 1), 1), ((3,), 2)], degree=3)
    assert list(bad.coeffs) == [(2,), (3,), (2, 1)]
    with pytest.raises(LinearityError) as info:
        betti_from_series(bad, 0, 2)
    assert (info.value.degree, info.value.partition, info.value.coefficient) == (3, (3,), 2)


def test_low_degree_terms_raise_generation_error():
    with pytest.raises(GenerationDegreeError):
        betti_from_series(sigma(3), 1, 1)


def test_truncation_below_t_rejected():
    with pytest.raises(ValueError):
        betti_from_series(sigma(2) - 1, 1, 3)


def test_negative_ambient_dimension_rejected_by_extraction():
    # sigma^-(-1) would be a factor sigma, not sigma^-1
    with pytest.raises(ValueError, match="ambient dimension"):
        betti_from_series(sigma(3) - 1, -1, 1)


def test_negative_ambient_dimension_rejected_by_reconstruction():
    table = betti_from_series(sigma(3) - 1, 1, 1)
    with pytest.raises(ValueError, match="ambient dimension"):
        series_from_betti(table, -1)


# -- regularity ---------------------------------------------------------------


def test_regularity_of_worked_tables():
    assert regularity(betti_from_series(sigma(4) - 1, 1, 1)) == 1
    assert regularity(betti_from_series((sigma(4) - 1) ** 2, 2, 2)) == 2
    s = sigma(4)
    assert regularity(betti_from_series(s**3 - 3 * s + 2, 3, 2)) == 2


def test_regularity_needs_nonzero_table():
    empty = BettiTable(1, (SchurSeries({}, degree=3),))
    with pytest.raises(ValueError):
        regularity(empty)


def test_regularity_reads_degrees_not_t():
    # a custom table concentrated off the linear strand
    col0 = SchurSeries({(2,): 1}, degree=4)
    col1 = SchurSeries({(2, 2): 1}, degree=4)  # degree 4 = 1 + 3
    table = BettiTable(2, (col0,))
    assert regularity(table) == 2
    with pytest.raises(ValueError):
        BettiTable(2, (col0, col1))  # column 1 must sit in degree 3


SQUARE = sigma(4) ** 2 - 1  # the maximal ideal of K[W tensor V], dim W = 2

# A bool generation degree gave a table whose t and regularity were True,
# BettiTable took a float t, and a float size raised a TypeError.
BAD_SIZES = {
    "t=True": (lambda: betti_from_series(SQUARE, 2, True), "generation degree"),
    "t=1.0": (lambda: betti_from_series(SQUARE, 2, 1.0), "generation degree"),
    "m=True": (lambda: betti_from_series(SQUARE, True, 1), "ambient dimension"),
    "m=2.0": (lambda: betti_from_series(SQUARE, 2.0, 1), "ambient dimension"),
    "table t=True": (lambda: BettiTable(True, ()), "generation degree"),
    "table t=1.0": (lambda: BettiTable(1.0, ()), "generation degree"),
    "reconstruct m=True": (
        lambda: series_from_betti(betti_from_series(SQUARE, 2, 1), True), "ambient dimension"
    ),
    "reconstruct m=2.0": (
        lambda: series_from_betti(betti_from_series(SQUARE, 2, 1), 2.0), "ambient dimension"
    ),
}


@pytest.mark.parametrize("case", BAD_SIZES)
def test_sizes_must_be_nonnegative_ints(case):
    call, name = BAD_SIZES[case]
    with pytest.raises(ValueError, match=f"{name} must be nonnegative and an int"):
        call()
    assert series_from_betti(betti_from_series(SQUARE, 2, 1), 2) == SQUARE


# -- transpose ---------------------------------------------------------------


def test_transpose_koszul():
    table = transpose_table(betti_from_series(sigma(4) - 1, 1, 1))
    for i, col in enumerate(table.columns):
        assert col.coeffs == {(i + 1,): 1}


def test_transpose_two_axes_matches_printed_table():
    table = transpose_table(betti_from_series((sigma(4) - 1) ** 2, 2, 2))
    assert table_columns(table) == [
        {(2,): 1, (1, 1): 1},
        {(3,): 2, (2, 1): 2},
        {(4,): 3, (3, 1): 3, (2, 2): 1},
    ]


def test_transpose_is_an_involution():
    table = betti_from_series((sigma(4) - 1) ** 2, 2, 2)
    again = transpose_table(transpose_table(table))
    assert table_columns(again) == table_columns(table)
    assert again == table
    assert transpose_table(table) != table


def test_transpose_preserves_column_totals():
    s = sigma(4)
    table = betti_from_series(s**3 - s**2 - s + 1, 3, 2)
    flipped = transpose_table(table)
    for col, tcol in zip(table.columns, flipped.columns):
        assert sum(col.coeffs.values()) == sum(tcol.coeffs.values())


# -- reconstruction ---------------------------------------------------------


def test_series_roundtrips():
    s = sigma(4)
    for h, m, t in [
        (s - 1, 1, 1),
        ((s - 1) ** 2, 2, 2),
        (s**3 - s**2 - s + 1, 3, 2),
        (s**3 - 3 * s + 2, 3, 2),
    ]:
        table = betti_from_series(h, m, t)
        assert series_from_betti(table, m) == h


def test_roundtrip_at_the_degree_cap():
    """sigma^-m and sigma^m undo each other at D = MAX_DEGREE, on a point,
    a line, a plane and a 3-space of Q^4, each inside the next."""
    vectors = [[1, 2, -1, 2], [-2, 1, 1, -1], [1, -1, 3, 1]]
    arr = Arrangement(
        4, tuple(Subspace(4, vectors[:k]) for k in (3, 0, 2, 1))
    )
    h = hilbert_product(arr, MAX_DEGREE)
    table = betti_from_series(h, 4, 4)
    assert series_from_betti(table, 4) == h
    assert transpose_table(transpose_table(table)) == table


def test_roundtrip_for_every_product_series():
    for arr in (axes(2), axes(3), plane_and_normal_line(), origin_copies(3)):
        t = len(arr)
        h = hilbert_product(arr, t + 2)
        table = betti_from_series(h, arr.ambient_dim, t)
        assert series_from_betti(table, arr.ambient_dim) == h
        assert regularity(table) == t


# -- serialization -----------------------------------------------------------


def test_to_dict_shape():
    table = betti_from_series((sigma(3) - 1) ** 2, 2, 2)
    doc = table.to_dict()
    assert doc["t"] == 2
    assert [c["i"] for c in doc["columns"]] == [0, 1]
    assert doc["columns"][0] == {
        "i": 0,
        "degree": 2,
        "terms": [[[2], 1], [[1, 1], 1]],
    }


def test_column_invariants_enforced():
    with pytest.raises(ValueError):
        BettiTable(1, (SchurSeries({(2,): 1}, degree=3),))
    with pytest.raises(ValueError):
        BettiTable(1, (SchurSeries({(1,): -1}, degree=3),))
