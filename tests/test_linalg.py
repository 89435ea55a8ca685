import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisyz import cli, linalg
from equisyz.linalg import Subspace, _integer_row, intersect, row_reduce

from helpers import _nullspace


def F(x):
    return Fraction(x)


def refuse_row_reduce(rows):
    raise AssertionError("row_reduce called")


def full(m):
    return Subspace(m, [[int(i == j) for j in range(m)] for i in range(m)])


# -- row reduction ----------------------------------------------------------


def test_rref_identity():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rref, rank = row_reduce(eye)
    assert rank == 3
    assert rref == tuple(tuple(map(F, row)) for row in eye)


def test_rref_zero_matrix():
    rref, rank = row_reduce([[0, 0], [0, 0]])
    assert rank == 0
    assert all(not any(row) for row in rref)


def test_rref_dependent_rows():
    rref, rank = row_reduce([[1, 2], [2, 4]])
    assert rank == 1
    assert rref == ((F(1), F(2)), (F(0), F(0)))


def test_rref_rejects_ragged():
    with pytest.raises(ValueError):
        row_reduce([[1, 2], [1]])


def test_rref_with_fractions():
    rref, rank = row_reduce(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    )
    assert rank == 1
    assert rref[0] == (Fraction(1), Fraction(2, 3))


# -- subspace construction ----------------------------------------------------


def test_span_of_standard_basis_is_full():
    s = Subspace(2, [[1, 0], [0, 1]])
    assert s.dim == 2
    assert s == full(2)


def test_empty_span_is_zero():
    s = Subspace(3, [])
    assert s.dim == 0
    assert s == Subspace(3)


def test_dependent_vectors_span_a_line():
    s = Subspace(2, [[1, 1], [2, 2]])
    assert s.dim == 1
    assert s.basis == ((F(1), F(1)),)


def test_equality_is_span_equality():
    a = Subspace(3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace(3, [[1, 2, 1], [1, 0, -1]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Subspace(3, [[1, 1, 0]])
    assert Subspace(2, []) != Subspace(3, [])


def test_vector_length_validated():
    with pytest.raises(ValueError):
        Subspace(2, [[1, 0, 0]])


def test_constructor_canonicalises_input():
    assert Subspace(2, [[2, 0]]).basis == ((F(1), F(0)),)
    assert Subspace(2, ((F(2), F(0)),)) == Subspace(2, [[1, 0]])
    with pytest.raises(ValueError, match="differs from ambient dimension"):
        Subspace(2, [[1, 0], [1]])


def test_subspaces_never_row_reduce(monkeypatch):
    """Construction, normal rows and annihilators read the integer kernel
    alone, and the kernel stops reducing once it holds m rows."""
    kept = []
    reduce_into = linalg._reduce_into

    def counted(rows, row):
        independent = reduce_into(rows, row)
        kept.append(len(rows))
        return independent

    monkeypatch.setattr(linalg, "row_reduce", refuse_row_reduce)
    monkeypatch.setattr(linalg, "_reduce_into", counted)
    a = Subspace(3, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert kept == [1, 1, 2]  # the kernel keeps only independent rows
    assert a.basis == ((1, 0, 1), (0, 1, 1))
    assert a.normal_rows() == [{0: 1, 1: 1, 2: -1}]
    assert a.annihilator() == Subspace(3, [[1, 1, -1]])
    # more than m vectors: the fifth is never reduced, and at most m rows are kept
    kept.clear()
    tall = Subspace(2, [[1, 2], [2, 4], [3, 6], [0, 1], ["1/2", 5]])
    assert kept == [1, 1, 1, 2]
    assert tall == Subspace(2, [[1, 0], [0, 1]])


def test_no_function_in_src_calls_row_reduce(monkeypatch):
    """``row_reduce`` is only the tests' reference: subspaces, intersections
    and whole jobs run with it raising."""
    for name in ("_spanning_rows", "_nullspace", "_pivot_columns"):
        assert not hasattr(linalg, name)
    monkeypatch.setattr(linalg, "row_reduce", refuse_row_reduce)
    plane = Subspace(3, [[0, 1, "1/2"], [0, 0, 0], [1, 1, 1], [2, 3, "5/2"]])
    line = Subspace(3, [[1, "-1/3", 0]])
    assert intersect([plane, line]).dim == 0
    assert plane.contains([1, 0, "1/2"]) and plane.annihilator().dim == 1
    golden = Path(__file__).resolve().parent / "golden"
    product = cli.JobConfig(
        cli.parse_arrangement(json.loads((golden / "redundant_spanning.json").read_text())),
        max_degree=4, oracle_degree=4, dim_v=4,
    )
    report = cli.run_job(product)
    assert report["status"] == "ok" and all(report["validations"].values())
    intersection = cli.JobConfig(
        cli.parse_arrangement(json.loads((golden / "line_and_three_planes.json").read_text())),
        max_degree=4, ideal="intersection", dim_v=4,
    )
    assert cli.run_job(intersection)["status"] == "ok"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_spanning_set_has_the_rref_basis(data):
    m = data.draw(st.integers(min_value=1, max_value=5))
    entry = st.sampled_from([0, 1, -1, 2, F("1/2"), F("-2/3"), "3/2"])
    rows = data.draw(
        st.lists(st.lists(entry, min_size=m, max_size=m), min_size=0, max_size=3 * m)
    )
    rref, rank = row_reduce(rows)
    assert Subspace(m, rows).basis == rref[:rank]


@st.composite
def spanning_sets(draw):
    """m and vectors of Q^m: "p/q" strings, zero vectors, more vectors than
    m, a dependent combination, and at times the later pivots first."""
    m = draw(st.integers(min_value=1, max_value=5))
    entry = st.sampled_from([0, 0, 1, -1, 2, -3, "1/2", "-2/3", "5/3", F("3/4")])
    vec = st.lists(entry, min_size=m, max_size=m)
    vectors = draw(st.lists(st.one_of(vec, st.just([0] * m)), max_size=2 * m + 2))
    if len(vectors) >= 2 and draw(st.booleans()):
        c = draw(st.sampled_from([F(1), F(-2), F("1/3")]))
        vectors.append([c * F(x) + F(y) for x, y in zip(vectors[0], vectors[1])])
    if draw(st.booleans()):
        vectors.sort(key=lambda v: -next((j for j, x in enumerate(v) if F(x)), m))
    return m, vectors


@settings(max_examples=200, deadline=None)
@given(spanning_sets())
def test_normal_rows_and_annihilator_match_the_fraction_reference(case):
    m, vectors = case
    rref, rank = row_reduce(vectors)
    s = Subspace(m, vectors)
    assert s.basis == rref[:rank]
    nullspace = _nullspace(rref[:rank], m)
    scaled = []
    for v in nullspace:
        den = math.lcm(*(x.denominator for x in v))
        scaled.append([int(x * den) for x in v])
    assert s.normal_rows() == [_integer_row(v) for v in scaled]
    ann, ann_rank = row_reduce(nullspace)
    assert s.annihilator().basis == ann[:ann_rank]


@pytest.mark.parametrize("entry", [
    0.1, 2.0, True, "1e3", "0.5", " 1", "1_0", "1/0", None, [1],
    pytest.param("9" * 5000, id="5000-digit numerator"),
    pytest.param("1/" + "9" * 5000, id="5000-digit denominator"),
])
def test_subspace_reads_entries_as_the_cli_does(entry):
    """The library and the CLI read one entry grammar: a non-bool int, a
    Fraction or a "p/q" string.  A float was stored as its binary value,
    True read as 1 and "1e3" as 1000, and more digits than int() converts
    (4300 by default) raised Python's own "Exceeds the limit" text."""
    with pytest.raises(ValueError, match="is not a rational number"):
        Subspace(2, [[entry, 1]])
    assert Subspace(2, [[Fraction(-3, 6), "+02/04"]]) == Subspace(2, [[-1, 1]])


def test_invalid_entry_past_full_rank_is_rejected():
    # the kernel stops reducing at rank m, but every entry is still read
    with pytest.raises(ValueError):
        Subspace(2, [[1, 0], [0, 1], ["x", 0]])


@pytest.mark.parametrize(
    "size, vectors", [(2.0, [[1, 0]]), (True, [[1]]), (2.5, [])]
)
def test_ambient_dimension_must_be_a_positive_int(size, vectors):
    """2.0 raised a TypeError, and True and 2.5 were accepted."""
    with pytest.raises(ValueError, match="ambient dimension must be a positive int"):
        Subspace(size, vectors)


def test_contains():
    s = Subspace(3, [[1, 1, 0]])
    assert s.contains([2, 2, 0])
    assert not s.contains([1, 0, 0])
    with pytest.raises(ValueError, match="differs from ambient dimension"):
        s.contains([1, 1])


# -- annihilators ------------------------------------------------------------


def test_annihilator_of_x_axis():
    s = Subspace(2, [[1, 0]])
    assert s.annihilator() == Subspace(2, [[0, 1]])


def test_annihilator_of_origin_in_k1():
    assert Subspace(1).annihilator() == Subspace(1, [[1]])


def test_annihilator_of_full_space():
    assert full(3).annihilator() == Subspace(3)


def test_double_annihilator_random():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 6)
        k = rng.randint(0, m)
        vecs = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
        s = Subspace(m, vecs)
        assert s.annihilator().annihilator() == s
        assert s.annihilator().dim == m - s.dim


def test_normal_rows_are_a_primitive_basis_of_the_annihilator():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 6)
        k = rng.randint(0, m)
        vecs = [[F(rng.randint(-3, 3)) / rng.randint(1, 3) for _ in range(m)] for _ in range(k)]
        s = Subspace(m, vecs)
        rows = s.normal_rows()
        assert len(rows) == m - s.dim
        for row in rows:
            assert all(type(c) is int for c in row.values())
            assert math.gcd(*row.values()) == 1 and row[min(row)] > 0
        dense = [[row.get(j, 0) for j in range(m)] for row in rows]
        assert Subspace(m, dense) == Subspace(m, _nullspace(s.basis, m))


# -- intersections ----------------------------------------------------------


def test_axes_intersect_in_origin():
    x = Subspace(2, [[1, 0]])
    y = Subspace(2, [[0, 1]])
    assert intersect([x, y]) == Subspace(2)


def test_plane_meets_normal_line_in_origin():
    plane = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    line = Subspace(3, [[0, 0, 1]])
    assert intersect([plane, line]) == Subspace(3)


def test_intersection_idempotent():
    v = Subspace(3, [[1, 2, 3], [0, 1, 1]])
    assert intersect([v, v]) == v
    assert intersect([v]) is v


def test_intersect_needs_matching_ambient():
    with pytest.raises(ValueError):
        intersect([full(2), full(3)])
    with pytest.raises(ValueError):
        intersect([])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_dimension_formula(data):
    m = data.draw(st.integers(min_value=1, max_value=6))
    vec = st.lists(st.integers(min_value=-3, max_value=3), min_size=m, max_size=m)
    a = Subspace(m, data.draw(st.lists(vec, max_size=m)))
    b = Subspace(m, data.draw(st.lists(vec, max_size=m)))
    joint = Subspace(m, list(a.basis) + list(b.basis))
    meet = intersect([a, b])
    assert meet.dim + joint.dim == a.dim + b.dim


def test_intersect_order_independent():
    rng = random.Random(11)
    for _ in range(20):
        m = rng.randint(2, 5)
        subs = []
        for _ in range(3):
            vecs = [
                [rng.randint(-2, 2) for _ in range(m)]
                for _ in range(rng.randint(0, m))
            ]
            subs.append(Subspace(m, vecs))
        expected = intersect(subs)
        shuffled = subs[:]
        rng.shuffle(shuffled)
        assert intersect(shuffled) == expected
        assert intersect([subs[0], intersect(subs[1:])]) == expected
