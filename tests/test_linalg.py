import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisyz.linalg import Subspace, intersect, row_reduce


def F(x):
    return Fraction(x)


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
    s = Subspace.from_vectors([[1, 0], [0, 1]], 2)
    assert s.dim == 2
    assert s == Subspace.full(2)


def test_empty_span_is_zero():
    s = Subspace.from_vectors([], 3)
    assert s.dim == 0
    assert s == Subspace.zero(3)


def test_dependent_vectors_span_a_line():
    s = Subspace.from_vectors([[1, 1], [2, 2]], 2)
    assert s.dim == 1
    assert s.basis == ((F(1), F(1)),)


def test_equality_is_span_equality():
    a = Subspace.from_vectors([[1, 1, 0], [0, 1, 1]], 3)
    b = Subspace.from_vectors([[1, 2, 1], [1, 0, -1]], 3)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Subspace.from_vectors([[1, 1, 0]], 3)
    assert Subspace.from_vectors([], 2) != Subspace.from_vectors([], 3)


def test_vector_length_validated():
    with pytest.raises(ValueError):
        Subspace.from_vectors([[1, 0, 0]], 2)


def test_direct_construction_requires_rref():
    with pytest.raises(ValueError):
        Subspace(2, ((F(2), F(0)),))


def test_contains():
    s = Subspace.from_vectors([[1, 1, 0]], 3)
    assert s.contains([2, 2, 0])
    assert not s.contains([1, 0, 0])
    with pytest.raises(ValueError, match="differs from ambient dimension"):
        s.contains([1, 1])


# -- annihilators ------------------------------------------------------------


def test_annihilator_of_x_axis():
    s = Subspace.from_vectors([[1, 0]], 2)
    assert s.annihilator() == Subspace.from_vectors([[0, 1]], 2)


def test_annihilator_of_origin_in_k1():
    assert Subspace.zero(1).annihilator() == Subspace.from_vectors([[1]], 1)


def test_annihilator_of_full_space():
    assert Subspace.full(3).annihilator() == Subspace.zero(3)


def test_double_annihilator_random():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 6)
        k = rng.randint(0, m)
        vecs = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
        s = Subspace.from_vectors(vecs, m)
        assert s.annihilator().annihilator() == s
        assert s.annihilator().dim == m - s.dim


# -- intersections ----------------------------------------------------------


def test_axes_intersect_in_origin():
    x = Subspace.from_vectors([[1, 0]], 2)
    y = Subspace.from_vectors([[0, 1]], 2)
    assert intersect([x, y]) == Subspace.zero(2)


def test_plane_meets_normal_line_in_origin():
    plane = Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3)
    line = Subspace.from_vectors([[0, 0, 1]], 3)
    assert intersect([plane, line]) == Subspace.zero(3)


def test_intersection_idempotent():
    v = Subspace.from_vectors([[1, 2, 3], [0, 1, 1]], 3)
    assert intersect([v, v]) == v
    assert intersect([v]) is v


def test_intersect_needs_matching_ambient():
    with pytest.raises(ValueError):
        intersect([Subspace.full(2), Subspace.full(3)])
    with pytest.raises(ValueError):
        intersect([])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_dimension_formula(data):
    m = data.draw(st.integers(min_value=1, max_value=6))
    vec = st.lists(st.integers(min_value=-3, max_value=3), min_size=m, max_size=m)
    a = Subspace.from_vectors(data.draw(st.lists(vec, max_size=m)), m)
    b = Subspace.from_vectors(data.draw(st.lists(vec, max_size=m)), m)
    joint = Subspace.from_vectors(list(a.basis) + list(b.basis), m)
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
            subs.append(Subspace.from_vectors(vecs, m))
        expected = intersect(subs)
        shuffled = subs[:]
        rng.shuffle(shuffled)
        assert intersect(shuffled) == expected
        assert intersect([subs[0], intersect(subs[1:])]) == expected
