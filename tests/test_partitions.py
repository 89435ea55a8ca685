from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisyz.partitions import (
    conjugate,
    kostka_number,
    lr_coefficient,
    orbit,
    partitions_of,
    weyl_dimension,
)

from helpers import dominates, is_horizontal_strip, schur_product_coefficients, ssyt_count


def all_partitions_up_to(n):
    for d in range(n + 1):
        yield from partitions_of(d)


# -- conjugation -------------------------------------------------------------


@pytest.mark.parametrize(
    "lam, expected",
    [
        ((2, 1), (2, 1)),
        ((3, 1), (2, 1, 1)),
        ((1, 1, 1, 1), (4,)),
        ((), ()),
        ((5,), (1, 1, 1, 1, 1)),
    ],
)
def test_conjugate_examples(lam, expected):
    assert conjugate(lam) == expected


def test_conjugate_involution_exhaustive():
    for lam in all_partitions_up_to(12):
        conj = conjugate(lam)
        assert sum(conj) == sum(lam)
        assert conjugate(conj) == lam


# -- enumeration -------------------------------------------------------------


def test_partitions_of_examples():
    assert partitions_of(0) == [()]
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert partitions_of(4, max_parts=2) == [(4,), (3, 1), (2, 2)]


def test_partitions_of_order_is_graded_revlex():
    """The canonical order of every serialized coefficient list: graded,
    then reverse-lex, so (d) comes first and (1,)*d last."""
    for d in range(9):
        listed = partitions_of(d)
        assert listed == sorted(listed, key=lambda lam: (sum(lam), [-p for p in lam]))
        assert len(set(listed)) == len(listed)


def test_partitions_of_rejects_negative():
    with pytest.raises(ValueError):
        partitions_of(-1)


@pytest.mark.parametrize("args", [(2.0,), (True,), (3, 1.5), (2, True)])
def test_partitions_of_checks_its_arguments_after_an_equal_key_is_cached(args):
    """2.0 == 2 and True == 1 as cache keys: partitions_of(2.0) answered
    from the entry of 2 once that existed, partitions_of(True) gave [(1,)],
    and 1.5 parts admitted (1, 1, 1)."""
    assert partitions_of(2) == [(2,), (1, 1)]
    assert partitions_of(3, 1) == [(3,)]
    assert partitions_of(1) == [(1,)]
    with pytest.raises(ValueError):
        partitions_of(*args)


# -- Littlewood-Richardson ---------------------------------------------------


def test_lr_examples():
    assert lr_coefficient((2,), (1,), (1,)) == 1
    # frozen from the independent weight-table oracle (see below)
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_coefficient((2, 2), (1,), (2,)) == 0


def test_lr_against_independent_weight_oracle():
    pairs = [
        ((2, 1), (2, 1)),
        ((2,), (2, 1)),
        ((1, 1), (2, 2)),
        ((3,), (1, 1, 1)),
        ((2, 2), (2,)),
    ]
    for mu, nu in pairs:
        expected = schur_product_coefficients(mu, nu)
        d = sum(mu) + sum(nu)
        computed = {
            lam: lr_coefficient(lam, mu, nu)
            for lam in partitions_of(d)
            if lr_coefficient(lam, mu, nu)
        }
        assert computed == expected, (mu, nu)


def test_lr_size_mismatch_is_zero():
    assert lr_coefficient((3,), (1,), (1,)) == 0
    assert lr_coefficient((2, 1), (2, 1), (1,)) == 0


def test_lr_symmetry_and_conjugation_exhaustive():
    """c^lam_{mu,nu} = c^lam_{nu,mu} = c^{lam'}_{mu',nu'} for |lam| <= 8."""
    for k in range(9):
        for lam in partitions_of(k):
            lam_c = conjugate(lam)
            for j in range(k + 1):
                for mu in partitions_of(j):
                    for nu in partitions_of(k - j):
                        c = lr_coefficient(lam, mu, nu)
                        assert c == lr_coefficient(lam, nu, mu)
                        assert c == lr_coefficient(
                            lam_c, conjugate(mu), conjugate(nu)
                        )


def test_lr_dimension_consistency():
    """dim(S_mu) dim(S_nu) = sum over lam of c * dim(S_lam), n <= 4."""
    for n in range(1, 5):
        for dmu in range(4):
            for dnu in range(4):
                if dmu + dnu > 6 or dmu + dnu == 0:
                    continue
                for mu in partitions_of(dmu):
                    for nu in partitions_of(dnu):
                        lhs = weyl_dimension(mu, n) * weyl_dimension(nu, n)
                        rhs = sum(
                            lr_coefficient(lam, mu, nu) * weyl_dimension(lam, n)
                            for lam in partitions_of(dmu + dnu)
                        )
                        assert lhs == rhs, (mu, nu, n)


def test_pieri_rule():
    """Multiplying by s_(k) adds a horizontal strip, multiplicity one."""
    for dmu in range(5):
        for mu in partitions_of(dmu):
            for k in range(1, 4):
                for lam in partitions_of(dmu + k):
                    c = lr_coefficient(lam, mu, (k,))
                    assert c in (0, 1)
                    assert (c == 1) == is_horizontal_strip(lam, mu, k), (lam, mu, k)


# -- Kostka numbers ----------------------------------------------------------


def test_kostka_examples():
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((2,), (2,)) == 1
    assert kostka_number((1, 1), (2,)) == 0


def test_kostka_against_independent_counter():
    for d in range(6):
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                assert kostka_number(lam, mu) == ssyt_count(lam, mu), (lam, mu)


def test_kostka_diagonal_and_dominance():
    for d in range(7):
        for lam in partitions_of(d):
            assert kostka_number(lam, lam) == 1
            for mu in partitions_of(d):
                positive = kostka_number(lam, mu) > 0
                assert positive == dominates(lam, mu), (lam, mu)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kostka_content_permutation_invariance(data):
    """|lam| <= 8, the content padded with at least one zero and put in any
    order: the same number as for the partition, and the independent
    filler's count."""
    d = data.draw(st.integers(min_value=0, max_value=8))
    lam = data.draw(st.sampled_from(partitions_of(d)))
    mu = data.draw(st.sampled_from(partitions_of(d)))
    padded = mu + (0,) * (d + 1 - len(mu))
    perm = tuple(data.draw(st.permutations(padded)))
    assert kostka_number(lam, perm) == kostka_number(lam, mu) == ssyt_count(lam, perm)


# The odd entry sits between two 4s, so the content is in neither sorted
# order and no other call caches a key equal to it (True == 1.0 == 1).
@pytest.mark.parametrize(
    "content",
    [(4, True, 4), (4, 1.0, 4), (4, "1", 4), (4, Fraction(1, 2), 4.5), (5, -1, 5)],
)
def test_kostka_rejects_content_that_is_not_nonnegative_integers(content):
    with pytest.raises(ValueError, match="nonnegative integers"):
        kostka_number((5, 4), content)


@pytest.mark.parametrize("warm, content", [((2,), (2.0,)), ((1, 1), (True, True))])
def test_kostka_checks_content_after_an_equal_key_is_cached(warm, content):
    """(2.0,) == (2,) and (True, True) == (1, 1) as cache keys, so the
    content must be checked before the cache is asked."""
    assert kostka_number((2,), warm) == 1
    with pytest.raises(ValueError, match="nonnegative integers"):
        kostka_number((2,), content)


@pytest.mark.parametrize("args", [((2.0,), (1,), (1,)), ((2,), (True,), (1,))])
def test_lr_checks_partitions_after_an_equal_key_is_cached(args):
    """(2.0,) == (2,) and (True,) == (1,) as cache keys, so every partition
    must be checked before the cache is asked."""
    assert lr_coefficient((2,), (1,), (1,)) == 1
    with pytest.raises(ValueError, match="not a partition"):
        lr_coefficient(*args)


def test_kostka_drops_zeros_before_it_recurses():
    assert kostka_number((2, 1), (0,) * 500 + (1, 2)) == 1
    assert kostka_number((3, 1), (0,) * 500 + (1, 1, 0, 2)) == 2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), max_size=7))
def test_orbit_lists_each_distinct_permutation_once(w):
    got = list(orbit(tuple(w)))
    assert len(got) == len(set(got))
    assert set(got) == set(permutations(w))


# -- Weyl dimensions ---------------------------------------------------------


def test_weyl_dimension_examples():
    assert weyl_dimension((1,), 3) == 3
    assert weyl_dimension((2, 1), 3) == 8
    assert weyl_dimension((1, 1, 1), 2) == 0


def test_weyl_dimension_counts_ssyt():
    """dim equals the number of fillings with entries bounded by n."""
    for n in range(1, 4):
        for d in range(5):
            for lam in partitions_of(d):
                total = sum(
                    ssyt_count(lam, w)
                    for w in _compositions(d, n)
                )
                assert weyl_dimension(lam, n) == total, (lam, n)


def _compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    return [
        (first,) + rest
        for first in range(total, -1, -1)
        for rest in _compositions(total - first, parts - 1)
    ]


def test_weyl_dimension_rejects_bad_n():
    with pytest.raises(ValueError, match="n must be positive"):
        weyl_dimension((1,), 0)
    # 2.5 gave 4.0 and True gave 1
    for n in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="n must be positive and an int"):
            weyl_dimension((2,), n)
