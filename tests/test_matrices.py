import random

import pytest

from gl2kisin.errors import ConfigError
from gl2kisin.fields import GF
from gl2kisin.laurent import Laurent
from gl2kisin.matrices import Mat2, monomial_matrix

F = GF(31)


def rand_mat(field, rng, lo=-3, hi=5, terms=4):
    def entry():
        return Laurent.from_pairs(
            field, [(rng.randrange(lo, hi), field.random(rng)) for _ in range(terms)]
        )

    return Mat2(field, entry(), entry(), entry(), entry())


def test_ring_identities():
    rng = random.Random(5)
    I = Mat2.identity(F)
    for _ in range(25):
        A, B, C = rand_mat(F, rng), rand_mat(F, rng), rand_mat(F, rng)
        assert (A * B) * C == A * (B * C)
        assert A * (B + C) == A * B + A * C
        assert A * I == A
        assert I * A == A
        assert A - A == Mat2.zero(F)
        assert -(-A) == A


def test_det_multiplicative():
    rng = random.Random(6)
    for _ in range(25):
        A, B = rand_mat(F, rng), rand_mat(F, rng)
        assert (A * B).det() == A.det() * B.det()
        # det is symmetric under transposition
        assert Mat2(F, A.a11, A.a21, A.a12, A.a22).det() == A.det()


def test_elementary():
    c = Laurent.monomial(F, 4, 2)
    E = Mat2.elementary(F, 1, 2, c)
    assert E.a11 == 1 and E.a22 == 1 and E.a12 == c and E.a21.is_zero()
    assert E.det() == Laurent.const(F, 1)
    # left multiplication by E adds c*(row 2) to row 1
    rng = random.Random(8)
    A = rand_mat(F, rng)
    EA = E * A
    assert EA.a11 == A.a11 + c * A.a21
    assert EA.a21 == A.a21
    with pytest.raises(ConfigError):
        Mat2.elementary(F, 1, 1, c)


def test_diagonal_and_from_rows():
    d = Mat2.diagonal(F, Laurent.const(F, 2), Laurent.monomial(F, 1, 3))
    assert d.a12.is_zero() and d.a21.is_zero()
    # the constructor takes the entries row by row
    m = Mat2(F, Laurent.const(F, 1), Laurent.zero(F), Laurent.const(F, 2), Laurent.monomial(F, 1, 1))
    assert m.a11 == Laurent.const(F, 1)
    assert m.a12.is_zero()
    assert m.a21 == Laurent.const(F, 2)
    assert m.a22 == Laurent.monomial(F, 1, 1)


def test_min_valuation_and_truncate():
    A = Mat2(
        F,
        Laurent.monomial(F, 1, -2),
        Laurent.zero(F),
        Laurent.monomial(F, 3, 4),
        Laurent.const(F, 1),
    )
    T = A.truncate(1)
    # truncation keeps every term below the precision, so the least
    # valuation of the entries is unchanged
    assert min(e.valuation() for e in T.entries()) == -2
    assert T.a21.is_zero()
    assert T.a11 == A.a11


def test_monomial_matrix():
    M0 = monomial_matrix(F, 0, (2, 1))
    assert M0.a11 == Laurent.monomial(F, 1, 2)
    assert M0.a22 == Laurent.monomial(F, 1, 1)
    assert M0.a12.is_zero() and M0.a21.is_zero()
    M1 = monomial_matrix(F, 1, (2, 1))
    assert M1.a21 == Laurent.monomial(F, 1, 2)
    assert M1.a12 == Laurent.monomial(F, 1, 1)
    assert M1.a11.is_zero() and M1.a22.is_zero()
    # dets: v^(n1+n2) up to the sign of the swap
    assert M0.det() == Laurent.monomial(F, 1, 3)
    assert M1.det() == Laurent.monomial(F, -1, 3)


def test_monomial_matrix_composition():
    # s t_nu . s' t_nu' multiplies like the group law on (s, nu) pairs
    M = monomial_matrix(F, 1, (3, 1)) * monomial_matrix(F, 1, (2, 5))
    assert M == monomial_matrix(F, 0, (1 + 2, 3 + 5))
    M = monomial_matrix(F, 0, (3, 1)) * monomial_matrix(F, 1, (2, 5))
    assert M == monomial_matrix(F, 1, (2 + 1, 5 + 3))
