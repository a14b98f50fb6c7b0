"""Cross-checks between the constructive classifier and the exhaustive
double-coset search.  The search enumerates truncated Iwahori witnesses
directly, so agreement here validates the elementary-matrix reduction on an
entirely different code path."""

import random

import pytest

from gl2kisin.errors import ConfigError
from gl2kisin.fields import GF
from gl2kisin.kisin import shape_of
from gl2kisin.laurent import Laurent
from gl2kisin.matrices import Mat2, monomial_matrix
from gl2kisin.oracles import coset_certify, random_truncated_invertible

F2 = GF(2)


def test_agreement_on_random_matrices():
    # (field, matrices, how many of them are also certified at v^-k M)
    for field, trials, shifted in ((F2, 200, 20), (GF(3), 100, 10), (GF(2, 2), 50, 5)):
        rng = random.Random(99)
        for i in range(trials):
            M = random_truncated_invertible(field, rng)
            s, nu = shape_of(M).component()
            assert coset_certify(M, (s, nu)), (field, i)
            if i >= shifted:
                continue
            # v^-k M has negative valuations, and nu moves by (-k, -k)
            for k in (1, 2, 3):
                N = M.scale(Laurent.monomial(field, 1, -k))
                comp = shape_of(N).component()
                assert comp == (s, (nu[0] - k, nu[1] - k)), (field, i, k)
                assert coset_certify(N, comp), (field, i, k)


def test_rejects_wrong_component():
    rng = random.Random(100)
    rejected = 0
    for _ in range(40):
        M = random_truncated_invertible(F2, rng)
        s, nu = shape_of(M).component()
        # same determinant valuation, other permutation class
        assert not coset_certify(M, (1 - s, nu))
        rejected += 1
        if nu[0] != nu[1]:
            assert not coset_certify(M, (s, (nu[1], nu[0])))
            rejected += 1
    assert rejected >= 40


def test_monomials_certify_directly():
    for s in (0, 1):
        for nu in ((2, 1), (1, 2), (0, 3)):
            M = monomial_matrix(F2, s, nu)
            assert coset_certify(M, (s, nu))
            assert not coset_certify(M, (1 - s, nu))


def test_det_valuation_gate():
    M = monomial_matrix(F2, 0, (2, 1))
    # component with the wrong total exponent is refused without searching
    assert not coset_certify(M, (0, (1, 1)))


def test_singular_input():
    col = Laurent.monomial(F2, 1, 1)
    with pytest.raises(ConfigError):
        coset_certify(Mat2(F2, col, col, col, col), (0, (1, 1)))


def test_precision_too_low():
    M = monomial_matrix(F2, 0, (2, 2))
    with pytest.raises(ConfigError):
        coset_certify(M, (0, (2, 2)), prec=4)  # needs prec >= 5


def test_random_generator_contract():
    rng = random.Random(101)
    for _ in range(50):
        M = random_truncated_invertible(F2, rng, prec=4, max_det_val=3)
        det = M.det()
        assert det
        assert det.valuation() <= 3
        assert all(min(e.terms) >= 0 for e in M.entries() if e)
        assert all(e.degree() < 4 for e in M.entries() if e)


def test_agreement_over_f3():
    # a slower field, fewer trials: the oracle is field-generic
    F3 = GF(3)
    rng = random.Random(102)
    for _ in range(8):
        M = random_truncated_invertible(F3, rng, prec=3, max_det_val=2)
        comp = shape_of(M).component()
        assert coset_certify(M, comp, prec=3)
