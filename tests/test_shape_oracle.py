"""Cross-checks between the constructive classifier and the exhaustive
double-coset search.  The search enumerates truncated Iwahori witnesses
directly, so agreement here validates the elementary-matrix reduction on an
entirely different code path."""

import itertools
import random

import pytest

from gl2kisin.errors import ConfigError, PreconditionError
from gl2kisin.fields import GF
from gl2kisin.kisin import shape_of
from gl2kisin.laurent import Laurent
from gl2kisin.matrices import Mat2, monomial_matrix
from gl2kisin.oracles import MAX_COSET_PAIRS, _series, coset_certify, random_truncated_invertible

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


# ---------------------------------------------------------------------------
# coset_certify twin: the search as it was written on Laurent objects, with
# both products of each candidate pair formed inside the inner loop


def _unit_polys_twin(field, prec):
    for const in range(1, field.order):
        for rest in itertools.product(range(field.order), repeat=prec - 1):
            coeffs = {d + 1: c for d, c in enumerate(rest)}
            coeffs[0] = const
            yield Laurent(field, coeffs)


def _polys_twin(field, prec, val_min=0):
    for coeffs in itertools.product(range(field.order), repeat=prec - val_min):
        yield Laurent(field, {val_min + i: c for i, c in enumerate(coeffs)})


def coset_certify_twin(M, component, prec=4):
    field = M.field
    q = field.order
    if (q - 1) * q ** min(2 * prec - 1, 64) > MAX_COSET_PAIRS:
        raise PreconditionError("coset search too large")
    s, nu = component
    det = M.det()
    if det.is_zero():
        raise ConfigError("coset certification needs an invertible matrix")
    if det.valuation() != nu[0] + nu[1]:
        return False
    if prec < nu[0] + nu[1] + 1:
        raise ConfigError("truncation too low")
    r1 = (M.a11, M.a12)
    r2 = (M.a21, M.a22)
    if s == 0:
        cond1 = lambda c0, c1: c0.valuation() == nu[0] and c1.valuation() >= nu[0]
        cond2 = lambda c0, c1: c0.valuation() >= nu[1] + 1 and c1.valuation() == nu[1]
    else:
        cond1 = lambda c0, c1: c0.valuation() >= nu[1] + 1 and c1.valuation() == nu[1]
        cond2 = lambda c0, c1: c0.valuation() == nu[0] and c1.valuation() >= nu[0]
    found1 = False
    for u22 in _unit_polys_twin(field, prec):
        for u12 in _polys_twin(field, prec):
            if cond1(u22 * r1[0] - u12 * r2[0], u22 * r1[1] - u12 * r2[1]):
                found1 = True
                break
        if found1:
            break
    if not found1:
        return False
    for u11 in _unit_polys_twin(field, prec):
        for u21 in _polys_twin(field, prec, val_min=1):
            if cond2(u11 * r2[0] - u21 * r1[0], u11 * r2[1] - u21 * r1[1]):
                return True
    return False


def test_candidates_match_twin_order():
    # one generator of term dicts lists the twin's candidates in its order
    for field, prec in ((F2, 4), (GF(3), 3), (GF(2, 2), 3), (F2, 1)):
        q = field.order
        units = [u.terms for u in _unit_polys_twin(field, prec)]
        assert list(_series(q, prec, unit=True)) == units
        assert all(u.get(0) for u in units)
        for val_min in (0, 1):
            polys = [w.terms for w in _polys_twin(field, prec, val_min)]
            assert list(_series(q, prec, val_min)) == polys


def _components_to_try(s, nu):
    # the reported component and wrong ones with the same determinant
    # valuation (so the search runs), plus one the valuation gate refuses
    n1, n2 = nu
    return [(s, nu), (1 - s, nu), (s, (n2, n1)), (1 - s, (n1 + 1, n2 - 1)), (s, (n1, n2 + 1))]


@pytest.mark.parametrize(
    "field,prec,trials,wrong",
    # a refused component exhausts a half: 49,152 pairs over F4 at v^4
    [(F2, 4, 40, 40), (GF(3), 3, 20, 20), (GF(2, 2), 3, 8, 8), (GF(2, 2), 4, 12, 0)],
    ids=["F2", "F3", "F4-prec3", "F4-prec4"],
)
def test_coset_certify_matches_twin(field, prec, trials, wrong):
    rng = random.Random(2020 + field.order)
    outcomes = set()
    for i in range(trials):
        M = random_truncated_invertible(field, rng, prec=prec, max_det_val=prec - 1)
        s, nu = shape_of(M).component()
        # M and v^-k M, whose nu moves by (-k, -k)
        for k in (0, 1, 2):
            N = M.scale(Laurent.monomial(field, 1, -k)) if k else M
            comp = (s, (nu[0] - k, nu[1] - k))
            tries = _components_to_try(*comp) if i < wrong else [comp]
            for c in tries:
                got = coset_certify(N, c, prec)
                assert got == coset_certify_twin(N, c, prec), (field, i, k, c)
                outcomes.add((c == comp, got))
    # the reported component certifies, and some wrong one is refused
    assert (True, True) in outcomes
    assert (False, False) in outcomes or not wrong
    assert (True, False) not in outcomes
