import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2kisin.errors import ConfigError
from gl2kisin.fields import GF, FieldElement
from gl2kisin.laurent import Laurent, mul_terms, phi_twist, series_div, series_inverse

F31 = GF(31)
F9 = GF(3, 2)
F8 = GF(2, 3)
# the ring laws run over the prime field and over two extension fields:
# products run in each field's own kernel (integer products reduced mod p, or
# sums of exp/log/Zech-table logs), sums and inverses in field.add/sub/inv
RING_FIELDS = (F31, F9, F8)
# the product kernel's twin test adds F4, F31^2 and the largest table field
KERNEL_FIELDS = (GF(2, 2), F8, F9, GF(31, 2), GF(2, 16), F31)


def rand_laurent(field, rng, lo=-4, hi=6, terms=5):
    return Laurent.from_pairs(
        field, [(rng.randrange(lo, hi), field.random(rng)) for _ in range(terms)]
    )


def test_constructor_prunes_zeros():
    m = Laurent(F31, {0: F31(1), 3: F31(0), -2: F31(5)})
    assert set(m.coeffs) == {0, -2}
    assert Laurent(F31, {2: F31(0)}).is_zero()


def test_zero_conventions():
    z = Laurent.zero(F31)
    assert z.valuation() == math.inf
    assert z.degree() == -math.inf
    assert not z
    m = Laurent.monomial(F31, 1, -3)
    assert m.valuation() == -3
    assert m.degree() == -3


def test_from_pairs_merges_and_cancels():
    m = Laurent.from_pairs(F31, [(2, 10), (2, 21), (5, 4)])
    assert m == Laurent.monomial(F31, 4, 5)  # 10 + 21 = 0 mod 31


def test_truncate_and_shift():
    m = Laurent.from_pairs(F31, [(-1, 3), (0, 1), (4, 2)])
    assert set(m.truncate(4).coeffs) == {-1, 0}
    assert set(m.truncate(5).coeffs) == {-1, 0, 4}
    assert m.shift(2).valuation() == 1
    assert m.shift(2).coeff(6) == F31(2)
    assert m.shift(-3).degree() == 1


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_valuation_additive(seed):
    rng = random.Random(seed)
    for field in RING_FIELDS:
        a, b = rand_laurent(field, rng), rand_laurent(field, rng)
        prod = a * b
        # over a field (a domain) valuations and degrees are exactly additive
        assert prod.valuation() == a.valuation() + b.valuation(), field
        assert prod.degree() == a.degree() + b.degree(), field


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_mul_distributes(seed):
    rng = random.Random(seed)
    for field in RING_FIELDS:
        a, b, c = (rand_laurent(field, rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c, field
        assert (a * b) * c == a * (b * c), field
        assert a * b == b * a, field


def schoolbook_product(field, a, b):
    """a * b on term dicts, one FieldElement product and sum per pair."""
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = d1 + d2
            out[d] = out.get(d, field.zero()) + FieldElement(field, c1) * FieldElement(field, c2)
    return {d: c.n for d, c in out.items() if c}


def assert_kernel_matches_schoolbook(field, a, b):
    a_before, b_before = dict(a), dict(b)
    got = mul_terms(field, a, b)
    assert got == schoolbook_product(field, a, b), (field, a, b)
    assert all(0 < c < field.order for c in got.values()), (field, got)
    assert a == a_before and b == b_before


@st.composite
def kernel_operands(draw):
    """A field and two term dicts over it.  Many coefficients are +-1 or
    +-2, so products often cancel a degree to 0."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    units = st.sampled_from(sorted({1, field.neg(1), 2, field.neg(2)})) | st.integers(1, field.order - 1)
    terms = st.dictionaries(st.integers(-5, 5), units, max_size=6)
    return field, draw(terms), draw(terms)


@given(kernel_operands())
@settings(max_examples=400, deadline=None)
def test_mul_terms_matches_schoolbook_twin(case):
    assert_kernel_matches_schoolbook(*case)


def test_mul_terms_edge_operands():
    for field in KERNEL_FIELDS:
        one, minus_one = 1, field.neg(1)
        operands = ({}, {0: one}, {-3: 2}, {0: one, 1: one}, {0: one, 1: minus_one}, {-2: 2, 4: minus_one})
        for a in operands:
            for b in operands:
                assert_kernel_matches_schoolbook(field, a, b)
    # (1 + v)^2 = 1 + v^2 in characteristic 2: degree 1 cancels to 0
    for field in (GF(2, 2), F8, GF(2, 16)):
        assert mul_terms(field, {0: 1, 1: 1}, {0: 1, 1: 1}) == {0: 1, 2: 1}
    # (1 + v)^3 = 1 + v^3 in characteristic 3; (1 + v)(1 - v) = 1 - v^2
    assert mul_terms(F9, mul_terms(F9, {0: 1, 1: 1}, {0: 1, 1: 1}), {0: 1, 1: 1}) == {0: 1, 3: 1}
    for field in (F9, GF(31, 2), F31):
        minus_one = field.neg(1)
        assert mul_terms(field, {0: 1, 1: 1}, {0: 1, 1: minus_one}) == {0: 1, 2: minus_one}
    # a degree that cancels and then receives another product stays nonzero
    for field in KERNEL_FIELDS:
        a = {0: 1, 1: 1, 2: 1}
        b = {0: 1, 1: field.neg(1), 2: 1}
        assert_kernel_matches_schoolbook(field, a, b)


def test_scalar_and_int_coercion():
    m = Laurent.from_pairs(F31, [(1, 2), (3, 4)])
    assert 2 * m == m + m
    assert m - m == Laurent.zero(F31)
    assert m * F31(0) == Laurent.zero(F31)
    assert (m + 1).coeff(0) == F31(1)
    with pytest.raises(ConfigError):
        m + Laurent.const(GF(5), 1)


def test_equality_with_field_values_agrees_with_hash():
    # as for FieldElement: a constant equals the int of its residue only,
    # unreduced, and hashes like it; the zero polynomial is the constant 0
    c = Laurent.const(F31, 3)
    assert c == 3 and 3 == c
    assert c != 34 and c != -28
    assert c == F31(3) and F31(3) == c
    assert c != F31(4) and c != GF(37)(3)
    assert len({c, 3, F31(3)}) == 1
    z = Laurent.zero(F31)
    assert z == 0 and z == F31(0) and z != 31
    assert hash(z) == hash(0)
    assert Laurent.monomial(F31, 3, 1) != 3
    for K in RING_FIELDS:
        for x in K.elements():
            m = Laurent.const(K, x)
            assert m == x and m == x.to_int()
            assert hash(m) == hash(x) == hash(x.to_int())


def test_phi_twist():
    # c * v^d  ->  c^p * v^(p*d), so over F_9: degrees triple, coefficients cube
    g = F9.gen()
    m = Laurent(F9, {-1: g + 2, 2: g})
    out = phi_twist(m)
    assert {d: c.to_int() for d, c in out.coeffs.items()} == {-3: 8, 6: 6}
    # twisting is multiplicative
    rng = random.Random(7)
    for _ in range(30):
        a, b = rand_laurent(F9, rng), rand_laurent(F9, rng)
        assert phi_twist(a * b) == phi_twist(a) * phi_twist(b)
        assert phi_twist(a + b) == phi_twist(a) + phi_twist(b)
    # prime-field case only rescales degrees
    m = Laurent.from_pairs(F31, [(1, 5)])
    assert phi_twist(m) == Laurent.monomial(F31, 5, 31)


class TestSeriesInverse:
    def test_unit_contract(self):
        rng = random.Random(11)
        for field in RING_FIELDS:
            for _ in range(40):
                f = rand_laurent(field, rng)
                if f.is_zero():
                    continue
                prec = rng.randrange(1, 9)
                g = series_inverse(f, prec)
                # terms of g live in [-val(f), prec)
                if prec + f.valuation() >= 1:
                    assert g.valuation() == -f.valuation(), field
                assert g.degree() < prec or g.is_zero(), field
                # f*g = 1 up to the contracted precision
                err = f * g - 1
                assert err.is_zero() or err.valuation() >= prec + f.valuation(), field

    def test_simple_closed_form(self):
        # (1 - v)^-1 = 1 + v + v^2 + ...
        f = Laurent.from_pairs(F31, [(0, 1), (1, -1)])
        g = series_inverse(f, 5)
        assert g == Laurent.from_pairs(F31, [(k, 1) for k in range(5)])

    def test_negative_valuation(self):
        f = Laurent.monomial(F31, 3, -2)
        g = series_inverse(f, 6)
        assert g == Laurent.monomial(F31, F31(3).inverse(), 2)

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            series_inverse(Laurent.zero(F31), 4)

    def test_empty_window(self):
        # precision at or below -val leaves no representable terms
        f = Laurent.monomial(F31, 1, 3)
        assert series_inverse(f, -3).is_zero()


def test_series_div():
    rng = random.Random(13)
    for field in RING_FIELDS:
        for _ in range(40):
            a, b = rand_laurent(field, rng), rand_laurent(field, rng)
            if b.is_zero():
                continue
            prec = rng.randrange(0, 8)
            q = series_div(a, b, prec)
            assert q.degree() < prec or q.is_zero(), field
            err = a - b * q
            assert err.is_zero() or err.valuation() >= prec + b.valuation(), field
        assert series_div(Laurent.zero(field), Laurent.const(field, 2), 5).is_zero()


def test_exact_division_recovers_quotient():
    rng = random.Random(17)
    for _ in range(30):
        b = rand_laurent(F31, rng)
        q = rand_laurent(F31, rng)
        if b.is_zero() or q.is_zero():
            continue
        a = b * q
        prec = q.degree() + 1
        assert series_div(a, b, prec) == q
