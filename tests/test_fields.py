import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2kisin.errors import ConfigError, PreconditionError
from gl2kisin.fields import GF, MAX_TABLE_ORDER, default_modulus, poly_is_irreducible


# ---------------------------------------------------------------------------
# an independent reference implementation: integer-encoded polynomials with
# schoolbook reduction, sharing no code with the package


class RefField:
    def __init__(self, p, modulus):
        self.p = p
        self.mod = list(modulus)
        self.d = len(modulus) - 1

    def mul(self, a, b):
        # a, b are coefficient lists, low first, length d
        out = [0] * (2 * self.d - 1)
        for i in range(self.d):
            for j in range(self.d):
                out[i + j] = (out[i + j] + a[i] * b[j]) % self.p
        # reduce: subtract multiples of the monic modulus from the top
        for k in range(len(out) - 1, self.d - 1, -1):
            c = out[k]
            if c:
                for i in range(self.d + 1):
                    out[k - self.d + i] = (out[k - self.d + i] - c * self.mod[i]) % self.p
        return out[: self.d]

    def add(self, a, b):
        return [(x + y) % self.p for x, y in zip(a, b)]


@pytest.mark.parametrize(
    "p,d,expected",
    [
        (2, 2, (1, 1, 1)),
        (3, 2, (1, 0, 1)),
        (5, 2, (2, 0, 1)),
        (3, 3, (1, 2, 0, 1)),
    ],
)
def test_default_modulus_frozen(p, d, expected):
    """The default modulus is deterministic: first monic irreducible in the
    ascending integer encoding.  These values are pinned so element encodings
    stay stable across releases."""
    assert default_modulus(p, d) == expected
    assert GF(p, d).modulus == expected


def test_default_modulus_is_minimal():
    # no monic polynomial with a smaller encoding is irreducible
    for p, d in [(2, 2), (3, 2), (5, 2)]:
        mod = default_modulus(p, d)
        enc = sum(c * p**i for i, c in enumerate(mod[:-1]))
        for m in range(enc):
            coeffs = []
            n = m
            for _ in range(d):
                coeffs.append(n % p)
                n //= p
            coeffs.append(1)
            assert not poly_is_irreducible(coeffs, p)


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2)])
def test_multiplication_against_reference(p, d):
    """Exhaustive product check against the independent implementation."""
    F = GF(p, d)
    ref = RefField(p, F.modulus)
    elems = list(F.elements())
    for x in elems:
        for y in elems:
            assert (x * y).coeffs == tuple(ref.mul(list(x.coeffs), list(y.coeffs)))
            assert (x + y).coeffs == tuple(ref.add(list(x.coeffs), list(y.coeffs)))


def test_multiplication_against_reference_f25():
    F = GF(5, 2)
    ref = RefField(5, F.modulus)
    rng = random.Random(1)
    for _ in range(400):
        x, y = F.random(rng), F.random(rng)
        assert (x * y).coeffs == tuple(ref.mul(list(x.coeffs), list(y.coeffs)))


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_f9_ring_axioms(a, b, c):
    F = GF(3, 2)
    x, y, z = F(a), F(b), F(c)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x + y == y + x
    assert x + (-x) == F.zero()


def test_inverses():
    for F in (GF(31), GF(2, 2), GF(3, 2), GF(3, 3)):
        for x in F.units():
            assert x * x.inverse() == F.one()
    with pytest.raises(ZeroDivisionError):
        GF(3, 2).zero().inverse()


def test_frobenius():
    F = GF(3, 2)
    for x in F.elements():
        assert x.frobenius() == x**3
        assert x.frobenius().frobenius() == x  # order = degree
    # identity on the prime subfield
    for n in range(3):
        assert F(n).frobenius() == F(n)
    # additive and multiplicative
    rng = random.Random(2)
    for _ in range(50):
        x, y = F.random(rng), F.random(rng)
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()
        assert (x * y).frobenius() == x.frobenius() * y.frobenius()


def test_int_encoding_roundtrip():
    F = GF(3, 3)
    for n in range(27):
        assert F(n).to_int() == n
    # base-p digits, low first
    assert F(5).coeffs == (2, 1, 0)
    assert F(9).coeffs == (0, 0, 1)


def test_elements_order_and_counts():
    F = GF(2, 2)
    elems = list(F.elements())
    assert len(elems) == 4
    assert elems[0] == F.zero()
    assert [e.to_int() for e in elems] == [0, 1, 2, 3]
    assert len(list(F.units())) == 3


def test_random_unit_is_never_zero():
    F = GF(2)
    rng = random.Random(3)
    for _ in range(64):
        assert F.random_unit(rng)


def test_int_coercion_in_arithmetic():
    F = GF(31)
    x = F(12)
    assert x + 5 == F(17)
    assert 5 + x == F(17)
    assert 2 * x == F(24)
    assert 1 / x == x.inverse()
    assert x - 40 == F(3)
    assert x == 12


def test_equality_with_ints_agrees_with_hash():
    # an element equals the int of its residue only, and hashes like it
    F = GF(31)
    assert len({F(3), 3}) == 1
    assert F(3) != 34
    assert F(3) != -28
    for K in (F, GF(3, 2)):
        for x in K.elements():
            assert x == x.to_int()
            assert hash(x) == hash(x.to_int())


def test_field_constructor_errors():
    with pytest.raises(ConfigError):
        GF(9)  # prime power as p: must be GF(3, 2)
    with pytest.raises(ConfigError):
        GF(10)
    with pytest.raises(ConfigError):
        GF(3, 0)
    with pytest.raises(ConfigError):
        GF(2, 2, modulus=(0, 0, 1))  # t^2 is reducible
    with pytest.raises(ConfigError):
        GF(2, 2, modulus=(1, 1))  # wrong degree
    with pytest.raises(ConfigError):
        GF(5)(GF(7)(1))  # cross-field coercion
    with pytest.raises(ConfigError):
        GF(3, 2)((1, 2, 1))  # too many coefficients
    # extension fields compute through exp/log tables, so their order is
    # capped; above the cap construction fails as a precondition
    for p, d in [(2, 17), (257, 2)]:
        assert p**d > MAX_TABLE_ORDER
        with pytest.raises(PreconditionError, match="extension fields are limited"):
            GF(p, d)


def test_custom_modulus_changes_arithmetic():
    # t^2 + t + 2 is the second irreducible over F_3; in that presentation
    # t^2 = -t - 2 = 2t + 1
    F = GF(3, 2, modulus=(2, 1, 1))
    g = F.gen()
    assert (g * g).coeffs == (1, 2)
    assert F != GF(3, 2)
