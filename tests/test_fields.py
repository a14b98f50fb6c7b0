import hashlib
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2kisin.errors import ConfigError, PreconditionError
from gl2kisin.fields import (
    GF,
    MAX_TABLE_ORDER,
    _digits,
    _poly_powmod,
    _poly_rem,
    _poly_trim,
    default_modulus,
    is_prime,
    poly_is_irreducible,
)


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


def test_arithmetic_across_fields_is_a_config_error():
    x, y = GF(5)(1), GF(7)(1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ConfigError):
            op(x, y)
    for reflected in (x.__rsub__, x.__rtruediv__):
        with pytest.raises(ConfigError):
            reflected(y)


def test_custom_modulus_changes_arithmetic():
    # t^2 + t + 2 is the second irreducible over F_3; in that presentation
    # t^2 = -t - 2 = 2t + 1
    F = GF(3, 2, modulus=(2, 1, 1))
    g = F.gen()
    assert (g * g).coeffs == (1, 2)
    assert F != GF(3, 2)


# ---------------------------------------------------------------------------
# irreducibility twin: the Frobenius-power/gcd (Rabin) test that fields.py
# used before trial division.  It is wrong at degree 1 (it compares x^p mod f
# with an unreduced x), so it is only compared from degree 2 up.


def _gcd_twin(a, b, p):
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, p)
        bm = [(c * inv) % p for c in b]
        a, b = b, _poly_rem(a, bm, p)
        _poly_trim(b)
    return a


def rabin_is_irreducible(coeffs, p):
    d = len(coeffs) - 1
    if d < 1 or coeffs[-1] != 1:
        return False
    x = [0, 1]
    xp = x
    for _ in range(d):
        xp = _poly_powmod(xp, p, coeffs, p)
    diff = list(xp) + [0] * (2 - len(xp))
    diff[1] = (diff[1] - 1) % p
    if _poly_trim(list(diff)):
        return False
    q = 2
    dd = d
    checked = set()
    while dd > 1:
        while dd % q:
            q += 1
        if q not in checked:
            checked.add(q)
            xp = x
            for _ in range(d // q):
                xp = _poly_powmod(xp, p, coeffs, p)
            diff = list(xp) + [0] * (2 - len(xp))
            diff[1] = (diff[1] - 1) % p
            g = _gcd_twin(coeffs, _poly_trim(diff), p)
            if len(g) != 1:
                return False
        dd //= q
    return True


# every (p, d) with d >= 2 whose field fits under the table cap
TABLE_FIELDS = [
    (p, d)
    for d in range(2, 17)
    for p in range(2, 257)
    if is_prime(p) and p**d <= MAX_TABLE_ORDER
]


def _monic(m, p, d):
    return _digits(m, p, d) + [1]


def test_irreducibility_matches_rabin_twin_exhaustively():
    # every monic polynomial of degree 2 .. d over F_p, for p^d <= 3^7
    small = [(p, d) for p, d in TABLE_FIELDS if p**d <= 3**7]
    assert len(small) == 32
    for p, d in small:
        for m in range(p**d):
            f = _monic(m, p, d)
            assert poly_is_irreducible(f, p) == rabin_is_irreducible(f, p), (p, f)


def test_irreducibility_matches_rabin_twin_on_samples():
    rng = random.Random(20)
    irreducible = 0
    for p, d in TABLE_FIELDS:
        if p**d <= 3**7:
            continue
        for _ in range(12):
            f = _monic(rng.randrange(p**d), p, d)
            got = poly_is_irreducible(f, p)
            assert got == rabin_is_irreducible(f, p), (p, f)
            irreducible += got
        # the default modulus is irreducible, and the twin agrees
        f = list(default_modulus(p, d))
        assert poly_is_irreducible(f, p) and rabin_is_irreducible(f, p), (p, d)
    assert irreducible > 0


def test_default_moduli_match_pinned_digest():
    # sha256 of repr([(p, d, default_modulus(p, d)), ...]) over the 93 (p, d)
    # of TABLE_FIELDS, recorded before irreducibility became trial division
    assert len(TABLE_FIELDS) == 93
    table = [(p, d, default_modulus(p, d)) for p, d in TABLE_FIELDS]
    digest = hashlib.sha256(repr(table).encode()).hexdigest()
    assert digest == "282a5631713642c1c6f5fce6f91d90d0cb772649c0848795356fd7d7a51a7c27"


@pytest.mark.parametrize("p", [2, 3, 31])
def test_degree_one_polynomials_are_irreducible(p):
    # the Rabin twin answers False here: x^p mod (x + a) is a constant,
    # which it compared with an unreduced x
    for a in range(p):
        assert poly_is_irreducible([a, 1], p)
    assert default_modulus(p, 1) == (0, 1)


def test_unreduced_coefficients_are_read_mod_p():
    for p, d in [(2, 3), (3, 2), (5, 2)]:
        for m in range(p**d):
            f = _monic(m, p, d)
            lifted = [c + p * (i % 2) for i, c in enumerate(f[:-1])] + [1]
            assert poly_is_irreducible(lifted, p) == poly_is_irreducible(f, p), (p, lifted)
    assert not poly_is_irreducible([3, 0, 1], 3)  # x^2 over F_3


def test_irreducibility_refuses_above_the_table_cap():
    for p, d in [(2, 17), (257, 2), (65537, 1)]:
        assert p**d > MAX_TABLE_ORDER
        with pytest.raises(PreconditionError, match="extension fields are limited"):
            poly_is_irreducible([1] + [0] * (d - 1) + [1], p)
        with pytest.raises(PreconditionError, match="extension fields are limited"):
            default_modulus(p, d)
    # GF checks the order before it looks at a modulus, reducible or not
    message = "^F_2\\^17 has 131072 elements; extension fields are limited to 65536$"
    with pytest.raises(PreconditionError, match=message):
        GF(2, 17)
    with pytest.raises(PreconditionError, match=message):
        GF(2, 17, modulus=[0] * 17 + [1])


def test_is_prime():
    assert [n for n in range(-3, 50) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47
    ]
    assert is_prime(65537) and not is_prime(65537 * 3) and not is_prime(257**2)
