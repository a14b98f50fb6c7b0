"""Exact arithmetic in small finite fields F_{p^d}.

An element of F_{p^d} is one integer residue n in [0, p^d).  The base-p
digits of n, low first, are the element's coefficients against a monic
modulus polynomial, so n is also the element's serialized form.  The default
modulus of each degree is the first monic irreducible in the ascending integer
encoding sum(a_i * p^i), so encodings are reproducible across runs.
Irreducibility is trial division by every monic polynomial of degree at most
d/2, and is only decided under the MAX_TABLE_ORDER cap below, so at most 510
divisors; is_prime is composed from _prime_factors, the module's one integer
trial division.

A FiniteField computes on residues: a prime field with % p, a proper
extension through exp/log tables of a primitive element, with Zech logarithms
for addition (Lidl-Niederreiter, Finite Fields, ch. 2).  The tables are built
once per (p, d, modulus), only for fields of at most MAX_TABLE_ORDER
elements; a larger extension field raises PreconditionError.

Beside its residue ops each field holds mul_terms, the product of two
{degree: residue} term dicts that laurent.mul_terms delegates to: a prime
field sums integer products and reduces once, an extension field adds logs
and sums through the Zech table, with no call per coefficient.

Every layer computes on residues: Laurent terms, RhoBar's parameters, the
F_p kernel and d0 hold ints, and FiniteField.residue turns an element, int or
coefficient tuple into one.  FieldElement wraps one residue for the public
API (F(x), Laurent.coeffs, repr); no package computation builds one.
"""

import functools

from .errors import ConfigError, PreconditionError

# Largest p^d of a proper extension field: its tables hold about 4 * p^d ints.
MAX_TABLE_ORDER = 1 << 16


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n):
    return n > 1 and _prime_factors(n) == [n]


def _require_table_order(p, degree):
    if p**degree > MAX_TABLE_ORDER:
        raise PreconditionError(
            "F_%d^%d has %d elements; extension fields are limited to %d"
            % (p, degree, p**degree, MAX_TABLE_ORDER)
        )


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient lists, low degree first)


def _digits(n, p, count):
    # the low `count` base-p digits of n, low first
    out = []
    for _ in range(count):
        n, c = divmod(n, p)
        out.append(c)
    return out


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_rem(a, mod, p):
    # remainder of a by the monic polynomial mod
    a = list(a)
    dm = len(mod) - 1
    _poly_trim(a)
    while len(a) - 1 >= dm:
        shift = len(a) - 1 - dm
        lead = a[-1]
        for i, m in enumerate(mod):
            a[shift + i] = (a[shift + i] - lead * m) % p
        _poly_trim(a)
    return a


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_rem(out, mod, p)


def _poly_powmod(base, e, mod, p):
    result = [1]
    base = _poly_rem(base, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def poly_is_irreducible(coeffs, p):
    """True iff the monic polynomial with the given low-first coefficients is
    irreducible over F_p: no monic polynomial of degree 1 .. d // 2 divides
    it.  Raises PreconditionError when p^d exceeds MAX_TABLE_ORDER, so there
    are at most 510 trial divisors (p^d = 2^16)."""
    d = len(coeffs) - 1
    if d < 1 or coeffs[-1] != 1:
        return False
    _require_table_order(p, d)
    f = [c % p for c in coeffs]  # _poly_rem leaves low digits unreduced
    for k in range(1, d // 2 + 1):
        for m in range(p**k):
            if not _poly_rem(f, _digits(m, p, k) + [1], p):
                return False
    return True


def default_modulus(p, degree):
    """First monic irreducible of the given degree over F_p, by ascending
    integer encoding of the non-leading coefficients."""
    for m in range(p ** degree):
        coeffs = _digits(m, p, degree) + [1]
        if poly_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError("no irreducible found")  # pragma: no cover


@functools.lru_cache(maxsize=32)
def _zech_tables(p, degree, modulus):
    """(exp, log, zech) for F_{p^degree} presented by modulus.

    g is the primitive element of least encoding.  exp[k] is the residue of
    g^k for 0 <= k < 2(q-1), so a sum of two logs indexes it without a
    reduction; log inverts exp on the units; zech[k] is the log of 1 + g^k,
    or -1 where 1 + g^k = 0.
    """
    q = p**degree
    m = q - 1
    mod = list(modulus)
    cofactors = [m // r for r in _prime_factors(m)]
    for cand in range(p, q):  # the prime subfield holds no generator
        g = _poly_trim(_digits(cand, p, degree))
        if all(_poly_powmod(g, c, mod, p) != [1] for c in cofactors):
            break
    exp = [0] * (2 * m)
    log = [0] * q
    x = [1]
    for k in range(m):
        n = 0
        for c in reversed(x):
            n = n * p + c
        exp[k] = exp[k + m] = n
        log[n] = k
        x = _poly_mulmod(x, g, mod, p)
    # adding 1 changes only the constant digit
    zech = [log[n1] if (n1 := n - n % p + (n + 1) % p) else -1 for n in exp[:m]]
    return tuple(exp), tuple(log), tuple(zech)


def _prime_ops(p):
    def add(a, b):
        return (a + b) % p

    def sub(a, b):
        return (a - b) % p

    def neg(a):
        return -a % p

    def mul(a, b):
        return a * b % p

    def inv(a):
        return pow(a, -1, p)

    def power(a, e):
        return pow(a, e, p)

    def mul_terms(a, b):
        if len(a) != 1:
            if len(b) != 1:
                if not a or not b:
                    return {}
                # accumulate plain integer products, reduce once
                out = {}
                for d1, c1 in a.items():
                    for d2, c2 in b.items():
                        d = d1 + d2
                        out[d] = out.get(d, 0) + c1 * c2
                return {d: r for d, c in out.items() if (r := c % p)}
            a, b = b, a
        # a is a single term, so no two products share a degree and none
        # vanishes (fields have no zero divisors)
        (d1,) = a
        c1 = a[d1]
        if len(b) == 1:  # a literal is cheaper than a comprehension
            (d2,) = b
            return {d1 + d2: c1 * b[d2] % p}
        return {d1 + d: c1 * c % p for d, c in b.items()}

    return add, sub, neg, mul, inv, power, mul_terms


def _table_ops(p, degree, modulus):
    exp, log, zech = _zech_tables(p, degree, modulus)
    m = len(zech)
    half = m // 2 if p != 2 else 0  # -1 = g^half

    # log differences lie in (-m, m); a negative index into zech wraps mod m
    def add(a, b):
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        z = zech[log[b] - la]
        return exp[la + z] if z >= 0 else 0

    def neg(a):
        return exp[log[a] + half] if a else 0

    def sub(a, b):
        return add(a, exp[log[b] + half]) if b else a

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    def inv(a):
        return exp[m - log[a]]

    def power(a, e):
        if not a:
            return 0 if e else 1
        return exp[log[a] * e % m]

    # products run on logs: g^s + g^t = g^(t + zech[s - t]), so a long
    # product keeps each degree's running sum as a log, -1 once it cancels
    def mul_terms(a, b):
        if len(a) != 1:
            if len(b) != 1:
                if not a or not b:
                    return {}
                lb = [(d2, log[c2]) for d2, c2 in b.items()]
                out = {}
                for d1, c1 in a.items():
                    l1 = log[c1]
                    for d2, l2 in lb:
                        d = d1 + d2
                        cur = out.get(d, -1)
                        if cur < 0:
                            out[d] = l1 + l2
                        else:
                            z = zech[(l1 + l2 - cur) % m]
                            out[d] = (cur + z) % m if z >= 0 else -1
                return {d: exp[s] for d, s in out.items() if s >= 0}
            a, b = b, a
        # a is a single term, so no two products share a degree and none
        # vanishes (fields have no zero divisors)
        (d1,) = a
        l1 = log[a[d1]]
        return {d1 + d: exp[l1 + log[c]] for d, c in b.items()}

    return add, sub, neg, mul, inv, power, mul_terms


class FieldElement:
    """One element of a FiniteField, held as its residue n in [0, q).

    An element equals the elements of the same field with the same residue
    and the int equal to that residue, so F(3) == 3 but F(3) != 34 and
    F(3) != -28; the hash is the residue's, as for that int.
    """

    __slots__ = ("field", "n")

    def __init__(self, field, n):
        self.field = field
        self.n = n

    @property
    def coeffs(self):
        """Coefficients against the field's modulus, low first."""
        return tuple(_digits(self.n, self.field.p, self.field.degree))

    def _residue(self, other):
        # the residue of an operand (FiniteField.residue), or None when it
        # is not a field value
        if isinstance(other, (int, FieldElement)):
            return self.field.residue(other)
        return None

    def __add__(self, other):
        b = self._residue(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.n, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._residue(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.n, b))

    def __rsub__(self, other):
        b = self._residue(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(b, self.n))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.n))

    def __mul__(self, other):
        b = self._residue(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.n, b))

    __rmul__ = __mul__

    def inverse(self):
        if not self.n:
            raise ZeroDivisionError("inverse of zero field element")
        return FieldElement(self.field, self.field.inv(self.n))

    def __truediv__(self, other):
        b = self._residue(other)
        if b is None:
            return NotImplemented
        return self * FieldElement(self.field, b).inverse()

    def __rtruediv__(self, other):
        b = self._residue(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.field, b) * self.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElement(self.field, self.field.power(self.n, e))

    def frobenius(self):
        """x -> x^p (identity on the prime field)."""
        f = self.field
        return FieldElement(f, f.power(self.n, f.p))

    def to_int(self):
        return self.n

    def __bool__(self):
        return self.n != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.n == other
        if isinstance(other, FieldElement):
            return self.field == other.field and self.n == other.n
        return NotImplemented

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        if self.field.degree == 1:
            return str(self.n)
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                t = "t" if i == 1 else "t^%d" % i
                terms.append(t if c == 1 else "%d*%s" % (c, t))
        return " + ".join(terms) if terms else "0"


class FiniteField:
    """F_{p^degree} with a fixed monic modulus (ignored for degree 1).

    add, sub, neg, mul, inv and power compute on residues in
    [0, order); inv needs a nonzero argument and power a non-negative
    exponent.  mul_terms(a, b) is the product of two {degree: residue}
    dicts holding no zero residue; it returns a new dict of the same kind
    and leaves a and b unchanged.
    """

    __slots__ = (
        "p", "degree", "modulus", "order",
        "add", "sub", "neg", "mul", "inv", "power", "mul_terms",
    )

    def __init__(self, p, degree=1, modulus=None):
        if not is_prime(p):
            raise ConfigError("p = %r is not prime" % (p,))
        if degree < 1:
            raise ConfigError("field degree must be >= 1")
        self.p = p
        self.degree = degree
        self.order = p**degree
        if degree == 1:
            self.modulus = None
            ops = _prime_ops(p)
        else:
            _require_table_order(p, degree)
            if modulus is None:
                modulus = default_modulus(p, degree)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != degree + 1 or modulus[-1] != 1:
                raise ConfigError("modulus must be monic of degree %d" % degree)
            if not poly_is_irreducible(list(modulus), p):
                raise ConfigError("modulus polynomial is reducible")
            self.modulus = modulus
            ops = _table_ops(p, degree, modulus)
        self.add, self.sub, self.neg, self.mul, self.inv, self.power, self.mul_terms = ops

    def __reduce__(self):
        return FiniteField, (self.p, self.degree, self.modulus)

    def residue(self, value):
        """The residue of a field element of this field, an integer encoding
        (reduced mod the order) or a tuple of base-p coefficients."""
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise ConfigError("element belongs to a different field")
            return value.n
        if isinstance(value, int):
            return value % self.order
        if isinstance(value, (tuple, list)):
            if len(value) > self.degree:
                raise ConfigError("too many coefficients for degree %d" % self.degree)
            n = 0
            for c in reversed(value):
                n = n * self.p + int(c) % self.p
            return n
        raise ConfigError("cannot build a field element from %r" % (value,))

    def __call__(self, value):
        return FieldElement(self, self.residue(value))

    def zero(self):
        return FieldElement(self, 0)

    def one(self):
        return FieldElement(self, 1)

    def gen(self):
        """The class of t (degree >= 2 only)."""
        if self.degree == 1:
            raise ConfigError("prime field has no polynomial generator")
        return FieldElement(self, self.p)

    def elements(self):
        for n in range(self.order):
            yield FieldElement(self, n)

    def units(self):
        for n in range(1, self.order):
            yield FieldElement(self, n)

    def random(self, rng):
        return FieldElement(self, rng.randrange(self.order))

    def random_unit(self, rng):
        return FieldElement(self, rng.randrange(1, self.order))

    def __eq__(self, other):
        if other is self:
            return True
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.degree == other.degree
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.degree, self.modulus))

    def __repr__(self):
        if self.degree == 1:
            return "F_%d" % self.p
        return "F_%d^%d" % (self.p, self.degree)


def GF(p, degree=1, modulus=None):
    return FiniteField(p, degree, modulus)
