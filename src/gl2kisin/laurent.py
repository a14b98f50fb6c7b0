"""Sparse Laurent polynomials over a finite field.

INPUT/OUTPUT convention: a Laurent polynomial stores `terms`, a dict
{degree: residue} holding only nonzero residues of its field (see fields.py);
the zero polynomial is the empty dict.  All arithmetic runs on those
residues: products in the field's own term-dict kernel (FiniteField.mul_terms),
sums and series inverses through its residue ops.  `coeffs` is the same dict
with FieldElement values, for callers that want elements.  valuation() of
zero is +inf and degree() of zero is -inf so that the usual comparisons and
the additivity law val(m*n) = val(m) + val(n) hold without special cases.
"""

import math

from .errors import ConfigError
from .fields import FieldElement

_object_new = object.__new__


def _new(field, terms):
    """The Laurent polynomial with the given {degree: residue} dict, which
    must hold no zero residue; the dict is not copied and must not be
    changed afterwards."""
    m = _object_new(Laurent)
    m.field = field
    m.terms = terms
    return m


# ---------------------------------------------------------------------------
# term-dict kernels: the arithmetic behind Laurent, on bare {degree: residue}
# dicts.  kisin.shape_of runs its row and column operations on these directly.
# Products are the field's own kernel (fields.py), sums merge degree by degree.


def add_terms(field, a, b):
    """a + b."""
    return _merge(field.add, a, b) if a else b


def sub_terms(field, a, b):
    """a - b."""
    return _merge(field.sub, a, b)


def _merge(op, a, b):
    # a op b, degree by degree, for op the residue add or sub of the field
    if not b:
        return a
    out = dict(a)
    for d, c in b.items():
        s = op(out.get(d, 0), c)
        if s:
            out[d] = s
        else:
            del out[d]
    return out


def neg_terms(field, a):
    """-a."""
    neg = field.neg
    return {d: neg(c) for d, c in a.items()}


def mul_terms(field, a, b):
    """a * b, by the field's product kernel."""
    return field.mul_terms(a, b)


def truncate_terms(a, prec):
    """a without its terms of degree >= prec."""
    if not a or max(a) < prec:
        return a
    return {d: c for d, c in a.items() if d < prec}


def inverse_terms(field, f, prec):
    """The series inverse of nonzero f up to O(v^prec); see series_inverse."""
    if len(f) == 1:
        (val,) = f
        return {-val: field.inv(f[val])} if prec + val > 0 else {}
    val = min(f)
    nterms = prec + val  # number of unit-part coefficients needed
    if nterms <= 0:
        return {}
    inv0 = field.inv(f[val])
    # sparse unit-part tail: only nonzero u_k with 1 <= k < nterms feed the
    # recurrence out[n] = -inv0 * sum_k u_k * out[n-k]
    tail = sorted((d - val, c) for d, c in f.items() if 0 < d - val < nterms)
    add, mul = field.add, field.mul
    minus_inv0 = field.neg(inv0)
    out = [inv0]
    for n in range(1, nterms):
        acc = 0
        for k, u_k in tail:
            if k > n:
                break
            acc = add(acc, mul(u_k, out[n - k]))
        out.append(mul(minus_inv0, acc))
    return {i - val: c for i, c in enumerate(out) if c}


def div_terms(field, a, b, prec):
    """a / b up to O(v^prec), b nonzero; see series_div."""
    if not a:
        return {}
    return truncate_terms(mul_terms(field, a, inverse_terms(field, b, prec - min(a))), prec)


class Laurent:
    __slots__ = ("field", "terms")

    def __init__(self, field, coeffs=None):
        """coeffs maps degrees to field elements or integer encodings."""
        self.field = field
        self.terms = {}
        if coeffs:
            residue = field.residue
            for d, c in coeffs.items():
                n = residue(c)
                if n:
                    self.terms[d] = n

    # -- constructors -------------------------------------------------------

    from_terms = staticmethod(_new)

    @classmethod
    def zero(cls, field):
        return _new(field, {})

    @classmethod
    def const(cls, field, c):
        n = field.residue(c)
        return _new(field, {0: n} if n else {})

    @classmethod
    def monomial(cls, field, c, deg):
        n = field.residue(c)
        return _new(field, {deg: n} if n else {})

    @classmethod
    def from_pairs(cls, field, pairs):
        residue, add = field.residue, field.add
        out = {}
        for deg, c in pairs:
            n = add(out.get(deg, 0), residue(c))
            if n:
                out[deg] = n
            elif deg in out:
                del out[deg]
        return _new(field, out)

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self):
        field = self.field
        return {d: FieldElement(field, n) for d, n in self.terms.items()}

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def valuation(self):
        return min(self.terms) if self.terms else math.inf

    def degree(self):
        return max(self.terms) if self.terms else -math.inf

    def coeff(self, deg):
        return FieldElement(self.field, self.terms.get(deg, 0))

    def shift(self, k):
        """Multiply by v^k."""
        return _new(self.field, {d + k: c for d, c in self.terms.items()})

    def truncate(self, prec):
        """Drop all terms of degree >= prec (series precision O(v^prec))."""
        t = truncate_terms(self.terms, prec)
        return self if t is self.terms else _new(self.field, t)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        # other as a Laurent over this field, or NotImplemented
        if isinstance(other, Laurent):
            if other.field is not self.field and other.field != self.field:
                raise ConfigError("Laurent operands over different fields")
            return other
        if isinstance(other, (int, FieldElement)):
            return Laurent.const(self.field, other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not Laurent or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        return _new(self.field, add_terms(self.field, self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return _new(self.field, neg_terms(self.field, self.terms))

    def __sub__(self, other):
        if type(other) is not Laurent or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.terms:
            return self
        return _new(self.field, sub_terms(self.field, self.terms, other.terms))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if type(other) is not Laurent or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _new(self.field, mul_terms(self.field, self.terms, other.terms))

    __rmul__ = __mul__

    def __eq__(self, other):
        # an int or an element of the field equals a constant whose residue
        # it is, unreduced, as FieldElement does; constants hash like that int
        if isinstance(other, Laurent):
            return self.field == other.field and self.terms == other.terms
        if isinstance(other, FieldElement):
            if other.field != self.field:
                return False
            other = other.n
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        terms = self.terms
        if terms.keys() <= {0}:
            return hash(terms.get(0, 0))
        return hash((self.field, tuple(sorted(terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms):
            cs = repr(FieldElement(self.field, self.terms[d]))
            if d == 0:
                parts.append(cs)
            else:
                vs = "v" if d == 1 else "v^%d" % d
                parts.append(vs if cs == "1" else "%s*%s" % (cs, vs))
        return " + ".join(parts)


def phi_twist(m):
    """Frobenius twist: each term c*v^d maps to frobenius(c)*v^(p*d)."""
    p, power = m.field.p, m.field.power
    return _new(m.field, {p * d: power(c, p) for d, c in m.terms.items()})


def series_inverse(f, prec):
    """Inverse of f in the Laurent series ring, truncated to O(v^prec).

    INPUT: f nonzero; prec an absolute degree bound.
    OUTPUT: g with terms in degrees [-val(f), prec) such that
            f*g == 1 + O(v^(prec + val(f))).
    """
    if f.is_zero():
        raise ZeroDivisionError("series inverse of zero")
    return _new(f.field, inverse_terms(f.field, f.terms, prec))


def series_div(a, b, prec):
    """a / b in the Laurent series ring, truncated to O(v^prec)."""
    if a.terms and not b.terms:
        raise ZeroDivisionError("series inverse of zero")
    return _new(a.field, div_terms(a.field, a.terms, b.terms, prec))
