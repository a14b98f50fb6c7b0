"""2x2 matrices over the Laurent ring, plus the standard monomial matrices.

A Mat2 stores its entries as the term dicts of laurent.py (t11, t12, t21,
t22) and computes on them directly; a11..a22 wrap them as Laurent
polynomials.
"""

from .errors import ConfigError
from .laurent import Laurent, add_terms, mul_terms, neg_terms, sub_terms, truncate_terms

_object_new = object.__new__


def _mat(field, t11, t12, t21, t22):
    # the Mat2 with the given entry term dicts (not copied)
    m = _object_new(Mat2)
    m.field = field
    m.t11 = t11
    m.t12 = t12
    m.t21 = t21
    m.t22 = t22
    return m


def _dot(field, x1, y1, x2, y2):
    # x1*y1 + x2*y2 on term dicts, skipping products against zero entries:
    # the matrices seen here are mostly sparse
    t1 = x1 and y1 and mul_terms(field, x1, y1)
    t2 = x2 and y2 and mul_terms(field, x2, y2)
    return add_terms(field, t1, t2) if t1 and t2 else t1 or t2


class Mat2:
    __slots__ = ("field", "t11", "t12", "t21", "t22")

    def __init__(self, field, a11, a12, a21, a22):
        """a11..a22 are Laurent polynomials over field."""
        self.field = field
        self.t11 = a11.terms
        self.t12 = a12.terms
        self.t21 = a21.terms
        self.t22 = a22.terms

    from_terms = staticmethod(_mat)

    a11 = property(lambda self: Laurent.from_terms(self.field, self.t11))
    a12 = property(lambda self: Laurent.from_terms(self.field, self.t12))
    a21 = property(lambda self: Laurent.from_terms(self.field, self.t21))
    a22 = property(lambda self: Laurent.from_terms(self.field, self.t22))

    @classmethod
    def identity(cls, field):
        return _mat(field, {0: 1}, {}, {}, {0: 1})

    @classmethod
    def zero(cls, field):
        return _mat(field, {}, {}, {}, {})

    @classmethod
    def diagonal(cls, field, d1, d2):
        return _mat(field, d1.terms, {}, {}, d2.terms)

    @classmethod
    def elementary(cls, field, i, j, c):
        """Identity plus c in position (i, j), 1-based, i != j."""
        if (i, j) not in ((1, 2), (2, 1)):
            raise ConfigError("elementary position must be (1,2) or (2,1)")
        if (i, j) == (1, 2):
            return _mat(field, {0: 1}, c.terms, {}, {0: 1})
        return _mat(field, {0: 1}, {}, c.terms, {0: 1})

    def terms(self):
        """The entry term dicts, row by row."""
        return (self.t11, self.t12, self.t21, self.t22)

    def entries(self):
        return (self.a11, self.a12, self.a21, self.a22)

    def __add__(self, other):
        f = self.field
        return _mat(f, *map(add_terms, (f,) * 4, self.terms(), other.terms()))

    def __sub__(self, other):
        f = self.field
        return _mat(f, *map(sub_terms, (f,) * 4, self.terms(), other.terms()))

    def __neg__(self):
        f = self.field
        return _mat(f, *map(neg_terms, (f,) * 4, self.terms()))

    def __mul__(self, other):
        if isinstance(other, Mat2):
            f = self.field
            if other.field is not f and other.field != f:
                raise ConfigError("matrices over different fields")
            a11, a12, a21, a22 = self.t11, self.t12, self.t21, self.t22
            b11, b12, b21, b22 = other.t11, other.t12, other.t21, other.t22
            return _mat(
                f,
                _dot(f, a11, b11, a12, b21),
                _dot(f, a11, b12, a12, b22),
                _dot(f, a21, b11, a22, b21),
                _dot(f, a21, b12, a22, b22),
            )
        # scalar (Laurent / field element / int)
        return self.scale(other)

    def scale(self, c):
        f = self.field
        c = (c if isinstance(c, Laurent) else Laurent.const(f, c)).terms
        return _mat(f, *(mul_terms(f, t, c) for t in self.terms()))

    def det(self):
        f = self.field
        return Laurent.from_terms(
            f, sub_terms(f, mul_terms(f, self.t11, self.t22), mul_terms(f, self.t12, self.t21))
        )

    def truncate(self, prec):
        return _mat(self.field, *map(truncate_terms, self.terms(), (prec,) * 4))

    def __eq__(self, other):
        return (
            isinstance(other, Mat2)
            and self.field == other.field
            and self.terms() == other.terms()
        )

    def __hash__(self):
        return hash((self.field, self.entries()))

    def __repr__(self):
        return "[[%r, %r], [%r, %r]]" % self.entries()


def monomial_matrix(field, s, nu):
    """The matrix of s * v^nu: diag(v^nu1, v^nu2) for s = 0 (identity) and
    the antidiagonal [[0, v^nu2], [v^nu1, 0]] for s = 1 (the swap)."""
    n1, n2 = nu
    if s == 0:
        return _mat(field, {n1: 1}, {}, {}, {n2: 1})
    return _mat(field, {}, {n2: 1}, {n1: 1}, {})
