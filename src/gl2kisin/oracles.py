"""Brute-force companions to the constructive classifiers.

coset_certify confirms a double-coset classification by exhaustive witness
search over truncated Iwahori matrices instead of trusting the reduction
that produced it.  Only practical over tiny fields; the intended use is
F_2 at truncation v^4.
"""

import itertools
import math

from .errors import ConfigError, PreconditionError
from .laurent import Laurent, sub_terms
from .matrices import Mat2

# Most candidate pairs (unit series, series) that coset_certify may enumerate
# in its first half; the second half has fewer.  F_2 at v^4 is 128 pairs,
# F_3 at v^3 486 and F_4 at v^4 49,152.
MAX_COSET_PAIRS = 1 << 16


def _series(q, prec, val_min=0, unit=False):
    """Term dicts of sum c_d v^d over val_min <= d < prec, ascending in
    (c_val_min, ..., c_(prec-1)); a unit series has c_0 != 0."""
    ranges = [range(q)] * (prec - val_min)
    if unit:
        ranges[0] = range(1, q)
    for cs in itertools.product(*ranges):
        yield {val_min + i: c for i, c in enumerate(cs) if c}


def _half_search(field, prec, mine, other, val_min, cond):
    # is there a unit series u and a series w of valuation >= val_min with
    # cond on the two entries of u * mine - w * other?  Each u's two
    # products are formed once for all its w.
    mul = field.mul_terms
    for u in _series(field.order, prec, unit=True):
        um0, um1 = mul(u, mine[0]), mul(u, mine[1])
        for w in _series(field.order, prec, val_min):
            c0 = sub_terms(field, um0, mul(w, other[0]))
            if cond(c0, sub_terms(field, um1, mul(w, other[1]))):
                return True
    return False


def _val(t):
    return min(t) if t else math.inf


def random_truncated_invertible(field, rng, prec=4, max_det_val=3):
    """Random polynomial matrix mod v^prec with det != 0 of valuation <=
    max_det_val, so its double coset is determined by the visible window.
    No matrix qualifies when prec < 1 or max_det_val < 0: a ConfigError."""
    if prec < 1 or max_det_val < 0:
        raise ConfigError("no matrix mod v^%d has det valuation <= %d" % (prec, max_det_val))
    while True:
        entries = []
        for _ in range(4):
            entries.append(Laurent(field, {d: rng.randrange(field.order) for d in range(prec)}))
        M = Mat2(field, *entries)
        det = M.det()
        if det and det.valuation() <= max_det_val:
            return M


def require_coset_search(field, prec):
    """PreconditionError when a search at v^prec has over MAX_COSET_PAIRS pairs."""
    q = field.order
    # (q-1) q^(prec-1) unit series times q^prec series; the exponent cap
    # keeps a huge prec from building a huge int and cannot change the answer
    if (q - 1) * q ** min(2 * prec - 1, 64) > MAX_COSET_PAIRS:
        raise PreconditionError(
            "coset search over F_%d at v^%d exceeds %d candidate pairs"
            % (q, prec, MAX_COSET_PAIRS)
        )


def coset_certify(M, component, prec=4):
    """Certify M in I * s v^nu * I by exhibiting a truncated Iwahori left
    factor U with v^-nu s^-1 U^-1 M in I, checked through exact valuations
    of the adjugate rows.  Distinct components have disjoint cosets, so
    certifying the reported component rules out every other one.

    Soundness is exact: a found U lies in I and the valuation pattern
    forces v^-nu s^-1 U^-1 M into I.  Completeness needs the truncation to
    dominate the determinant valuation (prec >= nu1 + nu2 + 1): truncating
    an exact witness then only perturbs it inside I.  The search needs the
    constant terms too (prec >= 1); a smaller prec is a ConfigError.  The
    two adjugate rows involve disjoint unknowns, so the search factors into
    two independent halves.

    Returns True when a witness exists, False otherwise.  Raises
    PreconditionError when the search is too large (require_coset_search).
    """
    field = M.field
    require_coset_search(field, prec)
    s, (n1, n2) = component
    det = M.det()
    if det.is_zero():
        raise ConfigError("coset certification needs an invertible matrix")
    if det.valuation() != n1 + n2:
        return False
    # the search needs at least the constant terms (prec >= 1)
    if prec < max(n1 + n2, 0) + 1:
        raise ConfigError(
            "truncation v^%d cannot certify a component with nu1 + nu2 = %d"
            % (prec, n1 + n2)
        )

    # row 1 of adj(U) * M is u22 row1 - u12 row2; row 2 is u11 row2 - u21 row1.
    # After the s-swap and the v^-nu row shifts the Iwahori pattern becomes
    # pure valuation conditions on those rows.
    cond1 = lambda c0, c1: _val(c0) == n1 and _val(c1) >= n1
    cond2 = lambda c0, c1: _val(c0) > n2 and _val(c1) == n2
    if s:
        cond1, cond2 = cond2, cond1
    r1, r2 = (M.t11, M.t12), (M.t21, M.t22)
    if not _half_search(field, prec, r1, r2, 0, cond1):
        return False
    return _half_search(field, prec, r2, r1, 1, cond2)
