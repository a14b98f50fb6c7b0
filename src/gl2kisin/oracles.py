"""Brute-force companions to the constructive classifiers.

coset_certify confirms a double-coset classification by exhaustive witness
search over truncated Iwahori matrices instead of trusting the reduction
that produced it.  Only practical over tiny fields; the intended use is
F_2 at truncation v^4.
"""

import itertools

from .errors import ConfigError, PreconditionError
from .laurent import Laurent
from .matrices import Mat2

# Most candidate pairs (unit series, series) that coset_certify may enumerate
# in its first half; the second half has fewer.  F_2 at v^4 is 128 pairs,
# F_3 at v^3 486 and F_4 at v^4 49,152.
MAX_COSET_PAIRS = 1 << 16


def _unit_polys(field, prec):
    """Truncated power series with unit constant term."""
    for const in range(1, field.order):
        for rest in itertools.product(range(field.order), repeat=prec - 1):
            coeffs = {d + 1: c for d, c in enumerate(rest)}
            coeffs[0] = const
            yield Laurent(field, coeffs)


def _polys(field, prec, val_min=0):
    for coeffs in itertools.product(range(field.order), repeat=prec - val_min):
        yield Laurent(field, {val_min + i: c for i, c in enumerate(coeffs)})


def random_truncated_invertible(field, rng, prec=4, max_det_val=3):
    """Random polynomial matrix mod v^prec with det != 0 of valuation <=
    max_det_val, so its double coset is determined by the visible window."""
    while True:
        entries = []
        for _ in range(4):
            entries.append(Laurent(field, {d: rng.randrange(field.order) for d in range(prec)}))
        M = Mat2(field, *entries)
        det = M.det()
        if det and det.valuation() <= max_det_val:
            return M


def coset_certify(M, component, prec=4):
    """Certify M in I * s v^nu * I by exhibiting a truncated Iwahori left
    factor U with v^-nu s^-1 U^-1 M in I, checked through exact valuations
    of the adjugate rows.  Distinct components have disjoint cosets, so
    certifying the reported component rules out every other one.

    Soundness is exact: a found U lies in I and the valuation pattern
    forces v^-nu s^-1 U^-1 M into I.  Completeness needs the truncation to
    dominate the determinant valuation (prec >= nu1 + nu2 + 1): truncating
    an exact witness then only perturbs it inside I.  The two adjugate
    rows involve disjoint unknowns, so the search factors into two
    independent halves.

    Returns True when a witness exists, False otherwise.  Raises
    PreconditionError when the search has more than MAX_COSET_PAIRS
    candidate pairs.
    """
    field = M.field
    q = field.order
    # (q-1) q^(prec-1) unit series times q^prec series; the exponent cap
    # keeps a huge prec from building a huge int and cannot change the answer
    if (q - 1) * q ** min(2 * prec - 1, 64) > MAX_COSET_PAIRS:
        raise PreconditionError(
            "coset search over F_%d at v^%d exceeds %d candidate pairs"
            % (q, prec, MAX_COSET_PAIRS)
        )
    s, nu = component
    det = M.det()
    if det.is_zero():
        raise ConfigError("coset certification needs an invertible matrix")
    if det.valuation() != nu[0] + nu[1]:
        return False
    if prec < nu[0] + nu[1] + 1:
        raise ConfigError(
            "truncation v^%d cannot certify a component with nu1 + nu2 = %d"
            % (prec, nu[0] + nu[1])
        )

    r1 = (M.a11, M.a12)
    r2 = (M.a21, M.a22)

    # row 1 of adj(U) * M is u22 row1 - u12 row2; row 2 is u11 row2 - u21 row1.
    # After the s-swap and the v^-nu row shifts the Iwahori pattern becomes
    # pure valuation conditions on those rows.
    if s == 0:
        cond1 = lambda c0, c1: c0.valuation() == nu[0] and c1.valuation() >= nu[0]
        cond2 = lambda c0, c1: c0.valuation() >= nu[1] + 1 and c1.valuation() == nu[1]
    else:
        cond1 = lambda c0, c1: c0.valuation() >= nu[1] + 1 and c1.valuation() == nu[1]
        cond2 = lambda c0, c1: c0.valuation() == nu[0] and c1.valuation() >= nu[0]

    found1 = False
    for u22 in _unit_polys(field, prec):
        for u12 in _polys(field, prec):
            if cond1(u22 * r1[0] - u12 * r2[0], u22 * r1[1] - u12 * r2[1]):
                found1 = True
                break
        if found1:
            break
    if not found1:
        return False
    for u11 in _unit_polys(field, prec):
        for u21 in _polys(field, prec, val_min=1):
            if cond2(u11 * r2[0] - u21 * r1[0], u11 * r2[1] - u21 * r1[1]):
                return True
    return False
