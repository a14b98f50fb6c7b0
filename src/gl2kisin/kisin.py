"""Frobenius matrices of the profile, their gauge-normal-form counterparts,
and the Iwahori double-coset classification (shape) with checkable witnesses.

Slot j's Frobenius matrix is v * Delta_j * diag(v^(r_j+1), 1); the profile
matrices and the rigidity system (tangent.py) read Delta_j and the shift
r_j + 1 from frobenius_factor alone.

Slot i of an element's gauge form depends on the profile and the element's
component index at i alone, so each object is built per slot (slot_matrix,
slot_recovers, torus_slot_rows; rho.type_part) and an element is composed
from its f slots (kisin_matrices, verify_recovery, torus_rigidity_dims).

Conventions: the f matrices carry superscripts (i) with i = f-1-j; the matrix
with superscript i is built from alpha_j, beta_j, r_j and a_i.  Shapes are
canonical (s, nu) components; an admissible element is its index tuple over
{1, 2, 3}, as in weights.
"""

from dataclasses import dataclass

from . import fp_linalg
from .errors import ConfigError, InternalCheckError, PreconditionError
from .laurent import (
    Laurent,
    div_terms,
    inverse_terms,
    mul_terms,
    sub_terms,
)
from .matrices import Mat2, monomial_matrix
from .rho import tau_presentation, w_in_x_rho
from .weights import ADM_COMPONENTS, _ADM_INDEX, adm_name


# ---------------------------------------------------------------------------
# profile matrices


def frobenius_factor(rho, j):
    """(Delta_j, sh_j) of slot j, whose Frobenius matrix is
    v * Delta_j * diag(v^sh_j, 1) with sh_j = r_j + 1.  Delta_j is a 2x2
    tuple of residues: [[alpha_j, 0], [alpha_j a_{f-1-j}, beta_j]], except
    at the twist slot of an irreducible profile (s_component 1), where it
    is the antidiagonal [[0, -beta_j], [alpha_j, 0]]."""
    al, a21, be = rho.slot_coeffs[j]
    if rho.s_component(j):
        return ((0, rho.field.neg(be)), (al, 0)), rho.r[j] + 1
    return ((al, 0), (a21, be)), rho.r[j] + 1


def etale_matrices(rho):
    """The f Frobenius matrices of the profile, index i = superscript: slot
    j = f-1-i is v * Delta_j * diag(v^sh_j, 1) for (Delta_j, sh_j) =
    frobenius_factor(rho, j)."""
    mats = []
    for j in reversed(range(rho.f)):
        delta, sh = frobenius_factor(rho, j)
        # column 1 of Delta moves to degree sh + 1, column 2 to degree 1
        terms = ({d: c} if c else {} for row in delta for c, d in zip(row, (sh + 1, 1)))
        mats.append(Mat2.from_terms(rho.field, *terms))
    return tuple(mats)


@dataclass(frozen=True)
class KisinData:
    rho: object
    wtilde: tuple  # f indices over {1, 2, 3}
    tau: object
    mats: tuple


def slot_matrix(rho, i, k):
    """Gauge-normal-form matrix of slot i (superscript) for the component
    index k, built from slot_coeffs[f-1-i] alone."""
    field = rho.field
    mono = Laurent.monomial
    z = Laurent.zero(field)
    j = rho.f - 1 - i
    al, a21, be = rho.slot_coeffs[j]
    if rho.s_component(j):
        nb = field.neg(be)
        if k == 1:
            return Mat2(field, mono(field, nb, 2), z, z, mono(field, al, 1))
        if k == 2:
            return Mat2(field, z, mono(field, nb, 1), mono(field, al, 2), z)
        return Mat2(field, mono(field, nb, 1), z, z, mono(field, al, 2))
    if k == 1:
        return Mat2(field, mono(field, al, 2), z, mono(field, a21, 2), mono(field, be, 1))
    if k == 2:
        return Mat2(field, z, mono(field, al, 1), mono(field, be, 2), mono(field, a21, 1))
    return Mat2(field, mono(field, al, 1), z, z, mono(field, be, 2))


def require_allowed(rho, wtilde):
    """Refuse an element outside the allowed set: the translation-(1,2)
    component forces a_i = 0."""
    if not w_in_x_rho(rho, wtilde):
        raise PreconditionError(
            "element %s is not allowed for this profile: a slot with nonzero "
            "extension parameter would need the translation-(1,2) component" % adm_name(wtilde)
        )


def kisin_matrices(rho, wtilde):
    """Gauge-normal-form matrices attached to an allowed admissible element:
    slot i is slot_matrix at the component index wtilde[i].  The indices and
    their number are checked first (by tau_presentation), then that the
    element is allowed (require_allowed).
    """
    tau = tau_presentation(rho, wtilde)
    wtilde = tau.wtilde
    require_allowed(rho, wtilde)
    mats = tuple(slot_matrix(rho, i, k) for i, k in enumerate(wtilde))
    return KisinData(rho=rho, wtilde=wtilde, tau=tau, mats=mats)


def slot_recovers(A, part, target):
    """Exact check that the slot matrix A recovers the profile matrix target:
    A * s(tau)_j^{-1} * v^(mu_tau_j + eta_j) == target, for the type part
    part = (s_tau_j, mu_tau_j + eta_j) of slot j = f-1-i."""
    # s^{-1} = s for s in {0, 1}, and s * v^mu is monomial_matrix(s, mu)
    return A * monomial_matrix(A.field, *part) == target


def verify_recovery(data):
    """Exact check that each gauge-form matrix of data recovers the profile
    matrix (slot_recovers), with i = f-1-j."""
    f = data.rho.f
    target = etale_matrices(data.rho)
    tau = data.tau
    return all(
        slot_recovers(data.mats[f - 1 - j], (tau.s_tau[j], tau.mu_plus_eta[j]), target[f - 1 - j])
        for j in range(f)
    )


# ---------------------------------------------------------------------------
# gauge / height predicates


def _entry_bounds(component):
    """Highest degree allowed in each entry (row-major) of a matrix in gauge
    normal form for the (s, nu) component: nu_k in column k, less one at
    (1,2) when s = 0 and at (1,1) when s = 1."""
    s, (n1, n2) = component
    if s == 0:
        return n1, n2 - 1, n1, n2
    return n1 - 1, n2, n1, n2


def gauge_check(M, component):
    """Degree-bound normal-form test against a single (s, nu) component.

    Writing the component as s t_nu: every column-k entry must have degree
    <= nu_k, the upper-right slot of M v^-nu s^-1 must vanish at degree 0
    (equivalently deg M12 <= nu2 - 1 for s = 1 and deg M11 <= nu1 - 1 for
    the swap), and det(M) must be nonzero of degree exactly nu1 + nu2 so the
    leading coefficient matrix is invertible.
    """
    n1, n2 = component[1]
    d = M.det()
    if d.is_zero() or d.degree() != n1 + n2:
        return False
    for t, b in zip(M.terms(), _entry_bounds(component)):
        if t and max(t) > b:
            return False
    return True


def height_check(M, lam, bound_mode="exact"):
    """Entry/determinant valuation bounds for a height pair lam = (l1, l2).

    exact: every entry has valuation >= l2 and det has valuation exactly
    l1 + l2.  window: det only has to be nonzero of valuation <= l1 + l2.
    """
    exact, window = height_checks(M, lam)
    if bound_mode == "exact":
        return exact
    if bound_mode == "window":
        return window
    raise ConfigError("bound_mode must be 'exact' or 'window'")


def height_checks(M, lam):
    """(exact, window): height_check in both bound modes, from one det."""
    l1, l2 = lam
    if not l1 >= l2 >= 0:
        raise ConfigError("height pair must satisfy l1 >= l2 >= 0")
    for t in M.terms():
        if t and min(t) < l2:
            return False, False
    d = M.det()
    if d.is_zero():
        return False, False
    v = d.valuation()
    return v == l1 + l2, v <= l1 + l2


# ---------------------------------------------------------------------------
# shape classification


@dataclass
class Shape:
    s: int
    nu: tuple
    left: Mat2
    right: Mat2
    check_precision: int
    field: object

    def component(self):
        return (self.s, self.nu)

    def adm_index(self):
        """1, 2 or 3 when the component is admissible, else None."""
        return _ADM_INDEX.get((self.s, self.nu))

    def monomial(self):
        return monomial_matrix(self.field, self.s, self.nu)

    def verify(self, M):
        """Recompute left * M * right and compare with the monomial matrix
        modulo v^check_precision."""
        return (self.left * M * self.right).truncate(self.check_precision) == self.monomial()


def iwahori_check(M, prec=None):
    """Membership test for the standard Iwahori subgroup over F[[v]]: entries
    of valuation >= 0, lower-left valuation >= 1, unit diagonal, unit det.
    When prec is given, conditions are only required on the visible window."""
    for e in M.entries():
        if e and e.valuation() < 0:
            return False
    if M.a21 and M.a21.valuation() < 1:
        return False
    if not (M.t11.get(0) and M.t22.get(0)):
        return False
    d = M.det()
    if prec is not None:
        d = d.truncate(prec)
    return bool(d) and d.valuation() == 0


def shape_of(M):
    """Iwahori double-coset classification of an invertible matrix over the
    Laurent field, with elementary-matrix witnesses.

    OUTPUT: Shape(s, nu, left, right, check_precision) such that
    left * M * right == (s-permutation) * v^nu modulo v^check_precision,
    with left and right products of Iwahori elementary matrices.  The
    clearing coefficients are truncated power series, so cleared entries sit
    above the certification precision rather than vanishing identically; all
    valuation decisions happen far below that precision.

    Each elementary or diagonal matrix is applied to the running matrix R and
    to the witness U or V as the row or column operation it is.  R must end
    on the monomial matrix, and Shape.verify then recomputes left * M * right
    by independent multiplication.
    """
    field = M.field
    det = M.det().terms
    if not det:
        raise PreconditionError("shape classification needs an invertible matrix")
    D = min(det)
    # row-major term dicts (laurent.py): X[2*(i-1) + (k-1)] is entry (i, k)
    R = list(M.terms())
    m0 = min(map(min, filter(None, R)))  # least valuation of an entry
    m0n = min(m0, 0)
    # Probed, one margin at a time: the tests pass with p_trunc's +8 cut to
    # +4 and p_check's +4 cut to +1; at +3 and +0 the monomial check on R
    # raises InternalCheckError (13 and 21 tests fail).  Slack: 4 and 3.
    p_trunc = D - m0 - m0n + 8
    p_check = D - m0 + 4

    U = [{0: 1}, {}, {}, {0: 1}]
    V = [{0: 1}, {}, {}, {0: 1}]

    def left(i, j, a, b):
        # E(i, j, -a/b) * X: row i -= (a/b) * row j, on R and U
        q = div_terms(field, a, b, p_trunc)
        i, j = 2 * i - 2, 2 * j - 2
        for X in (R, U):
            y1, y2 = X[j], X[j + 1]
            if y1:
                X[i] = sub_terms(field, X[i], mul_terms(field, q, y1))
            if y2:
                X[i + 1] = sub_terms(field, X[i + 1], mul_terms(field, q, y2))

    def right(i, j, a, b):
        # X * E(i, j, -a/b): column j -= column i * (a/b), on R and V
        q = div_terms(field, a, b, p_trunc)
        i, j = i - 1, j - 1
        for X in (R, V):
            y1, y2 = X[i], X[i + 2]
            if y1:
                X[j] = sub_terms(field, X[j], mul_terms(field, y1, q))
            if y2:
                X[j + 2] = sub_terms(field, X[j + 2], mul_terms(field, y2, q))

    # Phase 1: reduce column 1 to a single significant entry.
    e11, e21 = R[0], R[2]
    if e11 and e21:
        if min(e11) < min(e21):
            left(2, 1, e21, e11)
            i1 = 1
        else:
            # ties included: the lower elementary would need valuation >= 1
            left(1, 2, e11, e21)
            i1 = 2
    elif e11:
        i1 = 1
    elif e21:
        i1 = 2
    else:  # pragma: no cover - zero column contradicts det != 0
        raise InternalCheckError("zero first column with nonzero determinant")
    i2 = 3 - i1

    # Phase 2: reduce column 2 against the survivor.
    Y = R[2 * i1 - 2]
    X = R[2 * i1 - 1]
    Z = R[2 * i2 - 1]
    if X and not Z:  # pragma: no cover - contradicts det valuation bookkeeping
        raise InternalCheckError("degenerate column 2 during reduction")
    if not X:
        rows = (i1, i2)  # already bidiagonal: col1 at i1, col2 at i2
    elif min(X) >= min(Y):
        # clear X with an upper column operation against column 1
        right(1, 2, X, Y)
        rows = (i1, i2)
    else:
        ok_row_op = min(X) >= min(Z) if i1 < i2 else min(X) > min(Z)
        if ok_row_op:
            left(i1, i2, X, Z)
            rows = (i1, i2)
        else:
            # X is the strict minimum: clear Z from row i1, then fix column 1
            left(i2, i1, Z, X)
            right(2, 1, R[2 * i1 - 2], X)
            rows = (i2, i1)

    row1, row2 = rows  # column 1 survives at row1, column 2 at row2
    s = 0 if row1 == 1 else 1
    s1 = R[2 * row1 - 2]
    s2 = R[2 * row2 - 1]
    nu = (min(s1), min(s2))

    # Phase 3: normalize leading coefficients with a diagonal unit.
    u1 = inverse_terms(field, {d - nu[0]: c for d, c in s1.items()}, p_trunc)
    u2 = inverse_terms(field, {d - nu[1]: c for d, c in s2.items()}, p_trunc)
    for W in (R, V):
        w11, w12, w21, w22 = W
        W[:] = (
            w11 and mul_terms(field, w11, u1),
            w12 and mul_terms(field, w12, u2),
            w21 and mul_terms(field, w21, u1),
            w22 and mul_terms(field, w22, u2),
        )

    shape = Shape(s, nu, Mat2.from_terms(field, *U), Mat2.from_terms(field, *V), p_check, field)
    if Mat2.from_terms(field, *R).truncate(p_check) != shape.monomial():
        raise InternalCheckError("reduction did not terminate on a monomial matrix")
    if not shape.verify(M):
        raise InternalCheckError("witness product mismatch")
    return shape


# ---------------------------------------------------------------------------
# first-order rigidity of the gauge normal form


def torus_slot_rows(rho, i, A, k, H=4):
    """Slot i's rows of the torus rigidity system (see torus_rigidity_dims)
    for its gauge-form matrix A of component index k.  A matrix outside
    gauge normal form, and a profile over a proper extension field, are
    refused."""
    field = rho.field
    if field.degree != 1:
        raise PreconditionError("torus rigidity is implemented over prime fields")
    component = ADM_COMPONENTS[k]
    if not gauge_check(A, component):
        raise PreconditionError(
            "slot matrix %d is not in gauge normal form for %r" % (i, component)
        )
    p = rho.p
    iprev = (i - 1) % rho.f

    def var(i, comp):
        return (i * 2 + comp) * (H + 1)

    def rows_above(terms, bound, here, prev):
        # rows of terms * (h - phi(h')) in the degrees above bound, one per
        # degree some term reaches: h is the polynomial whose degree-0
        # column is `here`, h' the one at `prev`, and phi(h') carries
        # coefficient e of h' at degree p*e
        by_degree = {}
        for d, coeff in terms.items():
            for e in range(H + 1):
                for g, col, c in ((d + e, here, coeff), (d + p * e, prev, -coeff)):
                    if g > bound:
                        row = by_degree.setdefault(g, {})
                        row[col + e] = row.get(col + e, 0) + c
        return by_degree.values()

    rows = []
    # P_lm = A_lm * (h_l^(i) - phi(h_m^(i-1))), entries row-major
    for q, (a, bound) in enumerate(zip(A.terms(), _entry_bounds(component))):
        l, m = divmod(q, 2)
        rows.extend(rows_above(a, bound, var(i, l), var(iprev, m)))
    return rows


def torus_dims(rho, slot_rows, H=4):
    """(kernel_dimension, expected) of the torus rigidity system from its f
    slots' torus_slot_rows: one rank over their union."""
    rank = fp_linalg.rank((row for rows in slot_rows for row in rows), rho.p)
    return 2 * rho.f * (H + 1) - rank, 2 * rho.f


def torus_rigidity_dims(data, H=4):
    """Dimension of the space of first-order diagonal basis perturbations
    preserving all gauge degree bounds, against the expected count.

    Perturbing the basis of slot i by 1 + eps*h^(i) (h diagonal with
    polynomial entries of degree <= H) moves the matrix A = A^(i) by
    P = h^(i) A - A phi(h^(i-1)); the degree bounds of _entry_bounds on that
    movement form a linear system over the field, whose rows for slot i
    (torus_slot_rows) depend on the profile and wtilde[i] alone.

    The bound deg <= nu1 + nu2 on the first-order determinant adds nothing,
    so it has no rows.  With h = h^(i), h' = h^(i-1), P_lk = a_lk (h_l -
    phi(h'_k)), and the first-order determinant is
        tr(adj(A) P) = a22 P11 + a11 P22 - a12 P21 - a21 P12
                     = det(A) (h1 + h2 - phi(h1') - phi(h2')).
    The entry rows force deg P_lk <= b_lk, A itself meets deg a_lk <= b_lk
    (it is in gauge normal form, which is checked), and _entry_bounds gives
    b11 + b22 <= nu1 + nu2 and b12 + b21 <= nu1 + nu2.  So every product in
    tr(adj(A) P) has degree <= nu1 + nu2: each determinant coefficient above
    nu1 + nu2 is a sum of products that the entry rows already force to 0.

    OUTPUT: (kernel_dimension, expected) with expected = 2f, the constant
    rescaling in each slot.  Prime-field profiles only: the coefficient
    twist inside phi is not field-linear over proper extensions.
    """
    rho = data.rho
    slot_rows = [
        torus_slot_rows(rho, i, A, k, H) for i, (A, k) in enumerate(zip(data.mats, data.wtilde))
    ]
    return torus_dims(rho, slot_rows, H)
