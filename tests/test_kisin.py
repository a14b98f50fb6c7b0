import dataclasses
import hashlib
import itertools
import random

import pytest

from gl2kisin import fp_linalg
from gl2kisin.errors import ConfigError, PreconditionError
from gl2kisin.fields import GF
from gl2kisin.kisin import (
    etale_matrices,
    gauge_check,
    height_check,
    height_checks,
    iwahori_check,
    kisin_matrices,
    shape_of,
    torus_rigidity_dims,
    verify_recovery,
)
from gl2kisin.laurent import Laurent, phi_twist
from gl2kisin.matrices import Mat2, monomial_matrix
from gl2kisin.oracles import random_truncated_invertible
from gl2kisin.rho import RhoBar, TypePresentation, tau_presentation, x_rho
from gl2kisin.weights import ADM_COMPONENTS, classify_weight, s_apply, star

from conftest import random_profile
from test_cli import kisin_twin_configs

F31 = GF(31)


def mono(field, c, d):
    return Laurent.monomial(field, c, d)


# ---------------------------------------------------------------------------
# profile matrices and their gauge normal forms


def test_etale_frozen_nonsplit(f1_nonsplit):
    (m,) = etale_matrices(f1_nonsplit)
    # alpha v^(r+2) = 3 v^15, alpha*a = 21, beta v = 5v
    assert m.a11 == mono(F31, 3, 15)
    assert m.a12.is_zero()
    assert m.a21 == mono(F31, 21, 15)
    assert m.a22 == mono(F31, 5, 1)


def test_etale_frozen_irreducible(f1_irred):
    (m,) = etale_matrices(f1_irred)
    assert m.a11.is_zero() and m.a22.is_zero()
    assert m.a12 == mono(F31, -5, 1)
    assert m.a21 == mono(F31, 3, 15)


def test_etale_frozen_mixed(f2_mixed):
    m1, m0 = etale_matrices(f2_mixed)[1], etale_matrices(f2_mixed)[0]
    # superscript 1 holds slot j=0 data with a_1 = 9
    assert m1.a11 == mono(F31, 3, 15)
    assert m1.a21 == mono(F31, 27, 15)
    assert m1.a22 == mono(F31, 5, 1)
    # superscript 0 holds slot j=1 data with a_0 = 0
    assert m0.a11 == mono(F31, 2, 17)
    assert m0.a21.is_zero()
    assert m0.a22 == mono(F31, 11, 1)


@pytest.mark.parametrize(
    "idx,want",
    [
        ((1,), (("a11", 3, 2), ("a21", 21, 2), ("a22", 5, 1))),
        ((2,), (("a12", 3, 1), ("a21", 5, 2), ("a22", 21, 1))),
    ],
)
def test_kisin_frozen_nonsplit(f1_nonsplit, idx, want):
    data = kisin_matrices(f1_nonsplit, idx)
    (m,) = data.mats
    nonzero = {name for name, _, _ in want}
    for name in ("a11", "a12", "a21", "a22"):
        e = getattr(m, name)
        if name in nonzero:
            continue
        assert e.is_zero(), name
    for name, c, d in want:
        assert getattr(m, name) == mono(F31, c, d), name


def test_kisin_frozen_split_component3(f1_split):
    data = kisin_matrices(f1_split, (3,))
    (m,) = data.mats
    assert m.a11 == mono(F31, 3, 1)
    assert m.a22 == mono(F31, 5, 2)
    assert m.a12.is_zero() and m.a21.is_zero()


def test_kisin_frozen_irreducible(f1_irred):
    forms = {
        (1,): (("a11", -5, 2), ("a22", 3, 1)),
        (2,): (("a12", -5, 1), ("a21", 3, 2)),
        (3,): (("a11", -5, 1), ("a22", 3, 2)),
    }
    for idx, want in forms.items():
        (m,) = kisin_matrices(f1_irred, idx).mats
        entries = dict(zip(("a11", "a12", "a21", "a22"), m.entries()))
        for name, c, d in want:
            assert entries.pop(name) == mono(F31, c, d)
        for name, e in entries.items():
            assert e.is_zero(), name


def test_kisin_rejects_disallowed_element(f1_nonsplit):
    with pytest.raises(PreconditionError, match=r"element \(t\(1,2\)\) is not allowed"):
        kisin_matrices(f1_nonsplit, (3,))
    with pytest.raises(ConfigError, match="admissible indices are 1, 2, 3"):
        kisin_matrices(f1_nonsplit, (0,))


def test_recovery_fixtures(f1_nonsplit, f1_split, f1_irred, f2_mixed):
    for rho in (f1_nonsplit, f1_split, f1_irred, f2_mixed):
        for w in x_rho(rho):
            assert verify_recovery(kisin_matrices(rho, w))


def test_recovery_detects_a_changed_slot_matrix(f1_nonsplit, f1_irred, f2_mixed):
    """verify_recovery checks the matrices it is handed: each nonzero entry
    of each slot matrix, scaled by a unit other than 1, breaks recovery."""
    for rho in (f1_nonsplit, f1_irred, f2_mixed):
        for w in x_rho(rho):
            data = kisin_matrices(rho, w)
            assert verify_recovery(data)
            for i, A in enumerate(data.mats):
                for k, e in enumerate(A.entries()):
                    if not e:
                        continue
                    entries = list(A.entries())
                    entries[k] = e * F31(2)
                    mats = data.mats[:i] + (Mat2(F31, *entries),) + data.mats[i + 1 :]
                    changed = dataclasses.replace(data, mats=mats)
                    assert not verify_recovery(changed), (rho, w, i, k)


def test_recovery_product_identity(f2_mixed):
    """Re-assemble the defining product in the test and compare with the
    profile matrix entry by entry."""
    data = kisin_matrices(f2_mixed, (2, 1))
    target = etale_matrices(f2_mixed)
    for j in range(2):
        i = 1 - j
        prod = (
            data.mats[i]
            * monomial_matrix(F31, data.tau.s_tau[j], (0, 0))
            * monomial_matrix(F31, 0, data.tau.mu_plus_eta[j])
        )
        assert prod == target[i]


def test_recovery_random(rng):
    for p in (31, 37):
        for f in (1, 2):
            for irred in (False, True):
                rho = random_profile(rng, p, f, irreducible=irred)
                for w in x_rho(rho):
                    assert verify_recovery(kisin_matrices(rho, w))


# ---------------------------------------------------------------------------
# gauge and height predicates


def row_matrices(field, alpha, beta, a):
    """The three single-slot gauge forms with explicit unit parameters."""
    z = Laurent.zero(field)
    r1 = Mat2(field, mono(field, alpha, 2), z, mono(field, alpha * a, 2), mono(field, beta, 1))
    r2 = Mat2(field, z, mono(field, alpha, 1), mono(field, beta, 2), mono(field, alpha * a, 1))
    r3 = Mat2.diagonal(field, mono(field, alpha, 1), mono(field, beta, 2))
    return r1, r2, r3


def test_gauge_truth_table():
    F = GF(31)
    for a in (F(0), F(7)):
        r1, r2, r3 = row_matrices(F, F(3), F(5), a)
        assert gauge_check(r1, ADM_COMPONENTS[1])
        assert not gauge_check(r1, ADM_COMPONENTS[2])
        assert gauge_check(r2, ADM_COMPONENTS[2])
        assert not gauge_check(r2, ADM_COMPONENTS[1])
        assert gauge_check(r3, ADM_COMPONENTS[3])
        assert not gauge_check(r3, ADM_COMPONENTS[1])


def test_gauge_rejects_degree_violations():
    F = GF(31)
    # upper-right degree must be strictly below nu2 for the identity coset
    m = Mat2(F, mono(F, 1, 2), mono(F, 1, 1), Laurent.zero(F), mono(F, 1, 1))
    assert not gauge_check(m, (0, (2, 1)))
    # column bound violated
    m = Mat2(F, mono(F, 1, 3), Laurent.zero(F), Laurent.zero(F), mono(F, 1, 0))
    assert not gauge_check(m, (0, (2, 1)))
    # singular
    m = Mat2.diagonal(F, mono(F, 1, 2), Laurent.zero(F))
    assert not gauge_check(m, (0, (2, 1)))


def test_height_check_modes():
    F = GF(31)
    m = Mat2.diagonal(F, mono(F, 3, 2), mono(F, 5, 1))
    assert height_check(m, (2, 1))
    assert height_check(m, (2, 1), bound_mode="window")
    assert height_check(m, (3, 1), bound_mode="window")
    assert not height_check(m, (3, 1))  # det valuation 3 != 4
    # entry below the floor
    m2 = Mat2.diagonal(F, mono(F, 3, 0), mono(F, 5, 3))
    assert not height_check(m2, (2, 1))
    with pytest.raises(ConfigError):
        height_check(m, (1, 2))
    with pytest.raises(ConfigError):
        height_check(m, (2, 1), bound_mode="loose")
    assert not height_check(Mat2.zero(F), (2, 1))


def height_check_twin(M, lam, bound_mode):
    """height_check as it stood before height_checks: one det per mode."""
    l1, l2 = lam
    for e in M.entries():
        if e and e.valuation() < l2:
            return False
    d = M.det()
    if d.is_zero():
        return False
    if bound_mode == "exact":
        return d.valuation() == l1 + l2
    return d.valuation() <= l1 + l2


def test_height_checks_match_twin_from_one_det(monkeypatch, rng):
    dets = []
    det = Mat2.det
    monkeypatch.setattr(Mat2, "det", lambda M: dets.append(M) or det(M))
    for field in (GF(31), GF(3, 2)):
        mats = [rand_invertible(field, rng, lo=-1, hi=4) for _ in range(60)]
        mats += [Mat2.zero(field), Mat2.diagonal(field, mono(field, 1, 2), Laurent.zero(field))]
        for M in mats:
            for lam in ((2, 1), (3, 1), (1, 0), (4, 4), (0, 0)):
                want = tuple(height_check_twin(M, lam, mode) for mode in ("exact", "window"))
                dets.clear()
                assert height_checks(M, lam) == want
                assert len(dets) <= 1
                assert tuple(height_check(M, lam, mode) for mode in ("exact", "window")) == want


def test_iwahori_check():
    F = GF(31)
    good = Mat2(F, Laurent.const(F, 2), mono(F, 4, 0), mono(F, 1, 1), Laurent.const(F, 1))
    assert iwahori_check(good)
    # lower-left valuation 0 is not allowed
    bad = Mat2(F, Laurent.const(F, 2), Laurent.zero(F), mono(F, 1, 0), Laurent.const(F, 1))
    assert not iwahori_check(bad)
    # non-unit diagonal
    bad2 = Mat2(F, mono(F, 1, 1), Laurent.zero(F), Laurent.zero(F), Laurent.const(F, 1))
    assert not iwahori_check(bad2)
    # negative valuation anywhere
    bad3 = Mat2(F, Laurent.const(F, 1), mono(F, 1, -1), Laurent.zero(F), Laurent.const(F, 1))
    assert not iwahori_check(bad3)
    # truncated matrices certify through the windowed form
    trunc = Mat2(F, Laurent.const(F, 1), mono(F, 5, 2), mono(F, 3, 1), Laurent.const(F, 1))
    assert iwahori_check(trunc, prec=4)


# ---------------------------------------------------------------------------
# shape classification


def rand_invertible(field, rng, lo=0, hi=4):
    while True:
        entries = [
            Laurent.from_pairs(
                field, [(rng.randrange(lo, hi), field.random(rng)) for _ in range(3)]
            )
            for _ in range(4)
        ]
        M = Mat2(field, *entries)
        if not M.det().is_zero():
            return M


def test_shape_requires_invertible():
    F = GF(31)
    with pytest.raises(PreconditionError):
        shape_of(Mat2.zero(F))
    col = mono(F, 1, 1)
    with pytest.raises(PreconditionError):
        shape_of(Mat2(F, col, col, col, col))


def test_shape_of_monomials():
    F = GF(31)
    for s in (0, 1):
        for nu in ((2, 1), (1, 2), (0, 5), (3, 3)):
            shape = shape_of(monomial_matrix(F, s, nu))
            assert (shape.s, shape.nu) == (s, nu)
            assert shape.verify(monomial_matrix(F, s, nu))


def test_shape_witnesses_random(rng):
    """Classification invariants on random invertible matrices: the witness
    identity holds, the witnesses are Iwahori, and the exponents add to the
    determinant valuation."""
    for field in (GF(2), GF(31), GF(3, 2)):
        for _ in range(40):
            M = rand_invertible(field, rng)
            shape = shape_of(M)
            assert shape.verify(M)
            assert iwahori_check(shape.left, prec=shape.check_precision)
            assert iwahori_check(shape.right, prec=shape.check_precision)
            assert sum(shape.nu) == M.det().valuation()


def test_shape_negative_valuations(rng):
    F = GF(5)
    for _ in range(25):
        M = rand_invertible(F, rng, lo=-3, hi=3)
        shape = shape_of(M)
        assert shape.verify(M)
        assert sum(shape.nu) == M.det().valuation()


def test_shape_invariant_under_iwahori_moves(rng):
    # multiplying by elementary Iwahori matrices never changes the component
    F = GF(31)
    for _ in range(15):
        M = rand_invertible(F, rng)
        base = shape_of(M).component()
        c_up = Laurent.from_pairs(F, [(0, F.random(rng)), (1, F.random(rng))])
        c_low = Laurent.from_pairs(F, [(1, F.random(rng)), (2, F.random(rng))])
        moved = Mat2.elementary(F, 1, 2, c_up) * M * Mat2.elementary(F, 2, 1, c_low)
        assert shape_of(moved).component() == base


def test_shape_adm_index():
    F = GF(31)
    assert shape_of(monomial_matrix(F, 0, (2, 1))).adm_index() == 1
    assert shape_of(monomial_matrix(F, 1, (2, 1))).adm_index() == 2
    assert shape_of(monomial_matrix(F, 0, (1, 2))).adm_index() == 3
    assert shape_of(monomial_matrix(F, 0, (5, 0))).adm_index() is None


def test_shape_of_gauge_rows_with_collapse():
    """Shapes of the three gauge families: the antidiagonal family sits in
    the swap coset only when its extension entry vanishes; otherwise the
    lower-left corner drags it into the translation coset."""
    F = GF(31)
    r1, r2, r3 = row_matrices(F, F(3), F(5), F(0))
    assert shape_of(r1).adm_index() == 1
    assert shape_of(r2).adm_index() == 2
    assert shape_of(r3).adm_index() == 3
    r1, r2, r3 = row_matrices(F, F(3), F(5), F(7))
    assert shape_of(r1).adm_index() == 1
    assert shape_of(r2).adm_index() == 1  # collapse
    assert shape_of(r3).adm_index() == 3


def test_shapes_of_kisin_match_labels(rng):
    for _ in range(10):
        rho = random_profile(rng, 31, 2)
        for w in x_rho(rho):
            data = kisin_matrices(rho, w)
            got = [shape_of(m).component() for m in data.mats]
            for i in range(rho.f):
                expected = (
                    ADM_COMPONENTS[1]
                    if (w[i] == 2 and rho.a[i])
                    else ADM_COMPONENTS[w[i]]
                )
                assert got[i] == expected


def extension_witness_matrices(field, rng, count):
    """count invertible matrices over field, cycling through three kinds:
    dense entries in degrees -3..4, three-term entries in degrees -3..3, and
    oracles.random_truncated_invertible's polynomials mod v^4."""
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 2:
            out.append(random_truncated_invertible(field, rng))
            continue
        if kind == 0:
            entries = [Laurent(field, {d: field.random(rng) for d in range(-3, 5)}) for _ in range(4)]
        else:
            entries = [
                Laurent.from_pairs(field, [(rng.randrange(-3, 4), field.random(rng)) for _ in range(3)])
                for _ in range(4)
            ]
        M = Mat2(field, *entries)
        if M.det():
            out.append(M)
    return out


# sha256 of shape_of's (s, nu, left, right) on 500 seeded matrices per field
# over F4, F8, F9 and F31^2, recorded with per-coefficient field.add/mul
# products: a change to an F_q product or to the reduction must keep the
# witnesses, not only the components
EXTENSION_WITNESS_DIGEST = "6af9b09ade365f24e0c7fd04c47d886c188be6fe739d8fd7b8175d8e714a1c91"


def test_extension_field_witnesses_match_pinned_digest():
    h = hashlib.sha256()
    for field in (GF(2, 2), GF(2, 3), GF(3, 2), GF(31, 2)):
        rng = random.Random(19)
        for M in extension_witness_matrices(field, rng, 500):
            sh = shape_of(M)
            witness = [sorted(t.items()) for W in (sh.left, sh.right) for t in W.terms()]
            h.update(repr((sh.s, sh.nu, witness)).encode())
    assert h.hexdigest() == EXTENSION_WITNESS_DIGEST


# ---------------------------------------------------------------------------
# first-order rigidity


def test_torus_rigidity_fixture_dims(f1_nonsplit, f2_mixed, f1_irred):
    for rho in (f1_nonsplit, f2_mixed, f1_irred):
        for w in x_rho(rho):
            data = kisin_matrices(rho, w)
            for H in (1, 2, 4, 6):
                dim, expected = torus_rigidity_dims(data, H)
                assert dim == expected == 2 * rho.f


def brute_force_profiles():
    """The f = 1 profiles at p 5 and 7 that the brute-force count runs on:
    nonsplit, split and irreducible."""
    for p in (5, 7):
        F = GF(p)
        for a, irreducible in ((1, False), (0, False), (0, True)):
            yield RhoBar(p=p, f=1, r=(2,), a=(F(a),), alpha=(F(2),), beta=(F(3),),
                         irreducible=irreducible, mode="permissive")


def test_torus_rigidity_brute_force():
    """Count every perturbation h of degree <= H = 1 whose movements keep the
    gauge degree bounds, by Laurent arithmetic; the solutions form the kernel,
    so there are p^dim of them."""
    H = 1
    for rho in brute_force_profiles():
        p, F = rho.p, rho.field
        for w in x_rho(rho):
            data = kisin_matrices(rho, w)
            slots = []  # (entries, det, highest degree per entry then of the det)
            for A, k in zip(data.mats, w):
                s, (n1, n2) = ADM_COMPONENTS[k]
                if s == 0:
                    bounds = (n1, n2 - 1, n1, n2, n1 + n2)
                else:
                    bounds = (n1 - 1, n2, n1, n2, n1 + n2)
                slots.append((A.entries(), A.det(), bounds))

            def keeps_bounds(h):
                for i, ((a11, a12, a21, a22), det, bounds) in enumerate(slots):
                    h1, h2 = h[i]
                    g1, g2 = (phi_twist(x) for x in h[i - 1])
                    moves = (
                        h1 * a11 - a11 * g1,
                        h1 * a12 - a12 * g2,
                        h2 * a21 - a21 * g1,
                        h2 * a22 - a22 * g2,
                        det * (h1 + h2 - g1 - g2),
                    )
                    if any(m.degree() > b for m, b in zip(moves, bounds)):
                        return False
                return True

            solutions = 0
            for c in itertools.product(range(p), repeat=2 * rho.f * (H + 1)):
                polys = [Laurent(F, dict(enumerate(c[n : n + H + 1])))
                         for n in range(0, len(c), H + 1)]
                solutions += keeps_bounds(list(zip(polys[::2], polys[1::2])))
            dim, _expected = torus_rigidity_dims(data, H)
            assert solutions == p ** dim, (rho, w)


def test_torus_rigidity_refuses_non_gauge_matrix(f1_nonsplit):
    """The determinant bound has no rows because gauge normal form implies
    it; a slot matrix outside that form is refused, not measured."""
    data = kisin_matrices(f1_nonsplit, x_rho(f1_nonsplit)[0])
    (A,) = data.mats
    raised = dataclasses.replace(data, mats=(A * monomial_matrix(F31, 0, (1, 1)),))
    with pytest.raises(PreconditionError):
        torus_rigidity_dims(raised)


def test_torus_rigidity_extension_field_refused():
    F = GF(3, 2)
    rho_ext = RhoBar(
        p=3, f=1, r=(1,), a=(0,), alpha=(F.gen(),), beta=(F(1),),
        mode="permissive", field=F,
    )
    data = kisin_matrices(rho_ext, (1,))
    with pytest.raises(PreconditionError):
        torus_rigidity_dims(data)


# ---------------------------------------------------------------------------
# per-element twins: each object computed over the whole element at once


def torus_rows_twin(data, H):
    """Every row of every slot's degree bounds, in one list."""
    rho = data.rho
    if rho.field.degree != 1:
        raise PreconditionError("torus rigidity is implemented over prime fields")
    f, p = rho.f, rho.p
    rows = []
    for i in range(f):
        A = data.mats[i]
        component = ADM_COMPONENTS[data.wtilde[i]]
        if not gauge_check(A, component):
            raise PreconditionError("slot matrix %d is not in gauge normal form" % i)
        s, (n1, n2) = component
        bounds = (n1, n2 - 1, n1, n2) if s == 0 else (n1 - 1, n2, n1, n2)
        for q, (terms, bound) in enumerate(zip(A.terms(), bounds)):
            l, k = divmod(q, 2)
            here = (2 * i + l) * (H + 1)
            prev = (2 * ((i - 1) % f) + k) * (H + 1)
            by_degree = {}
            for d, coeff in terms.items():
                for e in range(H + 1):
                    for g, col, c in ((d + e, here, coeff), (d + p * e, prev, -coeff)):
                        if g > bound:
                            row = by_degree.setdefault(g, {})
                            row[col + e] = row.get(col + e, 0) + c
            rows.extend(by_degree.values())
    return rows


def torus_rigidity_dims_twin(data, H=4):
    """All rows in one system, reduced by one rank: the kernel dimension is
    the column count less it."""
    f = data.rho.f
    return 2 * f * (H + 1) - fp_linalg.rank(torus_rows_twin(data, H), data.rho.p), 2 * f


# (nu', w, s) cells of the presentation table whose mu_tau + eta row is (r_j, 0)
TABLE_A_TWIN = {((2, 1), 0, 0), ((2, 1), 1, 1), ((1, 2), 0, 1)}


def tau_presentation_twin(rho, wtilde):
    """Star the whole element, then read each starred component's row."""
    starred = star([ADM_COMPONENTS[k] for k in wtilde])
    s_tau, mu_plus_eta = [], []
    for j, (w_part, nu) in enumerate(starred):
        s_j = rho.s_component(j)
        if (s_apply(w_part, nu), w_part, s_j) in TABLE_A_TWIN:
            mu_plus_eta.append((rho.r[j], 0))
        else:
            mu_plus_eta.append((rho.r[j] + 1, -1))
        s_tau.append(s_j ^ w_part)
    mu_tau = tuple((x1 - 1, x2) for x1, x2 in mu_plus_eta)
    depth = classify_weight(mu_tau, rho.p).depth
    return TypePresentation(
        wtilde=tuple(wtilde),
        s_tau=tuple(s_tau),
        mu_tau=mu_tau,
        mu_plus_eta=tuple(mu_plus_eta),
        generic_depth=-1 if depth is None else depth,
    )


def verify_recovery_twin(data):
    """A^(i) * s(tau)_j * v^(mu_tau_j + eta_j) == Frobenius matrix (i), with
    the two factors multiplied in separately."""
    rho = data.rho
    target = etale_matrices(rho)
    for j in range(rho.f):
        i = rho.f - 1 - j
        s = monomial_matrix(rho.field, data.tau.s_tau[j], (0, 0))
        v_mu = monomial_matrix(rho.field, 0, data.tau.mu_plus_eta[j])
        if data.mats[i] * s * v_mu != target[i]:
            return False
    return True


def test_compositions_match_element_twins():
    """Type presentation, recovery and torus rigidity, composed slot by
    slot, equal their per-element twins on every listed element."""
    for name, cfg in kisin_twin_configs():
        rho = RhoBar.from_config(cfg)
        for w in x_rho(rho):
            data = kisin_matrices(rho, w)
            assert tau_presentation(rho, w) == data.tau == tau_presentation_twin(rho, w), (name, w)
            assert verify_recovery(data) is verify_recovery_twin(data) is True, (name, w)
            if rho.field.degree == 1:
                assert torus_rigidity_dims(data) == torus_rigidity_dims_twin(data), (name, w)


def test_torus_rigidity_matches_twin_at_small_primes():
    """At p <= H a degree d + e of h can meet a degree d + p*e' of phi(h'),
    so some rows have two columns; the rows built slot by slot still give
    the kernel dimension of the per-element twin."""
    two_column_rows = 0
    for rho in brute_force_profiles():
        for w in x_rho(rho):
            data = kisin_matrices(rho, w)
            for H in (1, 2, 4, 6):
                assert torus_rigidity_dims(data, H) == torus_rigidity_dims_twin(data, H), (rho, w, H)
                two_column_rows += sum(
                    sum(1 for v in row.values() if v % rho.p) == 2
                    for row in torus_rows_twin(data, H)
                )
    assert two_column_rows
