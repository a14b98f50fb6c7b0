import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2kisin import rho as rho_mod
from gl2kisin.errors import ConfigError, InternalCheckError, PreconditionError
from gl2kisin.fields import GF
from gl2kisin.rho import (
    RhoBar,
    inertia_exponents,
    serre_weights,
    tau_presentation,
    theta,
    weight_count,
    w_in_x_rho,
    x_rho,
    x_sigma,
)
from gl2kisin.weights import adm_set, make_label, s_sign, t_lambda

from conftest import random_profile

F31 = GF(31)


class TestValidation:
    def args(self, **kw):
        base = dict(p=31, f=1, r=(13,), a=(7,), alpha=(3,), beta=(5,))
        base.update(kw)
        return base

    def test_accepts_ints(self):
        rho = RhoBar(**self.args())
        assert rho.a[0] == F31(7)
        assert rho.field == F31

    def test_non_prime_p(self):
        with pytest.raises(ConfigError):
            RhoBar(**self.args(p=10, r=(5,)))

    def test_field_mismatch(self):
        with pytest.raises(ConfigError):
            RhoBar(**self.args(field=GF(5)))

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            RhoBar(**self.args(mode="lenient"))

    def test_bad_f(self):
        with pytest.raises(ConfigError):
            RhoBar(**self.args(f=0, r=(), a=(), alpha=(), beta=()))

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            RhoBar(**self.args(f=2))

    def test_zero_unit(self):
        with pytest.raises(ConfigError):
            RhoBar(**self.args(alpha=(0,)))
        with pytest.raises(ConfigError):
            RhoBar(**self.args(beta=(0,)))

    def test_irreducible_needs_zero_a(self):
        with pytest.raises(ConfigError):
            RhoBar(**self.args(irreducible=True))

    def test_r_range(self):
        with pytest.raises(ConfigError):
            RhoBar(**self.args(r=(30,)))
        with pytest.raises(ConfigError):
            RhoBar(**self.args(r=(-1,)))

    def test_strict_depth_gate(self):
        with pytest.raises(PreconditionError):
            RhoBar(**self.args(r=(5,)))  # depth 5 < 12 in strict mode
        with pytest.warns(UserWarning, match="permissive profile"):
            RhoBar(**self.args(r=(5,), mode="permissive"))

    def test_strict_boundary(self):
        # depth exactly 12 is allowed
        RhoBar(**self.args(r=(12,)))


def test_structure_methods(f1_nonsplit, f1_split, f1_irred, f2_mixed):
    assert not f1_nonsplit.semisimple()
    assert f1_split.semisimple()
    assert f1_irred.semisimple()
    assert f1_nonsplit.zero_count() == 0
    assert f2_mixed.zero_count() == 1
    assert f1_nonsplit.free_slots() == ()
    assert f1_split.free_slots() == (0,)
    # a is indexed by i = f-1-j, so the zero at a_0 frees slot j = 1
    assert f2_mixed.free_slots() == (1,)
    assert f1_nonsplit.depth() == 13
    assert f2_mixed.depth() == 13
    assert f1_irred.s_component(0) == 1
    assert f1_nonsplit.s_component(0) == 0
    assert f2_mixed.s_component(0) == 0


def test_semisimplification(f1_nonsplit, f1_split):
    ss = f1_nonsplit.semisimplification()
    assert ss.semisimple()
    assert ss.r == f1_nonsplit.r
    assert not any(ss.a)
    assert f1_split.semisimplification() is f1_split


def test_config_roundtrip(f2_mixed):
    cfg = f2_mixed.to_config()
    back = RhoBar.from_config(cfg)
    assert back.r == f2_mixed.r
    assert back.a == f2_mixed.a
    assert back.alpha == f2_mixed.alpha
    assert back.mode == f2_mixed.mode
    assert "field_degree" not in cfg


def test_config_roundtrip_extension_field():
    F = GF(3, 2)
    rho = RhoBar(
        p=3, f=1, r=(1,), a=(F.gen(),), alpha=(F.gen() + 1,), beta=(F(2),),
        mode="permissive", field=F,
    )
    cfg = rho.to_config()
    assert cfg["field_degree"] == 2
    assert cfg["field_modulus"] == [1, 0, 1]
    back = RhoBar.from_config(cfg)
    assert back.field == F
    assert back.a == rho.a


@pytest.mark.parametrize("field", [F31, GF(31, 2)], ids=repr)
def test_parameters_are_stored_as_residues(field):
    # elements, ints (negative or past the order) and coefficient tuples of
    # the same values store the same residues, and to_config writes them
    q = field.order
    a = (7, 0, q - 2)
    alpha = (3, q - 1, 500 % q)
    beta = (5, 11, 40 % q)
    forms = (field, lambda n: n + q, lambda n: n - q, lambda n: field(n).coeffs)
    for form in forms:
        rho = RhoBar(
            p=31, f=3, r=(13, 14, 15), a=tuple(map(form, a)), alpha=tuple(map(form, alpha)),
            beta=tuple(map(form, beta)), mode="permissive", field=field,
        )
        assert (rho.a, rho.alpha, rho.beta) == (a, alpha, beta)
        assert all(type(x) is int for x in rho.a + rho.alpha + rho.beta)
        back = RhoBar.from_config(rho.to_config())
        assert (back.a, back.alpha, back.beta) == (a, alpha, beta)
        assert back.slot_coeffs == rho.slot_coeffs


@pytest.mark.parametrize("field", [F31, GF(31, 2)], ids=repr)
@pytest.mark.parametrize("f", [1, 2, 3])
def test_slot_coeffs_pair_slot_j_with_a_f_minus_1_minus_j(field, f, rng):
    # twin: the lower-left coefficient by FieldElement arithmetic
    q = field.order
    for _ in range(20):
        a = [rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(f)]
        alpha = [rng.randrange(1, q) for _ in range(f)]
        beta = [rng.randrange(1, q) for _ in range(f)]
        rho = RhoBar(31, f, (13,) * f, a, alpha, beta, mode="permissive", field=field)
        for j, (a11, a21, a22) in enumerate(rho.slot_coeffs):
            assert (a11, a22) == (alpha[j], beta[j])
            assert field(alpha[j]) * field(a[f - 1 - j]) == a21
        assert rho.free_slots() == tuple(j for j in range(f) if not a[f - 1 - j])


def test_config_missing_field():
    with pytest.raises(ConfigError):
        RhoBar.from_config({"p": 31, "f": 1})


# ---------------------------------------------------------------------------
# inertia exponents


def test_inertia_frozen(f1_nonsplit):
    data = inertia_exponents(f1_nonsplit)
    assert (data.level, data.exponent, data.twist_exponent) == (1, 14, 1)


def test_inertia_irreducible_level_doubles():
    F5 = GF(5)
    rho = RhoBar(
        p=5, f=2, r=(1, 2), a=(0, 0), alpha=(1, 2), beta=(3, 1),
        irreducible=True, mode="permissive",
    )
    data = inertia_exponents(rho)
    assert data.level == 4
    assert data.exponent == 17  # (1+1) + (2+1)*5
    # reducible companion stays at level f
    red = RhoBar(
        p=5, f=2, r=(1, 2), a=(0, 0), alpha=(1, 2), beta=(3, 1), mode="permissive"
    )
    assert inertia_exponents(red).level == 2
    assert inertia_exponents(red).exponent == 17 % 24


def test_inertia_exponent_reduced():
    rho = RhoBar(p=5, f=1, r=(3,), a=(1,), alpha=(1,), beta=(1,), mode="permissive")
    assert inertia_exponents(rho).exponent == 0  # 3 + 1 = 4 = 0 mod 4


# ---------------------------------------------------------------------------
# weight sets


def test_weight_set_nonsplit(f1_nonsplit):
    W = serre_weights(f1_nonsplit)
    assert W.entries == (((0,), make_label((13,), 1, 31)),)
    assert len(W) == 1


def test_weight_set_split(f1_split):
    W = serre_weights(f1_split)
    assert W.entries == (
        ((0,), make_label((13,), 1, 31)),
        ((1,), make_label((15,), 15, 31)),
    )


def test_weight_set_irreducible(f1_irred):
    # the free slot of an irreducible profile steps down: b in {0, -1}
    W = serre_weights(f1_irred)
    assert W.entries == (
        ((0,), make_label((13,), 1, 31)),
        ((-1,), make_label((17,), 14, 31)),
    )


def test_weight_set_mixed(f2_mixed):
    W = serre_weights(f2_mixed)
    assert W.entries == (
        ((0, 0), make_label((13, 15), 32, 31)),
        ((0, 1), make_label((16, 16), 15, 31)),
    )


def test_weight_set_size_law(rng):
    for p in (31, 37):
        for f in (1, 2, 3):
            for _ in range(4):
                rho = random_profile(rng, p, f)
                assert len(serre_weights(rho)) == 2 ** rho.zero_count()


@st.composite
def shallow_profiles(draw):
    """Permissive profiles at small primes, r anywhere in [0, p - 2], so that
    r_j + b_j can leave the window; any zero pattern, or irreducible."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    f = draw(st.integers(1, 4))
    r = draw(st.lists(st.integers(0, p - 2), min_size=f, max_size=f))
    irreducible = draw(st.booleans())
    a = [0] * f if irreducible else draw(st.lists(st.sampled_from((0, 1)), min_size=f, max_size=f))
    return RhoBar(p, f, r, a, [1] * f, [1] * f, irreducible=irreducible, mode="permissive")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as exc:
        return str(exc)


@given(shallow_profiles())
@settings(max_examples=150, deadline=None)
def test_weight_count_matches_weight_set(rho):
    """weight_count against the weight set, and against t_lambda on every
    b-vector in product order: the same size, or the same refusal."""
    free = rho.free_slots()
    options = [(0, s_sign(rho.s_component(j))) if j in free else (0,) for j in range(rho.f)]
    base = rho_mod._base_label(rho)
    by_product = _outcome(
        lambda: len([t_lambda(base, b, rho.p) for b in itertools.product(*options)])
    )
    assert _outcome(weight_count, rho) == _outcome(lambda: len(serre_weights(rho))) == by_product


def test_weight_set_shallow_window_error():
    rho = RhoBar(p=5, f=1, r=(3,), a=(0,), alpha=(1,), beta=(1,), mode="permissive")
    with pytest.raises(PreconditionError):
        serre_weights(rho)  # r + b = 4 > p - 2


# ---------------------------------------------------------------------------
# exclusion patterns and allowed shape sets


def test_theta(f2_mixed, f1_split):
    assert theta(f2_mixed, (0, 0)) == (3, 3)
    assert theta(f2_mixed, (0, 1)) == (1, 3)
    assert theta(f1_split, (1,)) == (1,)
    with pytest.raises(PreconditionError):
        theta(f2_mixed, (1, 0))


def test_x_sigma(f2_mixed):
    assert sorted(x_sigma(f2_mixed, (0, 0))) == [
        (1, 1), (1, 2), (2, 1), (2, 2)
    ]
    assert sorted(x_sigma(f2_mixed, (0, 1))) == [
        (2, 1), (2, 2), (3, 1), (3, 2)
    ]


def test_x_sigma_size(rng):
    for _ in range(6):
        rho = random_profile(rng, 31, 2)
        for b, _label in serre_weights(rho).entries:
            assert len(x_sigma(rho, b)) == 2**rho.f


def test_x_rho(f2_mixed, f1_nonsplit, f1_irred):
    assert sorted(x_rho(f2_mixed)) == [
        (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)
    ]
    assert sorted(x_rho(f1_nonsplit)) == [(1,), (2,)]
    # a = 0 everywhere: nothing is excluded
    assert len(x_rho(f1_irred)) == 3


def test_x_rho_union_mismatch_is_an_internal_error(monkeypatch, f2_mixed):
    """x_rho checks its filter against the union of the x_sigma: a filter
    that drops one allowed element fails that check."""
    dropped = x_rho(f2_mixed)[0]
    keep = rho_mod.w_in_x_rho
    monkeypatch.setattr(rho_mod, "w_in_x_rho", lambda rho, w: w != dropped and keep(rho, w))
    with pytest.raises(InternalCheckError, match="union of the x_sigma"):
        x_rho(f2_mixed)


def test_w_in_x_rho(f1_nonsplit):
    assert w_in_x_rho(f1_nonsplit, (1,))
    assert not w_in_x_rho(f1_nonsplit, (3,))


def test_x_rho_monotone_under_semisimplification(rng):
    # zeroing a only enlarges the allowed set
    for _ in range(6):
        rho = random_profile(rng, 31, 2)
        allowed = set(x_rho(rho))
        assert allowed <= set(x_rho(rho.semisimplification()))


# ---------------------------------------------------------------------------
# type presentations


def test_tau_presentation_reducible(f1_nonsplit):
    p1 = tau_presentation(f1_nonsplit, (1,))
    assert (p1.s_tau, p1.mu_plus_eta, p1.mu_tau) == ((0,), ((13, 0),), ((12, 0),))
    assert p1.generic_depth == 12
    p2 = tau_presentation(f1_nonsplit, (2,))
    assert (p2.s_tau, p2.mu_plus_eta) == ((1,), ((14, -1),))
    assert p2.generic_depth == 14
    p3 = tau_presentation(f1_nonsplit, (3,))
    assert (p3.s_tau, p3.mu_plus_eta) == ((0,), ((14, -1),))


def test_tau_presentation_irreducible(f1_irred):
    p1 = tau_presentation(f1_irred, (1,))
    assert (p1.s_tau, p1.mu_plus_eta) == ((1,), ((14, -1),))
    p2 = tau_presentation(f1_irred, (2,))
    assert (p2.s_tau, p2.mu_plus_eta) == ((0,), ((13, 0),))
    p3 = tau_presentation(f1_irred, (3,))
    assert (p3.s_tau, p3.mu_plus_eta) == ((1,), ((13, 0),))


def test_tau_presentation_f_mismatch(f1_nonsplit):
    with pytest.raises(ConfigError):
        tau_presentation(f1_nonsplit, (1, 2))
    with pytest.raises(ConfigError, match="admissible indices are 1, 2, 3"):
        tau_presentation(f1_nonsplit, (4,))


def test_tau_depth_drops_by_at_most_one(rng):
    for p in (31, 37):
        for f in (1, 2):
            for _ in range(4):
                rho = random_profile(rng, p, f)
                n = rho.depth()
                for w in adm_set(f):
                    assert tau_presentation(rho, w).generic_depth >= n - 1


def test_tau_two_rows_only(f2_mixed):
    for w in adm_set(2):
        pres = tau_presentation(f2_mixed, w)
        for j in range(2):
            assert pres.mu_plus_eta[j] in (
                (f2_mixed.r[j], 0),
                (f2_mixed.r[j] + 1, -1),
            )
