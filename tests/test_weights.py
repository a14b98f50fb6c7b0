import itertools

import pytest

from gl2kisin.errors import ConfigError, PreconditionError
from gl2kisin.matrices import monomial_matrix
from gl2kisin.weights import (
    ADM_COMPONENTS,
    adm_name,
    adm_set,
    check_adm_index,
    classify_weight,
    make_label,
    s_apply,
    star,
    t_lambda,
)


def test_admissible_components_frozen():
    assert ADM_COMPONENTS == {1: (0, (2, 1)), 2: (1, (2, 1)), 3: (0, (1, 2))}


def test_adm_set_size_and_order():
    for f in range(1, 6):
        elems = adm_set(f)
        assert len(elems) == 3**f
        assert len(set(elems)) == 3**f
    assert adm_set(2) == [
        (1, 1), (1, 2), (1, 3),
        (2, 1), (2, 2), (2, 3),
        (3, 1), (3, 2), (3, 3),
    ]


def test_index_check():
    for idx in itertools.product((1, 2, 3), repeat=3):
        assert check_adm_index(list(idx)) == idx
    assert check_adm_index(()) == ()
    with pytest.raises(ConfigError, match=r"admissible indices are 1, 2, 3; got \(0,\)"):
        check_adm_index((0,))
    with pytest.raises(ConfigError, match=r"got \(1, 4\)"):
        check_adm_index([1, 4])


def test_adm_name():
    assert adm_name((1, 2, 3)) == "(t(2,1), w*t(2,1), t(1,2))"
    assert adm_name((3,)) == "(t(1,2))"
    assert adm_name(()) == "()"


def components(idx):
    return tuple(ADM_COMPONENTS[k] for k in idx)


def test_star_is_an_involution():
    for f in range(1, 6):
        for w in adm_set(f):
            assert star(star(components(w))) == components(w)


def test_star_frozen_example():
    assert star(components((1, 3, 2, 2))) == ((1, (1, 2)), (1, (1, 2)), (0, (1, 2)), (0, (2, 1)))


def test_star_reverses_and_inverts_components():
    # per component, star takes s t_nu to its inverse t_{-?}-free canonical
    # form with the swap applied to nu; slots are read in reverse order
    parts = components((2, 3))
    assert star(parts) == tuple((s, s_apply(s, nu)) for s, nu in reversed(parts))


def test_monomial_matrix_matches_translation_form():
    # s t_nu = t_{s(nu)} s: multiplying the two monomial factorizations of
    # the same element agrees
    from gl2kisin.fields import GF

    F = GF(5)
    for s, nu in ADM_COMPONENTS.values():
        assert monomial_matrix(F, s, nu) == monomial_matrix(F, 0, s_apply(s, nu)) * monomial_matrix(F, s, (0, 0))
    # s * v^mu is one monomial matrix, the factor verify_recovery multiplies by
    for s in (0, 1):
        for mu in ((14, -1), (0, 0), (-3, 5)):
            assert monomial_matrix(F, s, (0, 0)) * monomial_matrix(F, 0, mu) == monomial_matrix(F, s, mu)


class TestClassify:
    def test_depth_examples(self):
        assert classify_weight(((13, 0),), 31).depth == 13
        assert classify_weight(((0, 0),), 31).depth == 0
        assert classify_weight(((29, 0), (2, 1)), 31).depth == 0

    def test_irregular(self):
        wc = classify_weight(((30, 0),), 31)
        assert wc.dominant and wc.p_restricted and not wc.regular
        assert wc.depth is None

    def test_non_dominant(self):
        wc = classify_weight(((0, 1),), 31)
        assert not wc.dominant and not wc.p_restricted

    def test_componentwise_min(self):
        assert classify_weight(((3, 0), (20, 0)), 31).depth == 3


# ---------------------------------------------------------------------------
# the graph labelling


def _ref_label(diffs, omega, p):
    """Direct recomputation of the two-case labelling formula, spelled out
    here so a regression in the library version cannot hide itself."""
    f = len(diffs)
    delta = [w % 2 for w in omega]
    rp = []
    for j in range(f):
        if delta[(j + 1) % f] == 0:
            rp.append(diffs[j] + omega[j])
        else:
            rp.append(p - 2 - diffs[j] - omega[j])
    num = delta[0] * (p**f - 1) + sum((diffs[j] - rp[j]) * p**j for j in range(f))
    assert num % 2 == 0
    return tuple(rp), (num // 2) % (p**f - 1)


def test_graph_label_frozen_f1():
    lab = make_label((15,), 1, 31)
    assert t_lambda(lab, (1,), 31) == make_label((13,), 17, 31)
    assert t_lambda(lab, (-1,), 31) == make_label((15,), 16, 31)


def test_graph_label_frozen_f2():
    lab = make_label((13, 14), 7, 31)
    assert t_lambda(lab, (1, 0), 31) == make_label((14, 15), 471, 31)
    assert t_lambda(lab, (0, 1), 31) == make_label((16, 15), 950, 31)
    assert t_lambda(lab, (1, 1), 31) == make_label((15, 14), 486, 31)
    assert t_lambda(lab, (-1, 0), 31) == make_label((12, 15), 472, 31)


def test_graph_label_against_reference():
    p = 31
    for diffs in [(13,), (0,), (29,), (13, 14), (2, 27)]:
        f = len(diffs)
        base = make_label(diffs, 3, p)
        for omega in itertools.product((-2, -1, 0, 1, 2), repeat=f):
            if not all(0 <= d + w <= p - 2 for d, w in zip(diffs, omega)):
                with pytest.raises(PreconditionError):
                    t_lambda(base, omega, p)
                continue
            rp, e = _ref_label(diffs, omega, p)
            got = t_lambda(base, omega, p)
            assert got.diffs == rp
            assert got.twist == (3 + e) % (p**f - 1)


def test_graph_label_not_additive():
    """Two +1 steps return to the start, which differs from a single +2 step:
    the labelling is a graph walk, not a homomorphism in omega."""
    sigma = make_label((13,), 1, 31)
    once = t_lambda(sigma, (1,), 31)
    assert t_lambda(once, (1,), 31) == sigma
    assert t_lambda(sigma, (2,), 31) == make_label((15,), 0, 31)
    assert t_lambda(sigma, (2,), 31) != sigma


def test_graph_label_injective_on_window():
    # distinct graph points around a deep base give distinct labels
    p = 31
    for diffs in [(13,), (13, 15)]:
        f = len(diffs)
        base = make_label(diffs, 0, p)
        seen = {}
        for omega in itertools.product(range(-3, 4), repeat=f):
            lab = t_lambda(base, omega, p)
            assert lab not in seen, (omega, seen[lab])
            seen[lab] = omega


def test_twist_reduced_mod_group_order():
    assert make_label((1,), 35, 31).twist == 5
    assert make_label((1,), -1, 31).twist == 29
