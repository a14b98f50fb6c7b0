import dataclasses
import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2kisin import d0
from gl2kisin.d0 import (
    SocleProfile,
    component_size,
    d0_checks,
    jh_component,
    serre_weight_dim,
    socle_profile,
)
from gl2kisin.errors import ConfigError, InternalCheckError, PreconditionError
from gl2kisin.fields import GF
from gl2kisin.rho import RhoBar, serre_weights
from gl2kisin.weights import make_label, t_lambda

from conftest import F4_P13_CONFIG, random_profile


def test_socle_profiles(f1_nonsplit, f1_split, f2_mixed):
    W = serre_weights(f1_nonsplit)
    prof = socle_profile(f1_nonsplit, W.entries[0][1])
    assert prof.signs == (0,)
    assert prof.support == ()
    Ws = serre_weights(f1_split)
    assert socle_profile(f1_split, Ws.entries[0][1]).signs == (1,)
    assert socle_profile(f1_split, Ws.entries[1][1]).signs == (1,)
    Wm = serre_weights(f2_mixed)
    assert socle_profile(f2_mixed, Wm.entries[0][1]).signs == (0, 1)
    assert socle_profile(f2_mixed, Wm.entries[1][1]).signs == (0, -1)


def test_socle_profile_support_matches_zero_count(rng):
    for _ in range(8):
        rho = random_profile(rng, 31, 2)
        for sigma in serre_weights(rho).labels():
            prof = socle_profile(rho, sigma)
            assert len(prof.support) == rho.zero_count()


def test_socle_profile_rejects_foreign_weight(f1_nonsplit):
    with pytest.raises(ConfigError):
        socle_profile(f1_nonsplit, make_label((5,), 0, 31))


def test_component_nonsplit_frozen(f1_nonsplit):
    sigma = serre_weights(f1_nonsplit).entries[0][1]
    comp = jh_component(f1_nonsplit, sigma)
    assert len(comp) == 17
    assert comp.offsets[0] == (-13,)
    assert comp.offsets[-1] == (3,)
    assert comp.socle == sigma
    assert len(set(comp.labels)) == 17
    assert serre_weight_dim(comp.labels[-1]) == 14


def test_component_nonsplit_matches_direct_count(f1_nonsplit):
    """Independent enumeration for the f=1 glued case: a single offset in
    [-r, p-1-r) subject to the even-step budget."""
    p, r = 31, 13
    direct = [a for a in range(-r, p - 1 - r) if max(a // 2, 0) <= 1]
    comp = jh_component(f1_nonsplit, serre_weights(f1_nonsplit).entries[0][1])
    assert [o[0] for o in comp.offsets] == direct
    assert len(comp) == len(direct) == 17


def test_component_split_sizes(f1_split):
    W = serre_weights(f1_split)
    c0 = jh_component(f1_split, W.entries[0][1])
    c1 = jh_component(f1_split, W.entries[1][1])
    assert (len(c0), len(c1)) == (14, 16)
    assert c0.offsets[0] == (-13,) and c0.offsets[-1] == (0,)
    assert c1.offsets[0] == (-15,) and c1.offsets[-1] == (0,)


def test_component_mixed_frozen(f2_mixed):
    rep = d0_checks(f2_mixed)
    assert rep.passed
    assert rep.globally_multiplicity_free
    # the dims summed over the enumerated labels
    stats = [
        (
            c.profile.signs,
            len(c),
            sum(serre_weight_dim(l) for l in jh_component(f2_mixed, c.socle, c.profile).labels),
        )
        for c in rep.components
    ]
    assert stats == [((0, 1), 272, 67136), ((0, -1), 76, 18278)]
    assert [c.dim for c in rep.components] == [67136, 18278]


def test_irreducible_components(f1_irred):
    rep = d0_checks(f1_irred)
    assert rep.passed
    assert [len(c) for c in rep.components] == [4, 4]
    assert [c.profile.signs for c in rep.components] == [(-1,), (-1,)]


def test_serre_weight_dim():
    assert serre_weight_dim(make_label((13,), 1, 31)) == 14
    assert serre_weight_dim(make_label((13, 15), 0, 31)) == 224
    assert serre_weight_dim(make_label((0, 0), 0, 31)) == 1


def one_step_down(a):
    """Offsets obtained by moving one coordinate a single step toward 0: the
    twin of d0._downward_closed."""
    out = []
    for j, aj in enumerate(a):
        if aj:
            step = list(a)
            step[j] = aj - (1 if aj > 0 else -1)
            out.append(tuple(step))
    return out


def test_one_step_down():
    assert one_step_down((0,)) == []
    assert one_step_down((2,)) == [(1,)]
    assert sorted(one_step_down((2, 1))) == [(1, 1), (2, 0)]
    # stepping down never leaves the dominance cone of the offset
    for a in itertools.product(range(0, 3), repeat=2):
        for b in one_step_down(a):
            assert all(0 <= bj <= aj for bj, aj in zip(b, a))
            assert sum(a) - sum(b) == 1


def test_downward_closure_explicit(f1_nonsplit):
    comp = jh_component(f1_nonsplit, serre_weights(f1_nonsplit).entries[0][1])
    members = set(comp.offsets)
    for a in comp.offsets:
        shifted = tuple(x - comp.offsets[0][i] for i, x in enumerate(a))
        for down in one_step_down(shifted):
            back = tuple(d + comp.offsets[0][i] for i, d in enumerate(down))
            assert back in members


def test_checks_sweep_reducible(rng):
    for p in (31, 37):
        for f in (1, 2):
            for zeros in itertools.chain.from_iterable(
                itertools.combinations(range(f), k) for k in range(f + 1)
            ):
                rho = random_profile(rng, p, f, zero_positions=zeros, deep=True)
                rep = d0_checks(rho)
                assert rep.passed, (p, f, zeros)
                assert len(rep.components) == len(serre_weights(rho))


def test_checks_sweep_irreducible(rng):
    for p in (31, 37):
        for f in (1, 2):
            rho = random_profile(rng, p, f, irreducible=True, deep=True)
            rep = d0_checks(rho)
            assert rep.passed


def test_component_socles_are_weight_set(rng):
    rho = random_profile(rng, 31, 2, deep=True)
    rep = d0_checks(rho)
    socles = {c.socle for c in rep.components}
    assert socles == set(serre_weights(rho).labels())


@st.composite
def bases(draw):
    """A prime, a base label with diffs in the labelling window, and signs."""
    p = draw(st.sampled_from((5, 7, 11, 13, 17, 19, 23, 29, 31, 37)))
    f = draw(st.integers(1, 3))
    diffs = tuple(draw(st.lists(st.integers(0, p - 2), min_size=f, max_size=f)))
    twist = draw(st.integers(0, p**f - 2))
    signs = tuple(draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=f, max_size=f)))
    return p, make_label(diffs, twist, p), signs


@given(bases())
@settings(max_examples=60, deadline=None)
def test_jh_component_matches_reference(base):
    """Offsets equal the budget-filtered product of the per-slot ranges, and
    every label equals weights.t_lambda at its offset."""
    p, sigma, signs = base
    f = len(signs)
    ranges = []
    for d, sign in zip(sigma.diffs, signs):
        top = min(p - 1 - d, 4)
        ranges.append({1: range(-d, 1), -1: range(0, top), 0: range(-d, top)}[sign])
    expected = [
        a for a in itertools.product(*ranges) if sum(max(aj // 2, 0) for aj in a) <= 1
    ]
    # with the signs given, jh_component reads only p and f of the profile
    comp = jh_component(SimpleNamespace(p=p, f=f), sigma, SocleProfile(signs))
    assert list(comp.offsets) == expected
    assert list(comp.labels) == [t_lambda(sigma, a, p) for a in expected]


@given(bases())
@settings(max_examples=60, deadline=None)
def test_component_dim_matches_labels(base):
    """The transfer recursion for dim against one product per constituent."""
    p, sigma, signs = base
    comp = jh_component(SimpleNamespace(p=p, f=len(signs)), sigma, SocleProfile(signs))
    closed_form = d0._dim(sigma.diffs, comp.ranges, p)
    assert closed_form == comp.dim == sum(serre_weight_dim(l) for l in comp.labels)


@given(bases())
@settings(max_examples=60, deadline=None)
def test_component_size_matches_reference(base):
    """The closed-form count is the number of offsets in the budget-filtered
    product."""
    p, sigma, signs = base
    comp = jh_component(SimpleNamespace(p=p, f=len(signs)), sigma, SocleProfile(signs))
    ranges = comp.ranges
    expected = [
        a for a in itertools.product(*ranges) if sum(max(aj // 2, 0) for aj in a) <= 1
    ]
    assert component_size(ranges) == len(comp) == len(expected)


def test_size_cap_refuses_before_enumerating(monkeypatch):
    """(d + 2)^5 + 10 (d + 2)^4 = 375,000,000 offsets at d = 48 with free
    signs: refused from the count alone, and admitted at a cap of exactly
    that many."""
    def enumerate_offsets(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(d0, "_admitted_offsets", enumerate_offsets)
    rho, sigma = SimpleNamespace(p=101, f=5), make_label((48,) * 5, 0, 101)
    profile = SocleProfile((0,) * 5)
    with pytest.raises(PreconditionError, match="375000000 constituents"):
        jh_component(rho, sigma, profile)
    monkeypatch.setattr(d0, "MAX_D0_CONSTITUENTS", 375_000_000)
    with pytest.raises(AssertionError, match="enumeration started"):
        jh_component(rho, sigma, profile)


@pytest.mark.parametrize("d", [-1, 30])
def test_out_of_window_socle_is_refused(monkeypatch, d):
    """A socle diff outside [0, p - 2] = [0, 29] at p = 31 is refused before
    any offset is enumerated, whatever its sign: with sign +1 the range of
    d = 30 reaches d + 0 = 30, and the range of d = -1 is empty."""
    def enumerate_offsets(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(d0, "_admitted_offsets", enumerate_offsets)
    sigma = make_label((d,), 0, 31)
    with pytest.raises(PreconditionError):
        jh_component(SimpleNamespace(p=31, f=1), sigma, SocleProfile((1,)))


@given(st.lists(st.integers(-2, 3), min_size=1, max_size=3), st.data())
@settings(max_examples=200, deadline=None)
def test_downward_closed_matches_one_step_down(los, data):
    """The membership check against one_step_down on every offset, for
    downward-closed sets, sets with one offset dropped, and arbitrary
    subsets of a product of ranges around zero."""
    ranges = tuple(range(min(lo, 0), data.draw(st.integers(1, 4))) for lo in los)
    space = list(itertools.product(*ranges))
    kind = data.draw(st.sampled_from(("closure", "closure less one", "subset")))
    if kind == "subset":
        offsets = data.draw(st.sets(st.sampled_from(space)))
    else:
        offsets, todo = set(), data.draw(st.lists(st.sampled_from(space), min_size=1, max_size=3))
        while todo:
            a = todo.pop()
            if a not in offsets:
                offsets.add(a)
                todo += one_step_down(a)
        if kind == "closure less one":
            offsets.discard(data.draw(st.sampled_from(sorted(offsets))))
    expected = all(b in offsets for a in offsets for b in one_step_down(a))
    assert d0._downward_closed(data.draw(st.permutations(sorted(offsets)))) == expected


def _signs_by_full_search(sigma, wlabels, p):
    """Every sign vector in {0, 1, -1}^f whose one-sided translations of
    sigma are all defined and generate exactly wlabels."""
    matches = []
    for cand in itertools.product((0, 1, -1), repeat=len(sigma.diffs)):
        opts = [(0,) if c == 0 else (0, c) for c in cand]
        try:
            generated = {t_lambda(sigma, om, p) for om in itertools.product(*opts)}
        except PreconditionError:
            continue
        if generated == wlabels:
            matches.append(cand)
    return matches


def test_socle_profile_matches_full_search():
    """On the profiles of acceptance criterion 9."""
    rng = random.Random(5008)
    for p in (31, 37):
        for f in (1, 2, 3):
            rhos = [
                random_profile(rng, p, f, zero_positions=zeros, deep=True)
                for zeros in itertools.chain.from_iterable(
                    itertools.combinations(range(f), k) for k in range(f + 1)
                )
            ]
            rhos.append(random_profile(rng, p, f, irreducible=True, deep=True))
            for rho in rhos:
                wlabels = set(serre_weights(rho).labels())
                for sigma in wlabels:
                    expected = _signs_by_full_search(sigma, wlabels, p)
                    assert [socle_profile(rho, sigma).signs] == expected


@given(bases(), st.sampled_from(("as generated", "one dropped", "one added")), st.data())
@settings(max_examples=100, deadline=None)
def test_socle_profile_matches_full_search_on_bases(base, change, data):
    """Weight sets generated by the drawn signs around the drawn base, also
    with one label dropped or one foreign label added."""
    p, sigma, signs = base
    f = len(signs)
    opts = [(0,) if c == 0 else (0, c) for c in signs]
    try:
        generated = [t_lambda(sigma, om, p) for om in itertools.product(*opts)]
    except PreconditionError:
        return  # the drawn signs leave the window of sigma
    if change == "one dropped" and len(generated) > 1:
        generated.pop(data.draw(st.integers(1, len(generated) - 1)))
    elif change == "one added":
        diffs = data.draw(st.lists(st.integers(0, p - 2), min_size=f, max_size=f))
        generated.append(make_label(diffs, data.draw(st.integers(0, p**f - 2)), p))
    wlabels = set(generated)
    support = sum(1 for c in signs if c)
    rho = SimpleNamespace(p=p, f=f, zero_count=lambda: support)
    matches = _signs_by_full_search(sigma, wlabels, p)
    if len(matches) == 1 and sum(1 for c in matches[0] if c) == support:
        assert socle_profile(rho, sigma, wlabels).signs == matches[0]
    else:
        with pytest.raises(InternalCheckError):
            socle_profile(rho, sigma, wlabels)


FLAGS = (
    "per_component_distinct",
    "weight_set_only_socles",
    "socles_match",
    "downward_closed",
    "globally_multiplicity_free",
)


def _flags(rep):
    return tuple(getattr(rep, name) for name in FLAGS), rep.passed


def _checks_on_doctored(monkeypatch, rho, doctor):
    """The enumerated checker with each component passed through doctor."""
    monkeypatch.setattr(
        d0, "jh_component", lambda rho, sigma, **kw: doctor(jh_component(rho, sigma, **kw))
    )
    return _flags(d0.d0_checks_enumerated(rho))


def _repeat_label(c):
    return dataclasses.replace(c, labels=c.labels[:-1] + c.labels[-2:-1])


def _drop_step(c):
    offsets = c.offsets
    i = offsets.index(one_step_down(offsets[-1])[0])
    return dataclasses.replace(
        c, offsets=offsets[:i] + offsets[i + 1 :], labels=c.labels[:i] + c.labels[i + 1 :]
    )


def _move_socle(c):
    i = c.offsets.index((0,) * len(c.offsets[0]))
    labels = list(c.labels)
    labels[i], labels[i + 1] = labels[i + 1], labels[i]
    return dataclasses.replace(c, labels=tuple(labels))


@pytest.mark.parametrize(
    "doctor, flags",
    [
        # (distinct, weight set only socles, socles match, closed, globally free)
        (_repeat_label, (False, True, True, True, False)),
        (_drop_step, (True, True, True, False, True)),
        (_move_socle, (True, False, False, True, True)),
    ],
)
def test_checks_fail_on_doctored_component(monkeypatch, f1_nonsplit, doctor, flags):
    assert _checks_on_doctored(monkeypatch, f1_nonsplit, lambda c: c) == ((True,) * 5, True)
    assert _checks_on_doctored(monkeypatch, f1_nonsplit, doctor) == (flags, False)


def _doubled_counts(monkeypatch):
    # every constituent counted twice, against components and weights alike
    count = d0._pair_count
    monkeypatch.setattr(d0, "_pair_count", lambda x, y, p: 2 * count(x, y, p))


def _one_cross_pair(monkeypatch):
    # one more coincidence between the two components (different socles,
    # and y is not a one-point range); none within one, none with a weight
    count = d0._pair_count
    monkeypatch.setattr(
        d0, "_pair_count", lambda x, y, p: count(x, y, p) + (x[1] != y[1] and len(y[2][0]) > 1)
    )


def _ranges_without_zero(monkeypatch):
    # slot 0 loses zero and the values above it, and with them offset zero
    ranges = d0._offset_ranges

    def doctored(sigma, profile, p):
        first, *rest = ranges(sigma, profile, p)
        return (range(first.start, 0),) + tuple(rest)

    monkeypatch.setattr(d0, "_offset_ranges", doctored)


@pytest.mark.parametrize(
    "doctor, flags",
    [
        # (distinct, weight set only socles, socles match, closed, globally free)
        (_doubled_counts, (False, False, True, True, False)),
        (_one_cross_pair, (True, True, True, True, False)),
        (_ranges_without_zero, (True, False, False, False, True)),
    ],
)
def test_count_path_fails_on_doctored_counts(monkeypatch, f1_split, doctor, flags):
    """Each flag of d0_checks turns false under some doctor of its counts
    or ranges; the split f=1 profile has two components."""
    assert _flags(d0_checks(f1_split)) == ((True,) * 5, True)
    doctor(monkeypatch)
    assert _flags(d0_checks(f1_split)) == (flags, all(flags[:4]))


def _twin_profiles():
    """Criterion 9's profiles (every f 1-3 zero pattern and the irreducible
    profile, strict and deep, at p 31 and 37) and the f4_p13 digest
    profile."""
    rng = random.Random(5008)
    for p in (31, 37):
        for f in (1, 2, 3):
            for zeros in itertools.chain.from_iterable(
                itertools.combinations(range(f), k) for k in range(f + 1)
            ):
                yield random_profile(rng, p, f, zero_positions=zeros, deep=True)
            yield random_profile(rng, p, f, irreducible=True, deep=True)
    yield RhoBar.from_config(F4_P13_CONFIG)


def _permissive_p7_grid():
    """Every r in [0, p - 2]^f, every a in F_7^f and the irreducible
    profile, at f 1 and 2, in permissive mode."""
    F = GF(7)
    for f in (1, 2):
        for r in itertools.product(range(6), repeat=f):
            for a in itertools.chain(itertools.product(range(7), repeat=f), [None]):
                yield RhoBar(
                    p=7, f=f, r=r, a=tuple(map(F, a or (0,) * f)),
                    alpha=(F(3),) * f, beta=(F(5),) * f,
                    irreducible=a is None, mode="permissive",
                )


def _outcome(checks, rho):
    try:
        rep = checks(rho)
    except PreconditionError as exc:
        return "precondition", str(exc)
    return _flags(rep), [len(c) for c in rep.components], [c.dim for c in rep.components]


@pytest.mark.filterwarnings("ignore:permissive profile")
def test_count_path_matches_enumeration():
    """Identical flags, sizes and dims from the counts and from the
    enumeration, and the same PreconditionError where a profile is refused."""
    outcomes = Counter()
    for rho in itertools.chain(_twin_profiles(), _permissive_p7_grid()):
        counted = _outcome(d0_checks, rho)
        assert counted == _outcome(d0.d0_checks_enumerated, rho), rho.to_config()
        outcomes[counted[0] if counted[0] == "precondition" else counted[0][1]] += 1
    # the grid's 96 refusals all come from the weight set's window
    # (rho.weight_count refuses a graph point outside it, before any
    # component is built), and every other profile passes
    assert outcomes == {True: 35 + 1752, "precondition": 96}


@given(bases(), st.sampled_from(("constituent", "other", "same")), st.data())
@settings(max_examples=200, deadline=None)
def test_pair_count_matches_enumerated_keys(base, kind, data):
    """The transfer count of coinciding constituents against the product of
    label multiplicities, for two components and for a component against the
    one-point range of a label.  The second component is around a
    constituent of the first, around another label, or the first again."""
    p, sigma, signs = base
    f = len(signs)
    rho = SimpleNamespace(p=p, f=f)
    try:
        x = jh_component(rho, sigma, SocleProfile(signs))
    except PreconditionError:
        return  # outside the window, as d0_checks refuses too
    other, other_signs = sigma, signs
    if kind != "same":
        other_signs = tuple(data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=f, max_size=f)))
        if kind == "constituent":
            other = x.labels[data.draw(st.integers(0, len(x) - 1))]
        else:
            diffs = data.draw(st.lists(st.integers(0, p - 2), min_size=f, max_size=f))
            other = make_label(diffs, data.draw(st.integers(0, p**f - 2)), p)
    try:
        y = jh_component(rho, other, SocleProfile(other_signs))
    except PreconditionError:
        return
    kx, ky = Counter(x.labels), Counter(y.labels)
    count = d0._pair_count(d0._counted(sigma, x.ranges, p), d0._counted(other, y.ranges, p), p)
    assert count == sum(n * ky[k] for k, n in kx.items())
    point = tuple(range(1) for _ in signs)
    at_point = d0._pair_count(d0._counted(sigma, x.ranges, p), d0._counted(other, point, p), p)
    assert at_point == kx[other]


def test_pair_guard_refuses_before_counting(monkeypatch):
    """128 weights at f=7 are 16,384 component pairs, above MAX_D0_PAIRS:
    refused before any socle profile or count, and admitted at a cap of
    exactly that many."""
    def counting(*args):
        raise AssertionError("counting started")

    monkeypatch.setattr(d0, "socle_profile", counting)
    monkeypatch.setattr(d0, "_pair_count", counting)
    F = GF(101)
    rho = RhoBar(
        p=101, f=7, r=(48,) * 7, a=(F(0),) * 7, alpha=(F(3),) * 7, beta=(F(5),) * 7
    )
    with pytest.raises(PreconditionError, match="128 weights, so 16384 component pairs"):
        d0_checks(rho)
    monkeypatch.setattr(d0, "MAX_D0_PAIRS", 128**2)
    with pytest.raises(AssertionError, match="counting started"):
        d0_checks(rho)
