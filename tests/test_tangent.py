import copy
import dataclasses
import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2kisin import fp_linalg, tangent
from gl2kisin.errors import ConfigError, InternalCheckError, PreconditionError
from gl2kisin.fields import GF
from gl2kisin.rho import RhoBar
from gl2kisin.tangent import (
    FRAME_NAMES,
    M11,
    M12,
    M22,
    PARAM_NAMES,
    assemble_system,
    consequence_report,
    pivot_slot,
    residual_check,
    solve_claim,
    stability_check,
)

from conftest import dense_basis, random_profile


def test_layout_frozen(f1_nonsplit):
    system = assemble_system(f1_nonsplit)
    assert system.degree_bound == 31  # max(p, r_max + 3)
    assert system.ncols == 142
    assert system.n_param_cols == 14
    big = assemble_system(f1_nonsplit, degree_bound=44)
    assert big.ncols == 194


def test_param_terms_table(f2_mixed):
    """_PARAM_TERMS lists, for each entry (l, k) of _ENTRIES, exactly the
    parameters p<l><k>_0, p<l><k>_m1 and p<l><k>_m2 of PARAM_NAMES, at
    degrees 0, -1 and -2, each with its col_param index in every slot."""
    system = assemble_system(f2_mixed)
    assert len(tangent._PARAM_TERMS) == len(tangent._ENTRIES)
    for (l, k), terms in zip(tangent._ENTRIES, tangent._PARAM_TERMS):
        named = [(x, "p%d%d_%s" % (l, k, s)) for x, s in ((0, "0"), (-1, "m1"), (-2, "m2"))]
        expected = [(x, name) for x, name in named if name in PARAM_NAMES]
        assert [x for x, _i in terms] == [x for x, _name in expected]
        for j in range(system.f):
            cols = [system.col_param(j, name) for _x, name in expected]
            assert [10 * j + i for _x, i in terms] == cols
    # every parameter lands in exactly one entry
    indices = sorted(i for terms in tangent._PARAM_TERMS for _x, i in terms)
    assert indices == list(range(len(PARAM_NAMES)))


def test_column_indexing(f1_nonsplit, f2_mixed):
    system = assemble_system(f1_nonsplit)
    cols = [system.col_param(0, name) for name in PARAM_NAMES]
    cols += [system.col_frame(name) for name in FRAME_NAMES]
    assert cols == list(range(14))
    assert system.col_m(0, 0, system.min_degree) == 14
    assert max(system.col_m(0, 3, e) for e in range(system.min_degree, 32)) == system.ncols - 1
    # degree-major: consecutive degrees are 4f columns apart, and every
    # (j, comp, e) of the system at b keeps its column in the one at b + p,
    # where the lower columns come first
    for rho in (f1_nonsplit, f2_mixed):
        f = rho.f
        for min_degree in (0, -3):
            low = assemble_system(rho, min_degree=min_degree)
            high = assemble_system(rho, degree_bound=low.degree_bound + rho.p, min_degree=min_degree)
            assert low.stride == high.stride == 4 * f
            lower = [
                (j, comp, e)
                for e in range(min_degree, low.degree_bound + 1)
                for j in range(f)
                for comp in range(4)
            ]
            assert [low.col_m(*key) for key in lower] == list(range(low.n_param_cols, low.ncols))
            assert [high.col_m(*key) for key in lower] == [low.col_m(*key) for key in lower]
            for j, comp, e in lower:
                assert high.col_m(j, comp, e + 1) == low.col_m(j, comp, e) + 4 * f


def test_row_labels(f1_nonsplit, f2_mixed):
    labs = assemble_system(f1_nonsplit).labels()
    non_rec = [l for l in labs if l[0] != "rec"]
    assert ("pin", "p21_0", 0) in non_rec
    assert ("pin", "frame_22", None) in non_rec
    assert ("weight", "p22_m2", 0) in non_rec
    assert ("frame", "diag", None) in non_rec
    # slots before the last carry matching-constant pins
    labs2 = assemble_system(f2_mixed).labels()
    assert ("pin", "p11_0", 0) in labs2
    assert ("pin", "p22_0", 0) in labs2
    assert ("pin", "p11_0", 1) not in labs2


def test_pivot_slot(f1_nonsplit, f2_mixed):
    assert pivot_slot(f1_nonsplit) == 0
    # f2_mixed has a_1 != 0, a_0 = 0: slot j=0 uses a_{f-1-j} = a_1
    assert pivot_slot(f2_mixed) == 0


def test_solve_claim_healthy(f1_nonsplit):
    report = solve_claim(assemble_system(f1_nonsplit))
    assert report.injective
    assert (report.kernel_dim, report.param_kernel_dim, report.m_kernel_dim) == (1, 0, 1)
    assert report.rank == 141


def test_kernel_is_scalar_direction(f1_nonsplit):
    system = assemble_system(f1_nonsplit, degree_bound=44)
    report = solve_claim(system)
    (vec,) = dense_basis(report.kernel, system.ncols, system.p)
    support = {c for c, val in enumerate(vec) if val}
    # only the degree-0 diagonal coefficients move, and they move together
    assert support == {system.col_m(0, 0, 0), system.col_m(0, 3, 0)}
    assert vec[system.col_m(0, 0, 0)] == vec[system.col_m(0, 3, 0)]


def test_consequences_and_residual(f1_nonsplit):
    report = solve_claim(assemble_system(f1_nonsplit))
    cons = consequence_report(report)
    assert cons == {
        "negative_degree_params_zero": True,
        "upper_right_zero": True,
        "lower_left_divisible": True,
        "corner_relations": True,
    }
    assert residual_check(report)


def test_residual_check_rejects_a_perturbed_vector(f2_mixed):
    """Adding 1 to one coordinate of the f=2 kernel vector breaks the
    recurrence: a correction parameter, an M coordinate at min_degree and
    one at degree_bound, and a coordinate the vector does not hold."""
    report = solve_claim(assemble_system(f2_mixed))
    system, p = report.system, f2_mixed.p
    (vec,) = report.kernel
    assert residual_check(report)
    cols = [
        system.col_param(0, "p12_m1"),
        system.col_m(0, M11, system.min_degree),
        system.col_m(1, M22, system.degree_bound),
        system.col_m(0, M12, 1),
    ]
    assert system.col_m(0, M11, system.min_degree) in vec
    assert system.col_m(0, M12, 1) not in vec
    results = []
    for c in cols:
        doctored = dict(vec)
        doctored[c] = (doctored.get(c, 0) + 1) % p
        results.append(residual_check(dataclasses.replace(report, kernel=[doctored])))
    assert results == [False, False, False, False]
    assert residual_check(report)


def test_dropping_pivot_pin_breaks_injectivity(f1_nonsplit):
    system = assemble_system(f1_nonsplit)
    report = solve_claim(system.without(("pin", "p21_0")))
    assert not report.injective
    assert report.param_kernel_dim == 1
    assert report.kernel_dim == 2
    # the relaxed system still satisfies its own residual identity
    assert residual_check(report)


def test_without_unknown_label(f1_nonsplit):
    system = assemble_system(f1_nonsplit)
    with pytest.raises(ConfigError):
        system.without(("pin", "no_such_row"))


def test_without_refuses_eliminated_rows(f1_nonsplit):
    """The recurrence rows are in the assembled system's eliminated block,
    and the whole lower system in that of the system one step higher."""
    system = assemble_system(f1_nonsplit)
    for prefix in (("rec",), ("rec", 0), ()):
        with pytest.raises(ConfigError, match="eliminated block"):
            system.without(prefix)
    _, high, _ = stability_check(f1_nonsplit, first=solve_claim(system))
    with pytest.raises(ConfigError, match="eliminated block"):
        high.system.without(("pin", "p21_0"))


def test_stability(f1_nonsplit):
    rep_low, rep_high, stable = stability_check(f1_nonsplit)
    assert stable
    assert rep_low.system.degree_bound == 31
    assert rep_high.system.degree_bound == 62
    assert rep_low.injective and rep_high.injective
    assert rep_low.m_kernel_dim == rep_high.m_kernel_dim == 1


def test_negative_min_degree(f1_nonsplit):
    report = solve_claim(assemble_system(f1_nonsplit, min_degree=-1))
    assert report.injective
    assert report.m_kernel_dim == 1


def test_weight_selector_variants(f2_mixed):
    for b in ((0, 0), (0, 1)):
        report = solve_claim(assemble_system(f2_mixed, b=b))
        assert report.injective
        assert report.m_kernel_dim == 1
        assert consequence_report(report) == {
            "negative_degree_params_zero": True,
            "upper_right_zero": True,
            "lower_left_divisible": True,
            "corner_relations": True,
        }


def test_random_instances(rng):
    # instances live in the strict-depth regime where the claim is stated
    for p in (31, 37):
        for _ in range(3):
            while True:
                rho = random_profile(rng, p, 2, deep=True)
                if not rho.semisimple():
                    break
            report = solve_claim(assemble_system(rho))
            assert report.injective
            assert report.m_kernel_dim == 1
            assert residual_check(report)


class TestRejections:
    def test_semisimple(self, f1_split):
        with pytest.raises(PreconditionError):
            assemble_system(f1_split)

    def test_irreducible(self, f1_irred):
        with pytest.raises(PreconditionError):
            assemble_system(f1_irred)

    def test_extension_field(self):
        F = GF(5, 2)
        rho = RhoBar(
            p=5, f=1, r=(2,), a=(F.gen(),), alpha=(F(1),), beta=(F(2),),
            mode="permissive", field=F,
        )
        with pytest.raises(PreconditionError):
            assemble_system(rho)

    def test_degree_bound_too_small(self, f1_nonsplit):
        with pytest.raises(ConfigError):
            assemble_system(f1_nonsplit, degree_bound=10)

    def test_positive_min_degree(self, f1_nonsplit):
        with pytest.raises(ConfigError):
            assemble_system(f1_nonsplit, min_degree=1)

    def test_bad_weight_selector(self, f1_nonsplit, f2_mixed):
        with pytest.raises(ConfigError):
            assemble_system(f1_nonsplit, b=(2,))
        # b_j = 1 is only available on free slots
        with pytest.raises(ConfigError):
            assemble_system(f2_mixed, b=(1, 0))


# ---------------------------------------------------------------------------
# assembly against the degree-by-degree twin


def reference_rec_rows(system):
    """The recurrence rows built degree by degree: every degree from the
    lowest one a phi(m) term reaches up to the bound, and at each one every
    term of every entry tested with divmod."""
    rho, p, f = system.rho, system.p, system.f
    min_degree, degree_bound = system.min_degree, system.degree_bound
    rows = []
    for j, (a11, a21, a22) in enumerate(rho.slot_coeffs):
        jm = (j - 1) % f
        delta = ((a11, 0), (a21, a22))
        sh = rho.r[j] + 1
        entries = []
        for l in (1, 2):
            for k in (1, 2):
                prev = [
                    (2 * l + t - 3, delta[t - 1][k - 1]) for t in (1, 2) if delta[t - 1][k - 1]
                ]
                here = [
                    (sh * (k - t), 2 * t + k - 3, p - delta[l - 1][t - 1])
                    for t in (1, 2)
                    if delta[l - 1][t - 1]
                ]
                params = {}
                for e, suffix in ((0, "0"), (-1, "m1"), (-2, "m2")):
                    name = "p%d%d_%s" % (l, k, suffix)
                    if name in PARAM_NAMES:
                        params[e] = system.col_param(j, name)
                entries.append((l, k, prev, here, params))
        for e in range(min(-2, min_degree, p * min_degree - sh), degree_bound + 1):
            in_window = min_degree <= e <= degree_bound
            for l, k, prev, here, params in entries:
                row = {}
                if in_window:
                    for comp, val in prev:
                        col = system.col_m(jm, comp, e)
                        row[col] = (row.get(col, 0) + val) % p
                for x, comp, val in here:
                    d, rem = divmod(e - x, p)
                    if not rem and min_degree <= d <= degree_bound:
                        col = system.col_m(j, comp, d)
                        row[col] = (row.get(col, 0) + val) % p
                if e in params:
                    row[params[e]] = (row.get(params[e], 0) - 1) % p
                if row:
                    rows.append((("rec", j, l, k, e), row))
    return rows


def twin_rows(system):
    """Every (label, row) of the system, closed groups included, with the
    recurrence rows from the degree-by-degree twin: reference_rec_rows, then
    the constraint rows of the system and of each system it extends."""
    out = reference_rec_rows(system)
    while system:
        out += zip(system.constraints, system.rows[len(system.rows) - len(system.constraints) :])
        system = system.lower
    return out


def open_twin_rows(labeled, closed):
    """The (label, row) pairs of labeled outside the closed groups (j, e)."""
    return [(lab, row) for lab, row in labeled if lab[0] != "rec" or (lab[1], lab[4]) not in closed]


@st.composite
def tangent_cases(draw):
    """A non-split prime-field profile with f 1-3, a weight selector with 1
    only on free slots, min_degree in [-40, 0] and the default or a custom
    degree bound."""
    p = draw(st.sampled_from((31, 37, 101)))
    f = draw(st.integers(1, 3))
    r = draw(st.lists(st.integers(0, p - 2), min_size=f, max_size=f))
    a = draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f).filter(any))
    units = st.lists(st.integers(1, p - 1), min_size=f, max_size=f)
    rho = RhoBar(p=p, f=f, r=r, a=a, alpha=draw(units), beta=draw(units), mode="permissive")
    free = rho.free_slots()
    b = tuple(draw(st.integers(0, 1)) if j in free else 0 for j in range(f))
    lowest = max(r) + 3
    degree_bound = draw(st.none() | st.integers(lowest, max(p, lowest) + 60))
    return rho, b, degree_bound, draw(st.integers(-40, 0))


@given(tangent_cases())
@settings(max_examples=80, deadline=None)
def test_assembly_matches_degree_by_degree_twin(case):
    """The stored (label, row) pairs are the twin's, less the closed groups
    a search over the twin's rows finds, and row_count counts those too."""
    rho, b, degree_bound, min_degree = case
    system = assemble_system(rho, b, degree_bound, min_degree)
    twin = twin_rows(system)
    closed = brute_force_closed_groups(system, min_degree)
    assert assembled_closed_groups(system) == closed
    assert len(system.zero) == 4 * len(closed)
    expected = open_twin_rows(twin, closed)
    labels = system.labels()
    assert len(labels) == len(system.rows)
    got = list(zip(labels, system.rows))
    assert got == expected
    # the same keys in the same insertion order
    assert [list(row.items()) for _lab, row in got] == [list(row.items()) for _lab, row in expected]
    assert all(lab[0] != "rec" for lab in labels[system.eliminated :])
    assert system.row_count() == len(twin)
    if rho.f == 1:
        # the slot's own M^(j-1) and phi(m) terms meet at degree 0 of entry
        # (1,1) and cancel, and the stored 0 stays in the row
        (row,) = [row for lab, row in got if lab == ("rec", 0, 1, 1, 0)]
        assert row[system.col_m(0, 0, 0)] == 0


@given(tangent_cases())
@settings(max_examples=60, deadline=None)
def test_rows_nest_one_frobenius_step_higher(case):
    """Every (label, row) of the system at b, closed groups included,
    occurs unchanged, with its keys in the same order, among those of the
    system at b + p.  A group closed at b + p at a degree up to b is closed
    at b (the degrees above b only reach more columns), so every row the
    system at b stores, the one at b + p stores too."""
    rho, b, degree_bound, min_degree = case
    low = assemble_system(rho, b, degree_bound, min_degree)
    high = assemble_system(rho, b, low.degree_bound + rho.p, min_degree)
    low_twin, high_twin = twin_rows(low), twin_rows(high)
    full = dict(high_twin)
    assert len(full) == len(high_twin) > len(low_twin)
    for label, row in low_twin:
        assert list(full[label].items()) == list(row.items()), label
    low_closed = brute_force_closed_groups(low, min_degree)
    high_closed = brute_force_closed_groups(high, min_degree)
    assert {(j, e) for j, e in high_closed if e <= low.degree_bound} <= low_closed
    higher = dict(zip(high.labels(), high.rows))
    assert len(higher) == len(high.rows) > len(low.rows)
    for label, row in zip(low.labels(), low.rows):
        assert list(higher[label].items()) == list(row.items()), label


def test_zero_column_of_delta_is_an_internal_error(monkeypatch, f2_mixed):
    """Every window row has an M^(j-1) term only because Delta_j has no zero
    column; a Delta with one leaves empty rows, and the assembly refuses."""
    factor = tangent.frobenius_factor

    def singular(rho, j):
        ((d11, _d12), (d21, _d22)), sh = factor(rho, j)
        return ((d11, 0), (d21, 0)), sh

    monkeypatch.setattr(tangent, "frobenius_factor", singular)
    with pytest.raises(InternalCheckError, match="empty recurrence row"):
        assemble_system(f2_mixed)


def test_assembly_retains_few_gc_tracked_objects():
    """The rows are bare {column: int} dicts, which the cyclic collector
    does not track, and labels() derives the labels: assembling an f=3,
    p=101 system at degree bound 3030, which stores over 1,000 rows (and
    counts over 30,000, closed groups included), leaves fewer than 100 new
    GC-tracked objects."""
    rng = random.Random("tangent-gc")
    rho = random_profile(rng, 101, 3, zero_positions=(1,), deep=True)
    assemble_system(rho, degree_bound=3030)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        system = assemble_system(rho, degree_bound=3030)
        retained = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert len(twin_rows(system)) == system.row_count() > 30000
    assert len(system.rows) > 1000
    assert retained < 100, retained


def test_system_at_the_column_cap_stores_few_rows():
    """At the column cap (p 101, f 3, degree bound 5457: 65,530 columns)
    the system stores under 5% of the rows it counts as dicts; the others
    are closed groups, one per zero column, and the count is the twin's."""
    rho = random_profile(random.Random("tangent-cap"), 101, 3, zero_positions=(), deep=True)
    system = assemble_system(rho, degree_bound=5457)
    assert system.ncols == 65530 <= tangent.MAX_TANGENT_COLUMNS
    assert system.row_count() == len(system.rows) + len(system.zero) == len(twin_rows(system))
    assert len(system.rows) < 0.05 * system.row_count()


def _solved(report):
    return (
        report.kernel,
        report.rank,
        report.kernel_dim,
        report.param_kernel_dim,
        report.m_kernel_dim,
        report.injective,
    )


def scratch_copy(system):
    """A copy of an assembled system (or of its without() copy) holding
    every row, closed groups included, as twin_rows gives them, with an
    empty eliminated block and no closed group, which solve_claim solves
    from scratch, feeding every row."""
    scratch = copy.copy(system)
    scratch.rows = [row for _lab, row in twin_rows(system)]
    scratch.eliminated, scratch.echelon, scratch.zero = 0, {}, set()
    return scratch


def assert_stability_matches_scratch(rho, b=None, degree_bound=None, min_degree=0):
    """stability_check's higher report, continued from the lower echelon,
    equals a from-scratch solve of the system at b + p, with and without a
    caller's first report, and the lower echelon is left as it was."""
    first = solve_claim(assemble_system(rho, b, degree_bound, min_degree))
    echelon = dict(first.echelon)
    low, high, stable = stability_check(rho, b, degree_bound, min_degree, first=first)
    assert low is first and first.echelon == echelon
    assert all(first.echelon[c] is row for c, row in echelon.items())
    scratch_system = assemble_system(rho, b, low.system.degree_bound + rho.p, min_degree)
    scratch = solve_claim(scratch_system)
    assert _solved(high) == _solved(scratch)
    assert high.system.ncols == scratch_system.ncols
    assert len(high.system.labels()) == len(high.system.rows)
    # the higher system stores the twin's rows less the groups closed at the
    # lower bound and those closed among the degrees above it
    twin = twin_rows(scratch_system)
    closed = brute_force_closed_groups(low.system, min_degree)
    closed |= brute_force_closed_groups(scratch_system, low.system.degree_bound + 1)
    assert sorted(map(repr, zip(high.system.labels(), high.system.rows))) == sorted(
        map(repr, open_twin_rows(twin, closed))
    )
    assert high.system.row_count() == len(twin) == scratch_system.row_count()
    assert stable == (_solved(low)[2:5] == _solved(scratch)[2:5])
    _, again, stable_again = stability_check(rho, b, degree_bound, min_degree)
    assert _solved(again) == _solved(scratch) and stable_again == stable
    # the higher system carries the lower one as its eliminated block
    block = high.system
    assert block.eliminated == len(low.system.rows)
    assert block.echelon is first.echelon
    resolved = solve_claim(block)
    assert _solved(resolved) == _solved(high)
    assert resolved.echelon == high.echelon
    # the pivot columns with the zero columns are the leading columns of the
    # row space, which a solve feeding every row finds as its pivots
    every = scratch_copy(scratch_system)
    assert len(every.rows) == scratch_system.row_count()
    leading = sorted(solve_claim(every).echelon)
    assert sorted([*high.echelon, *high.system.zero]) == leading
    assert sorted([*scratch.echelon, *scratch_system.zero]) == leading


def assert_relaxed_matches_scratch(rho, b=None, degree_bound=None, min_degree=0):
    """The negative control, continued from the recurrence block's echelon,
    equals a from-scratch solve of the rows left after dropping the pivot
    pin, and leaves the assembled system's block as it was."""
    system = assemble_system(rho, b, degree_bound, min_degree)
    block = dict(system.echelon)
    relaxed = system.without(("pin", "p21_0"))
    assert relaxed.echelon is system.echelon and relaxed.eliminated == system.eliminated
    kept = [(lab, row) for lab, row in zip(system.labels(), system.rows) if lab[:2] != ("pin", "p21_0")]
    assert list(zip(relaxed.labels(), relaxed.rows)) == kept
    assert len(relaxed.labels()) == len(relaxed.rows) == len(system.rows) - 1
    report = solve_claim(relaxed)
    # the same rows, closed groups included, with an empty eliminated
    # block, every one of them fed
    scratch = scratch_copy(relaxed)
    assert len(scratch.rows) == relaxed.row_count() == system.row_count() - 1
    assert relaxed.eliminated > 0
    assert (report.kernel, report.rank) == fp_linalg.kernel_basis(scratch.rows, system.ncols, system.p)
    assert _solved(report) == _solved(solve_claim(scratch))
    assert system.echelon == block and all(system.echelon[c] is row for c, row in block.items())


@given(tangent_cases())
@settings(max_examples=40, deadline=None)
def test_relaxed_matches_scratch_solve(case):
    assert_relaxed_matches_scratch(*case)


@given(tangent_cases())
@settings(max_examples=40, deadline=None)
def test_stability_matches_scratch_solve(case):
    assert_stability_matches_scratch(*case)


# ---------------------------------------------------------------------------
# the F_p kernel on real systems


def test_kernel_annihilates_assembled_system(f1_nonsplit):
    system = assemble_system(f1_nonsplit)
    rows = system.rows
    p = system.p
    basis, rank = fp_linalg.kernel_basis(rows, system.ncols, p)
    assert len(basis) + rank == system.ncols
    for vec in dense_basis(basis, system.ncols, p):
        for row in rows:
            assert sum(v * vec[c] for c, v in row.items()) % p == 0


def test_backend_kernel_canonical_form():
    # one vector per free column, unit at the free column
    rows = [{0: 1, 2: 3}, {1: 1, 2: 4}]
    basis, rank = fp_linalg.kernel_basis(rows, 4, 7)
    assert rank == 2
    assert len(basis) == 2
    v2, v3 = dense_basis(basis, 4, 7)
    assert v2[2] == 1 and v2[3] == 0
    assert v3[3] == 1 and v3[2] == 0
    assert v2[0] == 7 - 3 and v2[1] == 7 - 4
    assert 4 - fp_linalg.rank(rows, 7) == 2
    # unreduced entries (negative, or >= p) give the same canonical kernel
    unreduced = [{0: 8, 2: -4}, {1: -6, 2: 11}]
    assert fp_linalg.kernel_basis(unreduced, 4, 7) == (basis, rank)


# ---------------------------------------------------------------------------
# closed groups against a search over the twin's rows


def brute_force_closed_groups(system, first):
    """The (j, e), e a window degree from first on, whose four
    ("rec", j, l, k, e) rows among the system's twin rows name four columns
    between them and read M^(j-1)[e] Delta_j = 0 alone: the row of entry
    (l, k) is {column of M^(j-1)_lt at e: Delta_tk}, so no phi-term and no
    correction parameter of slot j lands in it.  (At f = 1 a phi-term of
    degree e can land on the columns of M^(j-1)[e] themselves, at e = 1
    when r = p - 2: the four rows then name four columns with other values,
    and the group is open.  Below a window from degree 0, the four rows of
    degree -1 that name only the p_m1 parameters name four columns too;
    they are left to the eliminator.)"""
    groups = {}
    for lab, row in twin_rows(system):
        if lab[0] == "rec" and lab[4] >= first:
            groups.setdefault((lab[1], lab[4]), []).append(row)
    closed = set()
    for (j, e), members in groups.items():
        a11, a21, a22 = system.rho.slot_coeffs[j]
        delta = ((a11, 0), (a21, a22))
        alone = [
            {
                system.col_m((j - 1) % system.f, 2 * l + t - 3, e): delta[t - 1][k - 1]
                for t in (1, 2)
                if delta[t - 1][k - 1]
            }
            for l, k in ((1, 1), (1, 2), (2, 1), (2, 2))
        ]
        if members == alone:
            closed.add((j, e))
    return closed


def assembled_closed_groups(system):
    """The (j, e) of the closed groups the system adds: e a degree of the
    window of its recurrence rows whose four ("rec", j, l, k, e) rows it
    does not store, the four columns of M^(j-1)[e] being in system.zero.
    Every zero column is one of a group's, the lower system's or these."""
    first = system.lower.degree_bound + 1 if system.lower else system.min_degree
    stored = {(lab[1], lab[4]) for lab in system.labels() if lab[0] == "rec"}
    out, cols = set(), set()
    for j in range(system.f):
        for e in range(first, system.degree_bound + 1):
            group = {system.col_m((j - 1) % system.f, comp, e) for comp in range(4)}
            if (j, e) not in stored:
                assert group <= system.zero
                out.add((j, e))
                cols |= group
            else:
                assert group.isdisjoint(system.zero)
    lower = system.lower.zero if system.lower else set()
    assert system.zero == lower | cols
    return out


def closed_group_cases(f, p):
    """A seeded deep non-split profile and a permissive r_j = 0 one with a
    single nonzero extension parameter, each at min_degree 0, -1 and -3
    with the default and a raised degree bound."""
    rng = random.Random("closed:%d:%d" % (f, p))
    profiles = [random_profile(rng, p, f, zero_positions=(), deep=True)]
    profiles.append(random_profile(rng, p, f, zero_positions=range(1, f), r_window=(0, 1)))
    for rho in profiles:
        for min_degree in (0, -1, -3):
            for raise_by in (None, 40):
                lowest = max(p, max(rho.r) + 3)
                bound = None if raise_by is None else lowest + raise_by
                yield rho, bound, min_degree


@pytest.mark.parametrize("f,p", [(f, p) for f in (1, 2, 3) for p in (31, 37, 101)])
def test_closed_groups_match_brute_force(f, p):
    """The groups the assembly closes are those a search over the twin's
    rows finds, and so are the groups the system one Frobenius step higher
    adds among the degrees above the lower bound; its zero columns are the
    lower system's and those of its new groups, and most recurrence rows
    are closed.  Some closed group has a column that a stored row names,
    and neither echelon, the lower or the higher, pivots on a zero
    column."""
    closed_rows = rec_rows = named = 0
    for rho, bound, min_degree in closed_group_cases(f, p):
        system = assemble_system(rho, degree_bound=bound, min_degree=min_degree)
        twin = twin_rows(system)
        found = brute_force_closed_groups(system, min_degree)
        assert found and assembled_closed_groups(system) == found
        assert len(system.zero) == 4 * len(found)
        closed_rows += 4 * len(found)
        rec_rows += len(twin) - len(system.constraints)
        named += sum(not system.zero.isdisjoint(row) for row in system.rows)
        low, high, _ = stability_check(rho, first=solve_claim(system))
        higher = high.system
        new = brute_force_closed_groups(higher, system.degree_bound + 1)
        assert assembled_closed_groups(higher) == new
        assert len(higher.zero) == len(system.zero) + 4 * len(new)
        assert system.zero <= higher.zero
        assert system.zero.isdisjoint(low.echelon) and higher.zero.isdisjoint(high.echelon)
    assert closed_rows > rec_rows / 2
    assert named


def test_elimination_without_zero_is_refused(monkeypatch):
    """A constructor that eliminates its rows without `zero` leaves an
    echelon pivoting on a column of a closed group that a phi-row of the
    slot before names, and the solve that continues it with the zero
    columns refuses it."""
    rho = random_profile(random.Random("phi-reached"), 101, 2, zero_positions=(), deep=True)
    rank = fp_linalg.rank

    def without_zero(rows, p, pivots=None, *, zero=frozenset()):
        return rank(rows, p, pivots)

    monkeypatch.setattr(fp_linalg, "rank", without_zero)
    system = assemble_system(rho)
    assert not system.zero.isdisjoint(system.echelon)
    with pytest.raises(InternalCheckError, match="pivots on one"):
        solve_claim(system)
