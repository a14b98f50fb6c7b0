import pytest

from gl2kisin import fp_linalg
from gl2kisin.errors import ConfigError, PreconditionError
from gl2kisin.fields import GF
from gl2kisin.rho import RhoBar
from gl2kisin.tangent import (
    FRAME_NAMES,
    PARAM_NAMES,
    assemble_system,
    consequence_report,
    pivot_slot,
    residual_check,
    solve_claim,
    stability_check,
)

from conftest import random_profile


def test_layout_frozen(f1_nonsplit):
    system = assemble_system(f1_nonsplit)
    assert system.degree_bound == 31  # max(p, r_max + 3)
    assert system.ncols == 142
    assert system.n_param_cols == 14
    big = assemble_system(f1_nonsplit, degree_bound=44)
    assert big.ncols == 194


def test_column_indexing(f1_nonsplit):
    system = assemble_system(f1_nonsplit)
    cols = [system.col_param(0, name) for name in PARAM_NAMES]
    cols += [system.col_frame(name) for name in FRAME_NAMES]
    assert cols == list(range(14))
    assert system.col_m(0, 0, system.min_degree) == 14
    # consecutive degrees are adjacent columns
    assert system.col_m(0, 2, 5) == system.col_m(0, 2, 4) + 1
    assert max(system.col_m(0, 3, e) for e in range(system.min_degree, 32)) == system.ncols - 1


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
    (vec,) = report.kernel
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
# the F_p kernel on real systems


def test_kernel_annihilates_assembled_system(f1_nonsplit):
    system = assemble_system(f1_nonsplit)
    rows = [row for _lab, row in system.rows]
    p = system.p
    basis, rank = fp_linalg.kernel_basis(rows, system.ncols, p)
    assert len(basis) + rank == system.ncols
    for vec in basis:
        for row in rows:
            assert sum(v * vec[c] for c, v in row.items()) % p == 0


def test_backend_kernel_canonical_form():
    # one vector per free column, unit at the free column
    rows = [{0: 1, 2: 3}, {1: 1, 2: 4}]
    basis, rank = fp_linalg.kernel_basis(rows, 4, 7)
    assert rank == 2
    assert len(basis) == 2
    v2, v3 = basis
    assert v2[2] == 1 and v2[3] == 0
    assert v3[3] == 1 and v3[2] == 0
    assert v2[0] == 7 - 3 and v2[1] == 7 - 4
    assert fp_linalg.kernel_dim(rows, 4, 7) == 2
    # unreduced entries (negative, or >= p) give the same canonical kernel
    unreduced = [{0: 8, 2: -4}, {1: -6, 2: 11}]
    assert fp_linalg.kernel_basis(unreduced, 4, 7) == (basis, rank)
