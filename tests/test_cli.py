import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2kisin import cli, d0, fp_linalg, kisin, serial, tangent, weights
from gl2kisin import rho as rho_mod
from gl2kisin.errors import InternalCheckError
from gl2kisin.fields import GF, FieldElement
from gl2kisin.laurent import Laurent
from gl2kisin.matrices import Mat2
from gl2kisin.weights import ADM_COMPONENTS, SerreWeightLabel, make_label

from conftest import F4_P13_CONFIG, random_profile
from test_tangent import (
    assert_relaxed_matches_scratch,
    assert_stability_matches_scratch,
    brute_force_closed_groups,
    open_twin_rows,
    reference_rec_rows,
    stored_rows,
    twin_rows,
)


@pytest.fixture
def f1_config(tmp_path):
    path = tmp_path / "f1.json"
    path.write_text(
        json.dumps(
            {
                "p": 31, "f": 1, "r": [13], "a": [7],
                "alpha": [3], "beta": [5], "mode": "strict", "seed": 5,
            }
        )
    )
    return str(path)


@pytest.fixture
def f2_config(tmp_path):
    path = tmp_path / "f2.json"
    path.write_text(
        json.dumps(
            {
                "p": 31, "f": 2, "r": [13, 15], "a": [0, 9],
                "alpha": [3, 2], "beta": [5, 11], "mode": "strict",
            }
        )
    )
    return str(path)


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out else None)


def test_describe(capsys, f1_config):
    rc, doc = run(capsys, ["describe", "--config", f1_config])
    assert rc == 0
    assert doc["depth"] == 13
    assert doc["semisimple"] is False
    assert doc["weight_count"] == 1
    assert doc["inertia"] == {"level": 1, "exponent": 14, "twist_exponent": 1}
    assert doc["free_slots"] == []


def test_weights(capsys, f2_config):
    rc, doc = run(capsys, ["weights", "--config", f2_config])
    assert rc == 0
    assert doc["count"] == 2
    assert doc["entries"][0] == {"b": [0, 0], "label": {"diffs": [13, 15], "twist": 32}}
    assert doc["entries"][1] == {"b": [0, 1], "label": {"diffs": [16, 16], "twist": 15}}


def test_adm(capsys):
    rc, doc = run(capsys, ["adm", "--f", "2"])
    assert rc == 0
    assert doc["count"] == 9
    assert doc["elements"][0]["index"] == [1, 1]
    assert doc["elements"][-1]["index"] == [3, 3]


def test_adm_needs_f_or_config(capsys):
    rc, _ = run(capsys, ["adm"])
    assert rc == 1


def test_xset(capsys, f2_config):
    rc, doc = run(capsys, ["xset", "--config", f2_config, "--sigma", "0,1"])
    assert rc == 0
    assert doc["count"] == 6
    assert sorted(map(tuple, doc["x_rho"])) == [
        (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)
    ]
    assert sorted(map(tuple, doc["x_sigma"])) == [(2, 1), (2, 2), (3, 1), (3, 2)]


def test_types_single(capsys, f1_config):
    rc, doc = run(capsys, ["types", "--config", f1_config, "--wtilde", "2"])
    assert rc == 0
    assert doc["s_tau"] == [1]
    assert doc["mu_plus_eta"] == [[14, -1]]
    assert doc["generic_depth"] == 14


def test_types_all(capsys, f2_config):
    rc, doc = run(capsys, ["types", "--config", f2_config])
    assert rc == 0
    assert doc["count"] == 6
    assert all(t["generic_depth"] >= 12 for t in doc["types"])


def test_kisin_single(capsys, f2_config):
    rc, doc = run(capsys, ["kisin", "--config", f2_config, "--wtilde", "2,1"])
    assert rc == 0
    assert doc["recovery"] is True
    assert doc["torus_rigidity"] == {"dim": 4, "expected": 4}
    slots = doc["per_slot"]
    assert [s["component_index"] for s in slots] == [2, 1]
    assert all(s["gauge"] for s in slots)
    assert all(s["height_exact"] for s in slots)
    assert [s["shape"]["adm_index"] for s in slots] == [2, 1]
    # slot-0 matrix in the frozen sparse encoding: [[0, 2v], [11v^2, 0]]
    assert slots[0]["matrix"] == [[[], [[1, 2]]], [[[2, 11]], []]]
    assert "etale" in doc


def test_kisin_all_elements(capsys, f1_config):
    rc, doc = run(capsys, ["kisin", "--config", f1_config])
    assert rc == 0
    assert doc["count"] == 2
    assert all(e["recovery"] for e in doc["elements"])
    assert "etale" not in doc["elements"][0]


def test_tangent(capsys, f1_config):
    rc, doc = run(capsys, ["tangent", "--config", f1_config])
    assert rc == 0
    assert doc["degree_bound"] == 31
    assert doc["columns"] == 142
    assert doc["rows"] == 142
    assert (doc["kernel_dim"], doc["param_kernel_dim"], doc["m_kernel_dim"]) == (1, 0, 1)
    assert doc["injective"] is True
    assert all(doc["consequences"].values())
    assert doc["residual_ok"] is True


def test_tangent_negative_control(capsys, f1_config):
    rc, doc = run(capsys, ["tangent", "--config", f1_config, "--negative-control"])
    assert rc == 0
    assert doc["injective"] is False
    assert doc["param_kernel_dim"] == 1


def test_tangent_stability(capsys, f1_config):
    rc, doc = run(capsys, ["tangent", "--config", f1_config, "--stability"])
    assert rc == 0
    assert doc["stability"]["stable"] is True
    assert doc["stability"]["higher_degree_bound"] == 62
    assert doc["stability"]["higher_dims"] == [1, 0, 1]


def _rho_of(config_path):
    with open(config_path) as fh:
        return rho_mod.RhoBar.from_config(json.load(fh))


def test_tangent_stability_solves_each_system_once(monkeypatch, capsys, f1_config):
    """Every stored row of a tangent run reaches the eliminator once, and
    no row of a closed group is built: assembly eliminates the stored
    recurrence rows, each solve feeds only the rows after its system's
    eliminated block (the constraint rows; for --negative-control those
    without the pivot pin) and --stability only the stored recurrence rows
    one Frobenius step higher.  The stored rows, mapped back to dense
    columns, are the twin's less the closed groups a search over the twin's
    rows finds, and less their entries on those groups' columns.  Each
    solve is one kernel_basis call: the full system's, the one a step
    higher, then for --negative-control the system without the pivot
    pin."""
    assembled, solved, fed, kernel_fed = [], [], [], []
    assemble, solve = tangent.assemble_system, tangent.solve_claim
    echelon, kernel_basis = fp_linalg._echelon, fp_linalg.kernel_basis

    def counting_assemble(*args, **kwargs):
        assembled.append(assemble(*args, **kwargs))
        return assembled[-1]

    def counting_solve(system):
        solved.append(system)
        return solve(system)

    # the fed rows are kept, so that no id is reused before the comparison
    def counting_echelon(rows, *args, **kwargs):
        fed.append(list(rows))
        return echelon(fed[-1], *args, **kwargs)

    def counting_kernel_basis(rows, *args, **kwargs):
        kernel_fed.append(list(rows))
        return kernel_basis(kernel_fed[-1], *args, **kwargs)

    monkeypatch.setattr(tangent, "assemble_system", counting_assemble)
    monkeypatch.setattr(tangent, "solve_claim", counting_solve)
    monkeypatch.setattr(fp_linalg, "_echelon", counting_echelon)
    monkeypatch.setattr(fp_linalg, "kernel_basis", counting_kernel_basis)

    def ids(rows):
        return [id(row) for row in rows]

    for argv, negative in ((["--stability"], False), (["--stability", "--negative-control"], True)):
        for log in (assembled, solved, fed, kernel_fed):
            log.clear()
        rc, doc = run(capsys, ["tangent", "--config", f1_config] + argv)
        assert rc == 0 and doc["stability"]["stable"] and doc["injective"] != negative
        (lower,) = assembled
        higher = solved[1]
        assert solved[0] is lower and higher.degree_bound == lower.degree_bound + 31
        labels = [lab for lab, _row in stored_rows(lower)]
        twin = twin_rows(higher, lower)
        closed = brute_force_closed_groups(lower, lower.min_degree)
        closed |= brute_force_closed_groups(higher, lower.degree_bound + 1)
        # stored_rows checks the order: lower's rows, then the new ones
        higher_labels = [lab for lab, _row in stored_rows(higher, lower)]
        assert sorted(map(repr, stored_rows(higher, lower))) == sorted(
            map(repr, open_twin_rows(higher, twin, closed))
        )
        block = lower.rows[: lower.eliminated]
        constraints = lower.rows[lower.eliminated :]
        assert block and all(lab[0] == "rec" for lab in labels[: lower.eliminated])
        assert constraints and labels[lower.eliminated :] == lower.constraints
        new = higher.rows[len(lower.rows) :]
        assert higher.rows[: len(lower.rows)] == lower.rows
        assert higher_labels[: len(lower.rows)] == labels
        assert new and all(lab[0] == "rec" for lab in higher_labels[len(lower.rows) :])
        solves = [ids(constraints), ids(new)]
        if negative:
            # the relaxed system is solved last
            relaxed = [
                row
                for lab, row in zip(lower.constraints, constraints)
                if lab[:2] != ("pin", "p21_0")
            ]
            assert len(relaxed) == len(constraints) - 1
            assert len(solved) == 3 and solved[2].rows[lower.eliminated :] == relaxed
            solves.append(ids(relaxed))
        else:
            assert len(solved) == 2
        # the other _echelon calls rank kernel projections, no system row
        every = set(ids(higher.rows))
        assert [ids(rows) for rows in fed if every & set(ids(rows))] == [ids(block)] + solves
        assert [ids(rows) for rows in kernel_fed] == solves
        assert closed and len(new) < len(twin) - len(twin_rows(lower))
        assert len(twin) == higher.row_count()
        assert doc["rows"] == len(twin_rows(lower)) - negative


def test_stability_matches_scratch_on_digest_profiles(f1_config, f2_config):
    """The higher system of every digest profile's --stability run and its
    --negative-control system, at each weight selector and at the digest
    cases' degree windows, against from-scratch solves."""
    for rho in (_rho_of(f1_config), _rho_of(f2_config), rho_mod.RhoBar.from_config(F3_P37_CONFIG)):
        free = rho.free_slots()
        selectors = itertools.product(*[(0, 1) if j in free else (0,) for j in range(rho.f)])
        for b in selectors:
            for degree_bound, min_degree in ((None, 0), (None, -3), (70, 0)):
                assert_stability_matches_scratch(rho, b, degree_bound, min_degree)
                assert_relaxed_matches_scratch(rho, b, degree_bound, min_degree)


def test_without_and_higher_labels_on_digest_profiles(f1_config, f2_config):
    """without leaves the system it copies as it was, and two drops in turn
    remove both families from its (label, row) pairs; the rows of the
    higher system of stability_check are those twin rows labeled by the
    lower system's labels, then by the recurrence labels of the p degrees
    above the lower bound, slot by slot, less the closed groups a search
    over the twin's rows finds there."""
    for rho in (_rho_of(f1_config), _rho_of(f2_config), rho_mod.RhoBar.from_config(F3_P37_CONFIG)):
        low, high, _ = tangent.stability_check(rho)
        system = low.system
        rows, constraints = list(system.rows), list(system.constraints)
        pairs = stored_rows(system)
        relaxed = system.without(("pin", "p21_0")).without(("frame",))
        assert system.rows == rows and system.constraints == constraints
        assert all(a is b for a, b in zip(system.rows, rows))
        assert stored_rows(relaxed) == [
            (lab, row) for lab, row in pairs if lab[:2] != ("pin", "p21_0") and lab[0] != "frame"
        ]
        bound = low.system.degree_bound
        closed = brute_force_closed_groups(high.system, bound + 1)
        assert closed
        new = [
            ("rec", j, l, k, e)
            for j in range(rho.f)
            for e in range(bound + 1, bound + rho.p + 1)
            if (j, e) not in closed
            for l, k in ((1, 1), (1, 2), (2, 1), (2, 2))
        ]
        labels = [lab for lab, _row in stored_rows(high.system, system)]
        assert labels == [lab for lab, _row in pairs] + new


def test_rows_counts_every_row_of_the_solved_system(tmp_path, capsys, f1_config, f2_config):
    """A tangent report's "rows" counts every row of the system it solves,
    closed groups included: the degree-by-degree twin's recurrence rows and
    the system's constraint rows, on every tangent digest profile at
    min_degree 0 and -3, with and without --negative-control.  row_count()
    of the system --stability solves one Frobenius step higher counts its
    twin's recurrence rows and the lower system's constraint rows."""
    path = tmp_path / "f3_p37.json"
    path.write_text(json.dumps(F3_P37_CONFIG))
    for config in (f1_config, f2_config, str(path)):
        rho = _rho_of(config)
        for min_degree in (0, -3):
            system = tangent.assemble_system(rho, min_degree=min_degree)
            for negative in (False, True):
                argv = ["tangent", "--config", config, "--min-degree", str(min_degree)]
                rc, doc = run(capsys, argv + ["--negative-control"] * negative)
                solved = system.without(("pin", "p21_0")) if negative else system
                assert rc == 0 and doc["min_degree"] == min_degree
                assert doc["rows"] == len(reference_rec_rows(solved)) + len(solved.constraints)
                assert doc["rows"] > len(solved.rows)
            _, high, _ = tangent.stability_check(rho, min_degree=min_degree)
            count = len(reference_rec_rows(high.system)) + len(system.constraints)
            assert high.system.row_count() == count > len(high.system.rows)


def test_residual_check_holds_without_each_constraint_family(f1_config, f2_config):
    """A global rescaling has zero residual under any Frobenius factor, so
    the assembled kernel alone does not test the residual formula.  Dropping
    the rows of one (family, name) constraint frees a correction parameter
    or a frame, and every kernel vector of that relaxed system must still
    satisfy the substituted recurrence; on every digest profile, at
    min_degree 0 and -3."""
    for rho in (_rho_of(f1_config), _rho_of(f2_config), rho_mod.RhoBar.from_config(F3_P37_CONFIG)):
        for min_degree in (0, -3):
            system = tangent.assemble_system(rho, min_degree=min_degree)
            labels = [lab for lab, _row in stored_rows(system)]
            assert labels[system.eliminated :] == system.constraints
            prefixes = {lab[:2] for lab in system.constraints}
            assert ("pin", "p21_0") in prefixes and ("frame", "diag") in prefixes
            for prefix in sorted(prefixes):
                report = tangent.solve_claim(system.without(prefix))
                assert report.kernel, prefix
                assert tangent.residual_check(report), (rho.f, min_degree, prefix)


def test_reports_derive_each_object_once(monkeypatch, capsys, f2_config):
    """xset, types and kisin build the weight set and the admissible set once
    per report.  types and kisin build each per-slot object once per
    distinct (slot, component index), at most 3f of them, and compose every
    element from those: neither builds a whole element's matrices or type
    presentation, and kisin builds the profile matrices once and checks
    each slot's height in both modes from one det."""
    origin = {
        "serre_weights": rho_mod,
        "adm_set": weights,
        "kisin_matrices": kisin,
        "tau_presentation": rho_mod,
        "type_part": rho_mod,
        "slot_matrix": kisin,
        "slot_recovers": kisin,
        "torus_slot_rows": kisin,
        "etale_matrices": kisin,
        "height_check": kisin,
        "height_checks": kisin,
    }
    calls = dict.fromkeys(origin, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    # every binding a caller can look the function up through
    for name, module in origin.items():
        fn = getattr(module, name)
        for binding in (weights, rho_mod, kisin, d0, cli):
            if getattr(binding, name, None) is fn:
                monkeypatch.setattr(binding, name, counting(name, fn))
    # the f2 profile allows 6 elements, (1, 1), ..., (3, 2): slot 0 takes the
    # component indices 1, 2, 3 and slot 1 (a_1 = 9) takes 1 and 2, so 5
    # distinct (slot, index) pairs, below 3f = 6
    per_slot = {"type_part": 5, "slot_matrix": 5, "slot_recovers": 5, "torus_slot_rows": 5}
    expected = {
        "xset": {},
        "types": {"type_part": 5},
        # both height modes of a slot come from one height_checks call
        "kisin": dict(per_slot, etale_matrices=1, height_checks=5),
    }
    for command, counts in expected.items():
        calls.update(dict.fromkeys(calls, 0))
        rc, doc = run(capsys, [command, "--config", f2_config])
        assert rc == 0 and doc["count"] == 6
        want = dict.fromkeys(origin, 0)
        want.update(serre_weights=1, adm_set=1, **counts)
        assert calls == want, command
    assert all(e["recovery"] for e in doc["elements"])


def kisin_report_per_element(args):
    """Twin of cli.cmd_kisin: every slot of every element classified and
    checked on its own."""
    rho = cli._load_rho(args)
    wtilde = cli._parse_wtilde(rho, args.wtilde) if args.wtilde else None
    targets = [wtilde] if wtilde else rho_mod.x_rho(rho)
    reports = []
    for w in targets:
        data = kisin.kisin_matrices(rho, w)
        per_slot = []
        for i in range(rho.f):
            m = data.mats[i]
            comp = ADM_COMPONENTS[w[i]]
            sh = kisin.shape_of(m)
            per_slot.append(
                {
                    "component_index": w[i],
                    "gauge": kisin.gauge_check(m, comp),
                    "height_exact": kisin.height_check(m, (2, 1)),
                    "height_window": kisin.height_check(m, (2, 1), "window"),
                    "shape": {"s": sh.s, "nu": sh.nu, "adm_index": sh.adm_index()},
                    "matrix": m,
                }
            )
        entry = {
            "index": w,
            "type": cli._type_entry(data.tau),
            "recovery": kisin.verify_recovery(data),
            "per_slot": per_slot,
        }
        if rho.field.degree == 1:
            dim, expected = kisin.torus_rigidity_dims(data)
            entry["torus_rigidity"] = {"dim": dim, "expected": expected}
        reports.append(entry)
    if wtilde:
        report = reports[0]
        report["etale"] = kisin.etale_matrices(rho)
        return report
    return {"count": len(reports), "elements": reports}


# a permissive profile below the strict depth, beside the strict ones
PERMISSIVE_P13_CONFIG = {
    "p": 13, "f": 2, "r": [3, 5], "a": [2, 0],
    "alpha": [1, 2], "beta": [5, 6], "mode": "permissive",
}


def kisin_twin_configs():
    """(name, config): every f = 1-3 zero pattern and the irreducible
    profile at p 31 and 37, one permissive profile and one over F_31^2."""
    rng = random.Random(20261018)
    for p in (31, 37):
        for f in (1, 2, 3):
            patterns = itertools.chain.from_iterable(
                itertools.combinations(range(f), k) for k in range(f + 1)
            )
            kinds = [(zeros, False) for zeros in patterns] + [((), True)]
            for zeros, irreducible in kinds:
                rho = random_profile(
                    rng, p, f, irreducible=irreducible, zero_positions=zeros, deep=True
                )
                yield "p%d f%d %s %s" % (p, f, zeros, irreducible), rho.to_config()
    yield "permissive p13", PERMISSIVE_P13_CONFIG
    yield "f2_f31sq", F2_F31SQ_CONFIG


def test_kisin_report_matches_per_element_twin(tmp_path):
    """The report classifies and checks each (slot, component index) once;
    its bytes are those of classifying every slot of every element."""
    path = str(tmp_path / "profile.json")
    parser = cli.build_parser()
    for name, cfg in kisin_twin_configs():
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        # the report on every element, and the single-element one on each
        argvs = [["kisin", "--config", path]] + [
            ["kisin", "--config", path, "--wtilde", ",".join(map(str, w))]
            for w in rho_mod.x_rho(rho_mod.RhoBar.from_config(cfg))
        ]
        for argv in argvs:
            args = parser.parse_args(argv)
            got = serial.dumps(cli.cmd_kisin(args))
            assert got == serial.dumps(kisin_report_per_element(args)), argv
            if cfg.get("field_degree", 1) > 1:
                assert '"torus_rigidity"' not in got


def test_slot_matrix_depends_on_slot_and_component_index_only():
    """kisin_matrices builds slot i from the profile and idx[i] alone, and
    slot j of the type presentation depends on the profile and idx[f-1-j]
    alone: the facts cmd_kisin's and cmd_types' per-report tables rest on."""
    for name, cfg in kisin_twin_configs():
        rho = rho_mod.RhoBar.from_config(cfg)
        f = rho.f
        first = {}
        first_type = {}
        for w in rho_mod.x_rho(rho):
            data = kisin.kisin_matrices(rho, w)
            tau = rho_mod.tau_presentation(rho, w)
            for i, k in enumerate(w):
                assert data.mats[i] == first.setdefault((i, k), data.mats[i]), (name, w, i)
            for j in range(f):
                part = (tau.s_tau[j], tau.mu_plus_eta[j])
                assert part == first_type.setdefault((j, w[f - 1 - j]), part), (name, w, j)
        assert len(first) <= 3 * f and len(first_type) <= 3 * f


def test_d0(capsys, f2_config):
    rc, doc = run(capsys, ["d0", "--config", f2_config])
    assert rc == 0
    assert doc["passed"] is True
    assert doc["total_constituents"] == 348
    assert [(c["size"], c["signs"], c["dim"]) for c in doc["components"]] == [
        (272, [0, 1], 67136),
        (76, [0, -1], 18278),
    ]


@pytest.mark.parametrize("a", [[5, 7, 11], [0, 7, 11], [0, 0, 0]])
def test_d0_builds_few_labels(monkeypatch, tmp_path, capsys, a):
    """The labels the report builds are the weight set and socle_profile's
    translations, not one per constituent."""
    path = tmp_path / "f3.json"
    path.write_text(json.dumps(dict(F3_P37_CONFIG, a=a)))
    built = []
    init = SerreWeightLabel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SerreWeightLabel, "__init__", counting_init)
    rc, doc = run(capsys, ["d0", "--config", str(path)])
    assert rc == 0 and doc["passed"]
    assert 0 < len(built) < 0.05 * doc["total_constituents"]


def test_d0_runs_no_enumeration(monkeypatch, tmp_path, capsys):
    """The report is counted: it neither builds a component nor enumerates
    an offset."""
    path = tmp_path / "f3.json"
    path.write_text(json.dumps(F3_P37_CONFIG))

    def enumerating(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(d0, "jh_component", enumerating)
    monkeypatch.setattr(d0, "_admitted_offsets", enumerating)
    rc, doc = run(capsys, ["d0", "--config", str(path)])
    assert rc == 0 and doc["passed"]


def test_describe_counts_weights_without_the_weight_set(monkeypatch, tmp_path, capsys):
    path = tmp_path / "split16.json"
    path.write_text(
        json.dumps({"p": 31, "f": 16, "r": [13] * 16, "a": [0] * 16,
                    "alpha": [3] * 16, "beta": [5] * 16})
    )
    start = time.perf_counter()
    rc, doc = run(capsys, ["describe", "--config", str(path)])
    assert time.perf_counter() - start < 0.5
    assert rc == 0 and doc["weight_count"] == 65536

    def no_weight_set(rho):
        raise AssertionError("weight set built")

    monkeypatch.setattr(cli, "serre_weights", no_weight_set)
    assert run(capsys, ["describe", "--config", str(path)]) == (rc, doc)


def test_oracle_coset(capsys):
    rc, doc = run(capsys, ["oracle", "--kind", "coset", "--trials", "6", "--seed", "3"])
    assert rc == 0
    assert doc["p"] == 2
    assert doc["agreements"] == 6
    assert doc["failures"] == []


def test_oracle_coset_draws_at_its_prec(capsys):
    """--prec N draws mod v^N with det valuation <= N - 1, so every draw is
    certifiable at v^N.  Below v^1 no matrix qualifies, and the command
    exits 1 at once instead of drawing forever; a search over the pair cap
    exits 2 before a matrix is drawn at that prec."""
    argv = ["oracle", "--kind", "coset", "--trials", "30", "--seed", "7"]
    for p, precs in (("2", range(1, 6)), ("3", range(1, 4))):
        for prec in precs:
            rc, doc = run(capsys, argv + ["--p", p, "--prec", str(prec)])
            assert rc == 0 and doc["agreements"] == 30, (p, prec)
    refusals = [
        (prec, 1, "config error: no matrix mod v^%s has det valuation <= %d\n" % (prec, int(prec) - 1))
        for prec in ("0", "-1")
    ]
    refusals += [
        (
            prec,
            2,
            "precondition failed: coset search over F_2 at v^%s exceeds 65536 candidate pairs\n"
            % prec,
        )
        for prec in ("9", "1000000000")
    ]
    for prec, code, want in refusals:
        proc = subprocess.run(
            [sys.executable, "-m", "gl2kisin.cli"] + argv + ["--prec", prec],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(cli.__file__)),
            timeout=60,
            # 1 GiB of address space: drawing at v^1000000000 fails fast
            # with MemoryError instead of filling the host's memory
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        )
        assert proc.returncode == code and proc.stderr == want, prec


def test_oracle_shape(capsys):
    rc, doc = run(capsys, ["oracle", "--kind", "shape", "--trials", "5", "--p", "31", "--seed", "4"])
    assert rc == 0
    assert doc["agreements"] == 5


def test_oracle_shape_counts_a_wrong_nu_sum(monkeypatch, capsys):
    """A shape whose witness check passes but whose nu1 + nu2 is not the
    determinant valuation fails its trial."""
    real = cli.shape_of

    def shifted(M):
        sh = real(M)
        sh.nu = (sh.nu[0] + 1, sh.nu[1])
        sh.verify = lambda M: True
        return sh

    monkeypatch.setattr(cli, "shape_of", shifted)
    rc, doc = run(capsys, ["oracle", "--kind", "shape", "--trials", "3", "--p", "31", "--seed", "4"])
    assert rc == 0
    assert doc["failures"] == [0, 1, 2]
    assert doc["agreements"] == 0


def test_oracle_tangent_residual(capsys, f1_config):
    rc, doc = run(capsys, ["oracle", "--kind", "tangent-residual", "--config", f1_config])
    assert rc == 0
    assert doc["injective"] is True
    assert doc["residual_ok"] is True


@pytest.mark.parametrize("a", [[1] * 5, [0] * 5, [0, 3, 0, 5, 7]])
def test_d0_counts_beyond_the_enumeration_cap(tmp_path, capsys, a):
    """A strict f=5, p=101 report, with 1 to 32 components and far more
    constituents than MAX_D0_CONSTITUENTS, in under a second (best of 3)."""
    path = tmp_path / "f5.json"
    path.write_text(
        json.dumps({"p": 101, "f": 5, "r": [48, 30, 60, 48, 47], "a": a,
                    "alpha": [3] * 5, "beta": [5] * 5, "mode": "strict"})
    )
    times = []
    for _ in range(3):
        start = time.perf_counter()
        rc, doc = run(capsys, ["d0", "--config", str(path)])
        times.append(time.perf_counter() - start)
        assert rc == 0 and doc["passed"] and doc["globally_multiplicity_free"]
    assert len(doc["components"]) == 2 ** a.count(0)
    assert doc["total_constituents"] > d0.MAX_D0_CONSTITUENTS
    assert min(times) < 1.0


@pytest.mark.parametrize("config", ["f1_config", "f2_config"])
def test_oracle_d0(capsys, request, config):
    path = request.getfixturevalue(config)
    rc, doc = run(capsys, ["oracle", "--kind", "d0", "--config", path])
    assert rc == 0
    assert doc["agree"] is True and doc["disagreements"] == []
    rc, report = run(capsys, ["d0", "--config", path])
    assert doc["total_constituents"] == report["total_constituents"]


def test_oracle_d0_names_disagreements(monkeypatch, capsys, f2_config):
    """A flag, a size or a dim that differs between the paths is named."""
    real = d0.d0_checks_enumerated

    def doctored(rho):
        rep = real(rho)
        rep.socles_match = False
        rep.components = rep.components[::-1]
        return rep

    monkeypatch.setattr(d0, "d0_checks_enumerated", doctored)
    rc, doc = run(capsys, ["oracle", "--kind", "d0", "--config", f2_config])
    assert rc == 0
    assert doc["agree"] is False
    assert doc["disagreements"] == ["socles_match", "sizes", "dims"]


def test_oracle_d0_dims_are_independent(monkeypatch, capsys, f2_config):
    """The enumerated dims are summed over the constituents' labels, so a
    closed form that is off names "dims" and nothing else."""
    real = d0._dim
    monkeypatch.setattr(d0, "_dim", lambda *args: real(*args) + 1)
    rc, doc = run(capsys, ["oracle", "--kind", "d0", "--config", f2_config])
    assert rc == 0
    assert doc["agree"] is False
    assert doc["disagreements"] == ["dims"]


def test_oracle_d0_pair_counts_are_independent(monkeypatch, capsys, f2_config):
    """The enumeration compares labels without _pair_count, so a pair count
    that reads 0 names every flag that the counts decide."""
    monkeypatch.setattr(d0, "_pair_count", lambda x, y, p: 0)
    rc, doc = run(capsys, ["oracle", "--kind", "d0", "--config", f2_config])
    assert rc == 0
    assert doc["agree"] is False
    assert doc["disagreements"] == [
        "per_component_distinct",
        "weight_set_only_socles",
        "globally_multiplicity_free",
    ]


def test_oracle_d0_needs_config(capsys):
    assert cli.main(["oracle", "--kind", "d0"]) == 1
    assert capsys.readouterr().err == "config error: oracle --kind d0 needs --config\n"


def test_oracle_jobs_equivalence(capsys):
    for argv in (
        ["oracle", "--kind", "coset", "--trials", "8", "--seed", "11"],
        ["oracle", "--kind", "shape", "--trials", "8", "--p", "31", "--seed", "11"],
    ):
        rc1 = cli.main(argv + ["--jobs", "1"])
        out1 = capsys.readouterr().out
        rc2 = cli.main(argv + ["--jobs", "3"])
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0, argv
        assert out1 == out2, argv


def test_output_determinism(capsys, f2_config):
    rc1 = cli.main(["d0", "--config", f2_config])
    out1 = capsys.readouterr().out
    rc2 = cli.main(["d0", "--config", f2_config])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_out_file(tmp_path, capsys, f1_config):
    target = tmp_path / "report.json"
    rc = cli.main(["describe", "--config", f1_config, "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["depth"] == 13


def test_mode_override(tmp_path, capsys):
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps({"p": 31, "f": 1, "r": [5], "a": [7], "alpha": [3], "beta": [5]}))
    # default strict mode refuses shallow profiles
    rc, _ = run(capsys, ["describe", "--config", str(path)])
    assert rc == 2
    with pytest.warns(UserWarning, match="permissive profile"):
        rc2 = cli.main(["describe", "--config", str(path), "--mode", "permissive"])
    capsys.readouterr()
    assert rc2 == 0
    # in a real run the warning is one stderr line of its kind, before the
    # failure line
    proc = subprocess.run(
        [sys.executable, "-m", "gl2kisin.cli", "tangent", "--config", str(path),
         "--mode", "permissive", "--b", "2"],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(cli.__file__)),
    )
    assert proc.returncode == 1
    warning, failure = proc.stderr.splitlines()
    assert warning.startswith("warning: permissive profile: ")
    assert failure.startswith("config error: ")


class TestExitCodes:
    def test_missing_config(self, capsys):
        rc, _ = run(capsys, ["describe"])
        assert rc == 1

    def test_unreadable_config(self, capsys):
        rc, _ = run(capsys, ["describe", "--config", "/no/such/file.json"])
        assert rc == 1

    def test_unwritable_out(self, tmp_path, capsys, f1_config):
        target = tmp_path / "no_such_dir" / "report.json"
        for out in (target, tmp_path):  # a missing directory, a directory
            assert cli.main(["describe", "--config", f1_config, "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith("config error: cannot write report:")

    def test_xset_sigma(self, capsys, f1_config, f2_config):
        # malformed: wrong length, a value outside {-1, 0, 1}, not integers
        for config, sigma in ((f1_config, "1,1"), (f1_config, "5"), (f2_config, "0,2"), (f1_config, "x")):
            assert cli.main(["xset", "--config", config, "--sigma", sigma]) == 1, sigma
            assert capsys.readouterr().err.startswith("config error:"), sigma
        # well formed, but not a b-vector of the weight set
        for config, sigma in ((f1_config, "1"), (f1_config, "-1"), (f2_config, "1,0")):
            assert cli.main(["xset", "--config", config, "--sigma", sigma]) == 2, sigma
            assert capsys.readouterr().err.startswith("precondition failed:"), sigma

    def test_xset_sigma_negative_first(self, tmp_path, capsys):
        # irreducible f=2: b_0 ranges over {0, -1}, so -1,0 is in the weight set
        path = tmp_path / "irreducible.json"
        path.write_text(
            json.dumps(
                {"p": 31, "f": 2, "r": [13, 15], "a": [0, 0], "alpha": [3, 2],
                 "beta": [5, 11], "irreducible": True}
            )
        )
        outputs = []
        for argv in (["--sigma", "-1,0"], ["--sigma=-1,0"]):
            assert cli.main(["xset", "--config", str(path)] + argv) == 0, argv
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["sigma_b"] == [-1, 0]

    def test_weight_set_cap(self, tmp_path, capsys):
        # 2^17 b-vectors, above rho.MAX_WEIGHTS: refused before enumerating
        path = tmp_path / "split17.json"
        path.write_text(
            json.dumps({"p": 31, "f": 17, "r": [13] * 17, "a": [0] * 17,
                        "alpha": [3] * 17, "beta": [5] * 17})
        )
        for command in ("describe", "weights", "d0"):
            start = time.perf_counter()
            assert cli.main([command, "--config", str(path)]) == 2, command
            assert time.perf_counter() - start < 0.5, command
            err = capsys.readouterr().err
            assert err.startswith("precondition failed: the weight set has 2^17"), command

    def test_d0_constituent_cap(self, monkeypatch, tmp_path, capsys):
        # an f=4, p=37 profile stays below d0.MAX_D0_CONSTITUENTS, and the
        # enumeration agrees with the count there
        path = tmp_path / "d0.json"
        path.write_text(
            json.dumps({"p": 37, "f": 4, "r": [13, 15, 17, 20], "a": [5, 7, 11, 3],
                        "alpha": [3, 2, 7, 1], "beta": [5, 11, 13, 2]})
        )
        rc, doc = run(capsys, ["d0", "--config", str(path)])
        assert rc == 0 and doc["passed"]
        assert doc["total_constituents"] == 154252
        rc, doc = run(capsys, ["oracle", "--kind", "d0", "--config", str(path)])
        assert rc == 0 and doc["agree"] and doc["total_constituents"] == 154252
        # one component of 367,750,000 constituents: the count reports it,
        # and the enumeration refuses it from the closed-form count; enumerating
        # fails here rather than run out of memory
        def enumerate_offsets(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(d0, "_admitted_offsets", enumerate_offsets)
        path.write_text(
            json.dumps({"p": 101, "f": 5, "r": [48, 48, 48, 48, 47], "a": [1] * 5,
                        "alpha": [3] * 5, "beta": [5] * 5})
        )
        rc, doc = run(capsys, ["d0", "--config", str(path)])
        assert rc == 0 and doc["passed"] and doc["total_constituents"] == 367750000
        start = time.perf_counter()
        assert cli.main(["oracle", "--kind", "d0", "--config", str(path)]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.startswith("precondition failed: the components have 367750000 constituents")

    def test_d0_pair_cap(self, monkeypatch, tmp_path, capsys):
        # 128 weights at f=7 are 16,384 component pairs, above d0.MAX_D0_PAIRS:
        # refused before any socle profile or count
        def counting(*args):
            raise AssertionError("counting started")

        monkeypatch.setattr(d0, "socle_profile", counting)
        monkeypatch.setattr(d0, "_pair_count", counting)
        path = tmp_path / "split7.json"
        path.write_text(
            json.dumps({"p": 101, "f": 7, "r": [48] * 7, "a": [0] * 7,
                        "alpha": [3] * 7, "beta": [5] * 7})
        )
        for command in (["d0"], ["oracle", "--kind", "d0"]):
            start = time.perf_counter()
            assert cli.main(command + ["--config", str(path)]) == 2, command
            assert time.perf_counter() - start < 0.5, command
            err = capsys.readouterr().err
            assert err == (
                "precondition failed: the profile has 128 weights, "
                "so 16384 component pairs, above the cap of 4096\n"
            ), command

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, _ = run(capsys, ["describe", "--config", str(path)])
        assert rc == 1

    def test_invalid_profile(self, tmp_path, capsys):
        good = {"p": 31, "f": 1, "r": [13], "a": [7], "alpha": [3], "beta": [5]}
        path = tmp_path / "bad.json"
        for bad in (
            {"p": 10, "r": [3], "a": [1], "alpha": [1], "beta": [1]},
            {"r": 13},
            {"r": [13.5]},
            {"f": True},
            {"a": [0], "irreducible": "no"},
            {"field_modulus": 5},
            {"alpha": [True]},
        ):
            path.write_text(json.dumps(dict(good, **bad)))
            assert cli.main(["describe", "--config", str(path)]) == 1, bad
            assert capsys.readouterr().err.startswith("config error:"), bad
        # oracle reads p, field_degree and seed itself, by the same rule
        for bad in (
            dict(good, seed="abc"),
            dict(good, seed=True),
            dict(good, field_degree="x"),
            {k: v for k, v in good.items() if k != "p"},
            [good],
        ):
            path.write_text(json.dumps(bad))
            assert cli.main(["oracle", "--config", str(path), "--trials", "1"]) == 1, bad
            assert capsys.readouterr().err.startswith("config error:"), bad
        assert cli.main(["describe", "--config", str(path), "--mode", "strict"]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_unknown_command(self, capsys):
        rc, _ = run(capsys, ["frobnicate"])
        assert rc == 1
        # --jobs belongs to oracle only
        rc, _ = run(capsys, ["kisin", "--jobs", "2"])
        assert rc == 1
        rc, _ = run(capsys, ["adm", "--f", "-1"])
        assert rc == 1

    def test_no_command(self, capsys):
        rc, _ = run(capsys, [])
        assert rc == 1

    def test_precondition(self, tmp_path, capsys):
        # tangent system on a split profile
        path = tmp_path / "split.json"
        path.write_text(
            json.dumps({"p": 31, "f": 1, "r": [13], "a": [0], "alpha": [3], "beta": [5]})
        )
        rc, _ = run(capsys, ["tangent", "--config", str(path)])
        assert rc == 2
        # an extension field above the exp/log table cap
        path = tmp_path / "huge_field.json"
        path.write_text(
            json.dumps(
                {"p": 2, "f": 1, "r": [0], "a": [0], "alpha": [1], "beta": [1],
                 "field_degree": 17, "mode": "permissive"}
            )
        )
        rc, _ = run(capsys, ["describe", "--config", str(path)])
        assert rc == 2
        # a coset search over F_31^2 above the candidate-pair cap
        path = tmp_path / "big_coset.json"
        path.write_text(
            json.dumps(
                {"p": 31, "f": 1, "r": [13], "a": [7], "alpha": [3], "beta": [5],
                 "field_degree": 2}
            )
        )
        rc, _ = run(capsys, ["oracle", "--kind", "coset", "--config", str(path), "--trials", "3"])
        assert rc == 2
        # an admissible set above weights.MAX_ADM_ELEMENTS
        rc, _ = run(capsys, ["adm", "--f", "11"])
        assert rc == 2
        # rigidity systems above tangent.MAX_TANGENT_COLUMNS, by either end
        # of the degree window
        path = tmp_path / "nonsplit.json"
        path.write_text(
            json.dumps({"p": 31, "f": 1, "r": [13], "a": [7], "alpha": [3], "beta": [5]})
        )
        for extra in (
            ["--degree-bound", str(10**9)],
            ["--min-degree", str(-(10**9))],
        ):
            rc, _ = run(capsys, ["tangent", "--config", str(path)] + extra)
            assert rc == 2, extra

    def test_negative_trials(self, capsys):
        assert cli.main(["oracle", "--kind", "coset", "--trials", "-5"]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_jobs_capped_at_trials(self, monkeypatch, capsys):
        import multiprocessing

        pools = []
        get_context = multiprocessing.get_context

        class RecordingContext:
            def __init__(self, method):
                self.ctx = get_context(method)

            def Pool(self, processes):
                pools.append(processes)
                return self.ctx.Pool(processes)

        monkeypatch.setattr(multiprocessing, "get_context", RecordingContext)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ["oracle", "--kind", "coset", "--seed", "3"]
        outs = []
        cases = (("2", "3"), ("2", "1"), ("1", "3"), ("1", "1"), ("5", "5"), ("5", "1"))
        for trials, jobs in cases:
            assert cli.main(argv + ["--trials", trials, "--jobs", jobs]) == 0
            outs.append(capsys.readouterr().out)
        # two trials get two workers, one trial runs in-process, and five
        # trials get one worker per CPU
        assert pools == [2, 2]
        assert outs[0] == outs[1] and outs[2] == outs[3] and outs[4] == outs[5]

    def test_adm_f_zero(self, capsys):
        # --f 0 is given; adm_set's own range check accepts it
        rc, doc = run(capsys, ["adm", "--f", "0"])
        assert rc == 0
        assert (doc["f"], doc["count"]) == (0, 1)

    def test_internal_error_path(self, monkeypatch, capsys, f1_config):
        def boom(args):
            raise InternalCheckError("forced")

        # main looks cmd_<command> up in the module globals on each call,
        # so the replacement runs although the parser is cached
        monkeypatch.setattr(cli, "cmd_describe", boom)
        rc = cli.main(["describe", "--config", f1_config])
        assert rc == 3

    def test_unexpected_exception(self, monkeypatch, capsys, f1_config):
        def boom(args):
            raise KeyError("forced")

        monkeypatch.setattr(cli, "cmd_describe", boom)
        rc = cli.main(["describe", "--config", f1_config])
        assert rc == 3
        err = capsys.readouterr().err
        # one line, no traceback
        assert err == "internal error: KeyError('forced')\n"


# values that no config field accepts, or that name a field out of range
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 40), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def fuzz_configs(draw):
    """Profile configs with p <= 37 and f <= 3, over prime fields and their
    quadratic extensions, mostly permissive and well-formed; now and then a
    field is dropped or replaced by junk."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13, 31, 37)))
    f = draw(st.integers(1, 3))

    def ints(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=f, max_size=f))

    irreducible = draw(st.booleans())
    cfg = {
        "p": p, "f": f, "r": ints(0, max(p - 2, 0)),
        "a": [0] * f if irreducible else ints(0, p - 1),
        "alpha": ints(1, p - 1), "beta": ints(1, p - 1),
        "mode": draw(st.sampled_from(("permissive", "permissive", "strict"))),
        "irreducible": irreducible,
    }
    if draw(st.booleans()):
        cfg["field_degree"] = draw(st.integers(1, 2))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        key = draw(st.sampled_from(sorted(cfg) + ["seed"]))
        if draw(st.booleans()):
            cfg.pop(key, None)
        else:
            cfg[key] = draw(_JUNK)
    return cfg


@st.composite
def fuzz_argvs(draw):
    """A command with its options; "CONFIG" stands for the config path."""
    command = draw(
        st.sampled_from(
            ("describe", "weights", "adm", "xset", "types", "kisin", "tangent", "d0", "oracle")
        )
    )
    argv = [command]
    config = draw(st.sampled_from(("CONFIG",) * 10 + ("missing", None)))
    if config:
        argv += ["--config", config]
    ints = st.lists(st.integers(-2, 4), min_size=1, max_size=4).map(
        lambda xs: ",".join(map(str, xs))
    )
    options = {
        "adm": [("--f", st.integers(-1, 4).map(str))],
        "xset": [("--sigma", ints)],
        "types": [("--wtilde", ints)],
        "kisin": [("--wtilde", ints)],
        "tangent": [
            ("--b", ints),
            ("--min-degree", st.integers(-3, 1).map(str)),
            ("--degree-bound", st.integers(0, 80).map(str)),
            ("--stability", st.none()),
            ("--negative-control", st.none()),
        ],
        "oracle": [
            ("--kind", st.sampled_from(("coset", "shape", "d0", "tangent-residual", "other"))),
            ("--trials", st.integers(-1, 2).map(str)),
            ("--prec", st.integers(1, 3).map(str)),
            ("--p", st.sampled_from(("2", "3", "31"))),
            ("--seed", st.integers(0, 9).map(str)),
        ],
    }.get(command, [])
    for flag, values in options:
        if draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is None else [flag, value]
    return argv


def show_on_stderr(message, category, filename, lineno, file=None, line=None):
    """What Python does with a warning outside a recorder: format it with
    warnings.formatwarning and write it to stderr."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def test_exit_codes_fuzz(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"

    @given(fuzz_configs(), fuzz_argvs())
    @settings(max_examples=200, deadline=None)
    def check(cfg, argv):
        """Every run exits 0, 1 or 2 and prints no traceback.  stderr holds
        at most the permissive-profile warning line and, on a failure, one
        line of its kind."""
        path.write_text(json.dumps(cfg))
        argv = [str(path) if a == "CONFIG" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # the warning reaches stderr as in a real run, not pytest's record
            warnings.simplefilter("default")
            warnings.showwarning = show_on_stderr
            rc = cli.main(argv)
        err = err.getvalue()
        assert "Traceback" not in err, argv
        lines = err.splitlines(keepends=True)
        if lines and lines[0].startswith("warning: permissive profile: "):
            lines.pop(0)
        if rc == 0:
            json.loads(out.getvalue())
            assert lines == [], argv
        else:
            kind = {1: "config error: ", 2: "precondition failed: "}.get(rc)
            assert kind is not None, (rc, argv, err)
            assert len(lines) == 1 and lines[0].startswith(kind) and lines[0].endswith("\n"), err
            assert out.getvalue() == "", argv

    check()


def test_parser_built_once(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert cli.main(["adm", "--f", "1"]) == 0
    # the root, the shared options and one parser per command
    assert len(built) == 11
    assert cli.main(["describe"]) == 1
    assert len(built) == 11


def test_serial_encodes_library_types():
    F = GF(3, 2)
    m = Mat2(
        F,
        Laurent.from_pairs(F, [(2, 1), (-1, 4)]),
        Laurent.zero(F),
        Laurent.const(F, F(5)),
        Laurent.monomial(F, 1, 0),
    )
    doc = {"z": F(5), "m": m, "w": (2, 3), "label": make_label((13,), 40, 31)}
    assert json.loads(serial.dumps(doc)) == {
        "label": {"diffs": [13], "twist": 10},
        "m": [[[[-1, 4], [2, 1]], []], [[[0, 5]], [[0, 1]]]],
        "w": [2, 3],
        "z": 5,
    }
    with pytest.raises(TypeError):
        serial.dumps({"x": object()})


def test_console_script_entry_point():
    # run from the directory holding the imported package, so that a bare
    # checkout needs no PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "gl2kisin.cli", "adm", "--f", "1"],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(cli.__file__)),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 3


# A strict f=3 profile over F_37 and an f=2 profile over F_31^2, beside the
# f1/f2 fixtures above.
F3_P37_CONFIG = {
    "p": 37, "f": 3, "r": [14, 17, 20], "a": [5, 0, 11],
    "alpha": [3, 2, 7], "beta": [5, 11, 13], "mode": "strict",
}
F2_F31SQ_CONFIG = {
    "p": 31, "f": 2, "r": [13, 15], "a": [0, 500], "alpha": [3, 700],
    "beta": [5, 11], "field_degree": 2, "mode": "strict",
}

# sha256 of stdout per case; any change to a report's bytes shows here.
STDOUT_DIGESTS = {
    "f1 describe": "4b8b304b7e66070c618558f613a6773bdfe5347033ec789fab73d2ee21643afb",
    "f1 weights": "49e3ae402e58d762ec0879d0cb867644f42a197bc71f7a2d4594723b6d65c4b9",
    "f1 xset": "bed8a1d3ce98a58232f90202408cb277ebfc0ebbd54f568c85097670d838cdfa",
    "f1 types": "d8dd6a9d9fe4b918eb6d2b653dc65425b90904fbea42c9b02f3dd488ef6867ef",
    "f1 kisin": "c354be6f1bdb2e351d863ebd1b9674a30707d7a3b73a075e92f7d4417ee848f8",
    "f1 d0": "8dc8a3f972d4307063939ff9adda30a0d31a751e55aa5f58f470cdda58c570bc",
    "f1 tangent": "da4a377aec62f517611ff310f95fb7d9975682f518e76fe0faf72830b1bc568b",
    "f1 tangent --stability": "4217d14bbce25d7ab6de54f2279ae061647365debe6fbb19393a94fb7db6cf4c",
    "f1 tangent --negative-control": "8f78b676e9f46fa13dedc3cc85089979c4ed40350065a6a181223aff1d014476",
    "f1 tangent --stability --negative-control": "5fa57ec4e46ca3257f9a11c5f85baedeff9aaab2372115e3a5d0e5edf7516b2f",
    "f1 tangent --min-degree -3 --stability": "15850b348e9d7a400d34d6c7fee47e9ac0a20416d94d8059cfb9f7d2caf29cd5",
    "f1 tangent --degree-bound 70": "607b708283f608f4abc7f630db339f09c1ef18f5eeb6e89831e81a8c88201e8c",
    "f2 describe": "fc982106a298f2437dd2c02a9374c6314bfce150e2add54688ebd6ae8e7c55ce",
    "f2 weights": "f1ec389ae321e7668cb1289318365187031a290342a206169f4efecc604a8e86",
    "f2 xset": "f5b927a1304f5c9d9ad47096ac34b0d2c53880e59117bdd01c3bc7bbd3d681d8",
    "f2 types": "5b795b5f7a6becfe35b5ccc626c518b9ed558c8a32e8605dac83d3150cd9498f",
    "f2 kisin": "13a633c56e98960ffabc489ca75df414f2449e142c31d4318c9b1fa01cca8b28",
    "f2 d0": "3dcd3d9656ee63285be13e74b259013cf385afe6ede6629e0d500c7733e69163",
    "f2 tangent": "53a9d289ad97ffd1f88f83050022298ec18f079bbe678f2c32249a5d99dafae2",
    "f2 tangent --stability": "bb0df29db5a002706207334f86f015ed07969d8b02ecd7c8349aabe165e50255",
    "f2 tangent --negative-control": "9d32cea5654b308d2df4971f68ac0af717ee364b4a38c28d0c31f2da87da6e20",
    "f2 tangent --stability --negative-control": "210b85f58ea82d68a27e6c9367e24efe8a13e368465267b4fa44ae28b1014a06",
    "f2 tangent --min-degree -3 --stability": "4feed250e9210d33842af1aed3433bcccbab52974f42bf5e21916410220c8105",
    "f2 tangent --degree-bound 70": "9e45ce0b2daf50be255415d186ff00d0c42f232baa48d477cbdab8b08f791a3c",
    "f3_p37 describe": "3ee1f789b78b7b1646a789bfc6a776805377a3fe31eeecb21d7f86c073a6f4a3",
    "f3_p37 weights": "bdd990865d53f17a45b908dae01c9ce17cf04ab9ee4eff9834669249d4514380",
    "f3_p37 xset": "27a54f50cfc6f82e06c1b4cd8430cc1d5dbb570ea5266ef23e9d0390cc05a6a5",
    "f3_p37 types": "aaf05234f584964af9d620367d07c48e56455f13b099c2f7b092c57c8ba8b635",
    "f3_p37 kisin": "13a96447d57e938d177268c4b4559ab3274d177798e2d6fc7e15185930017809",
    "f3_p37 d0": "ff083500ec37cbb95051753806134057ffdcf584f0e4844b4d665455ea1c2c1d",
    "f3_p37 tangent": "68a16d8d1246b7ef23776e6a994a6a5ca94bd93ec47d2f16747d1c7d1f3440dd",
    "f3_p37 tangent --stability": "4270ee32e69fbe65032063bda54ca9145eae5ad17dd8e52a56a482f60a7b5a1e",
    "f3_p37 tangent --negative-control": "b97380eaec7a7b123ce34d1eb7690134b10b252d0a246a0ed9ffa8f5516b9cfd",
    "f3_p37 tangent --stability --negative-control": "7e01b89bbc1142e4650ad9f0a266164e09c80d74a48c2f1e09f80866330a5f3e",
    "f3_p37 tangent --min-degree -3 --stability": "0d875dead431541611ec128586b401dbea587d309cb3ad5d21fa34c1daa6bed4",
    "f3_p37 tangent --degree-bound 70": "1a39f6060e5e1b04cdf78e12d288f4f9cf6deee1aeeebbc3e817fb717ca80d84",
    "f2_f31sq describe": "71a3f14802125c4dce34764846e7320c3ec5adc32e3cee6c7b476a10b66f2379",
    "f2_f31sq weights": "f1ec389ae321e7668cb1289318365187031a290342a206169f4efecc604a8e86",
    "f2_f31sq xset": "f5b927a1304f5c9d9ad47096ac34b0d2c53880e59117bdd01c3bc7bbd3d681d8",
    "f2_f31sq types": "5b795b5f7a6becfe35b5ccc626c518b9ed558c8a32e8605dac83d3150cd9498f",
    "f2_f31sq kisin": "c499197b467e205deaa51274074a75c14d4cff1a4ea42d8154db467eec5c31e8",
    "f2_f31sq d0": "3dcd3d9656ee63285be13e74b259013cf385afe6ede6629e0d500c7733e69163",
    "f4_p13 d0": "08562698a6adae7de7a7b6d287de1990cb316120a5c312aab806fec9d200c226",
    "adm f2": "21682ed73dcebbb7745112caeddcd8b1b93b03ab4d2ba88875b7f6a989b8dfbd",
    "oracle coset": "b4d59af55c8d1b5b503413b3429b4646dee32ff262f64e100215c15e2910ee79",
    "oracle shape": "9d5b7ec04b4f48b6365bdf212032524f2c312befbf72eed97dfa44ae56218da8",
    "f1 oracle d0": "de9e4148232e1b224fdd76975285a68fef3731f86071bc92019f485ed963cedd",
    "f2 oracle d0": "f9e8a0692377f76a2d57e7588e6aa9339cb44ee07cf61a5021560ea8329a1c1c",
}


def _digest_cases(tmp_path, f1_config, f2_config):
    """(case, argv) of every digest case; the configs beside the fixtures are
    written to tmp_path."""
    configs = {"f1": f1_config, "f2": f2_config}
    for name, cfg in (("f3_p37", F3_P37_CONFIG), ("f2_f31sq", F2_F31SQ_CONFIG)):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(cfg))
        configs[name] = str(path)
    f4_path = tmp_path / "f4_p13.json"
    f4_path.write_text(json.dumps(F4_P13_CONFIG))
    yield "f4_p13 d0", ["d0", "--config", str(f4_path)]
    for name, path in configs.items():
        for cmd in ("describe", "weights", "xset", "types", "kisin", "d0"):
            yield "%s %s" % (name, cmd), [cmd, "--config", path]
        if name != "f2_f31sq":  # the rigidity system is over prime fields only
            # the last two reach below degree 0 and above the default bound
            # (70 > max(r) + 3 on every config here)
            for flags in (
                [], ["--stability"], ["--negative-control"], ["--stability", "--negative-control"],
                ["--min-degree", "-3", "--stability"], ["--degree-bound", "70"],
            ):
                yield " ".join([name, "tangent"] + flags), ["tangent", "--config", path] + flags
    yield "adm f2", ["adm", "--f", "2"]
    yield "oracle coset", ["oracle", "--kind", "coset", "--trials", "20", "--seed", "7"]
    yield "oracle shape", ["oracle", "--kind", "shape", "--trials", "20", "--p", "31", "--seed", "7"]
    for name in ("f1", "f2"):
        yield "%s oracle d0" % name, ["oracle", "--kind", "d0", "--config", configs[name]]


def test_stdout_digests(tmp_path, capsys, f1_config, f2_config):
    digests = {}
    out_path = tmp_path / "report.json"
    for case, argv in _digest_cases(tmp_path, f1_config, f2_config):
        assert cli.main(argv) == 0, case
        stdout = capsys.readouterr().out.encode()
        digests[case] = hashlib.sha256(stdout).hexdigest()
        # --out writes the same bytes
        assert cli.main(argv + ["--out", str(out_path)]) == 0, case
        assert capsys.readouterr().out == ""
        assert out_path.read_bytes() == stdout, case
    assert digests == STDOUT_DIGESTS


# sha256 of stdout for the commands that read an admissible element from
# --wtilde or print admissible elements by their indices
ELEMENT_DIGESTS = {
    "f2 types --wtilde 2,1": "b997fe979ddf126c0090b51ffec3218c17fbd4c4fa4d185ff67383d278c8739a",
    "f2 kisin --wtilde 2,1": "e7b3bd82d9b81ea399236ab7f0a0f8094571e16d92ca69daaffddfcdb156420e",
    "f3_p37 kisin --wtilde 1,2,1": "c2a49175ef7bf28dc2cb65f213514e050fe24a46e48a97fcb26b2aa582aa20f4",
    "f2 xset --sigma 0,1": "140446e1957095dac447dba80a44a7917908e08367e13bcc5d8752b4d499f2f6",
    "adm f3": "a44caa28764454ad0fbec33ba6aab54e21a434ae24fa458354c81adbf1d333eb",
}


def _element_cases(tmp_path, f2_config):
    """{case: argv} of every element digest case; the f3_p37 config is
    written to tmp_path."""
    f3_path = tmp_path / "f3_p37.json"
    f3_path.write_text(json.dumps(F3_P37_CONFIG))
    return {
        "f2 types --wtilde 2,1": ["types", "--config", f2_config, "--wtilde", "2,1"],
        "f2 kisin --wtilde 2,1": ["kisin", "--config", f2_config, "--wtilde", "2,1"],
        "f3_p37 kisin --wtilde 1,2,1": ["kisin", "--config", str(f3_path), "--wtilde", "1,2,1"],
        "f2 xset --sigma 0,1": ["xset", "--config", f2_config, "--sigma", "0,1"],
        "adm f3": ["adm", "--f", "3"],
    }


def test_element_digests(tmp_path, capsys, f2_config):
    digests = {}
    for case, argv in _element_cases(tmp_path, f2_config).items():
        assert cli.main(argv) == 0, case
        digests[case] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == ELEMENT_DIGESTS


# sha256 of stdout on the all-split p=101 profile at f=6 and f=8, keyed by
# (command, f); the xset values were pinned before x_rho's union check built
# each X(sigma) as a product, the types and kisin values before their
# per-slot tables were rewritten
ALL_SPLIT_DIGESTS = {
    ("xset", 6): "77c0826a02cd6a57ffec389de08a38ba0f3dbeef601df1e644f879338c07e52a",
    ("xset", 8): "18444a09bf3af014c1694eff7d8565a4109646e7369015e08f07ca46881c2731",
    ("types", 6): "6a6e0431bf8d71c67858ef50be34a8ebde078f8b88e2826549629d599c0f84ae",
    ("types", 8): "86073bbefefb51f2ac6a6abdbe03eb8b77c3cb1ec84bd3fd099c24e440c066f2",
    ("kisin", 6): "4e7f661b29c39439c5d42de1f0031996a43bba34d41f30191eecb7544bee9d12",
    ("kisin", 8): "e2be1209959399cea1edc66613189ce2ff0013ee20e6ba0353262be06b1e0728",
}


def test_all_split_digests(tmp_path, capsys):
    digests = {}
    for cmd, f in ALL_SPLIT_DIGESTS:
        path = tmp_path / ("split%d.json" % f)
        path.write_text(
            json.dumps({"p": 101, "f": f, "r": [48] * f, "a": [0] * f,
                        "alpha": [3] * f, "beta": [5] * f})
        )
        assert cli.main([cmd, "--config", str(path)]) == 0, (cmd, f)
        digests[cmd, f] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == ALL_SPLIT_DIGESTS


NOT_ALLOWED = (
    "is not allowed for this profile: a slot with nonzero extension parameter "
    "would need the translation-(1,2) component"
)


@pytest.mark.parametrize(
    "config, argv, code, line",
    [
        ("f1", ["kisin", "--wtilde", "3"], 2, "precondition failed: element (t(1,2)) " + NOT_ALLOWED),
        ("f2", ["kisin", "--wtilde", "1,3"], 2,
         "precondition failed: element (t(2,1), t(1,2)) " + NOT_ALLOWED),
        ("f1", ["kisin", "--wtilde", "4"], 1,
         "config error: admissible indices are 1, 2, 3; got (4,)"),
        ("f1", ["types", "--wtilde", "4"], 1,
         "config error: admissible indices are 1, 2, 3; got (4,)"),
        ("f2", ["kisin", "--wtilde", "1,0"], 1,
         "config error: admissible indices are 1, 2, 3; got (1, 0)"),
        ("f2", ["kisin", "--wtilde", "1"], 1, "config error: --wtilde needs 2 components"),
    ],
)
def test_wtilde_failures(capsys, f1_config, f2_config, config, argv, code, line):
    path = {"f1": f1_config, "f2": f2_config}[config]
    assert cli.main(argv[:1] + ["--config", path] + argv[1:]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


def test_reports_build_no_field_elements(monkeypatch, tmp_path, capsys, f1_config, f2_config):
    # every layer computes on residues; FieldElement is only the public type
    # a user builds and reads, so no report constructs one
    built = []
    init = FieldElement.__init__

    def counting_init(self, field, n):
        built.append(n)
        init(self, field, n)

    monkeypatch.setattr(FieldElement, "__init__", counting_init)
    for case, argv in _digest_cases(tmp_path, f1_config, f2_config):
        assert cli.main(argv) == 0, case
        capsys.readouterr()
        assert len(built) == 0, case
    assert GF(31)(3) == 3 and len(built) == 1  # the patch counts
