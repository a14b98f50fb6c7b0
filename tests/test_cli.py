import json
import subprocess
import sys

import pytest

from gl2kisin import cli
from gl2kisin.errors import InternalCheckError


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


def test_d0(capsys, f2_config):
    rc, doc = run(capsys, ["d0", "--config", f2_config])
    assert rc == 0
    assert doc["passed"] is True
    assert doc["total_constituents"] == 348
    assert [(c["size"], c["signs"], c["dim"]) for c in doc["components"]] == [
        (272, [0, 1], 67136),
        (76, [0, -1], 18278),
    ]


def test_oracle_coset(capsys):
    rc, doc = run(capsys, ["oracle", "--kind", "coset", "--trials", "6", "--seed", "3"])
    assert rc == 0
    assert doc["p"] == 2
    assert doc["agreements"] == 6
    assert doc["failures"] == []


def test_oracle_shape(capsys):
    rc, doc = run(capsys, ["oracle", "--kind", "shape", "--trials", "5", "--p", "31", "--seed", "4"])
    assert rc == 0
    assert doc["agreements"] == 5


def test_oracle_tangent_residual(capsys, f1_config):
    rc, doc = run(capsys, ["oracle", "--kind", "tangent-residual", "--config", f1_config])
    assert rc == 0
    assert doc["injective"] is True
    assert doc["residual_ok"] is True


def test_oracle_jobs_equivalence(capsys):
    argv = ["oracle", "--kind", "coset", "--trials", "8", "--seed", "11"]
    rc1 = cli.main(argv + ["--jobs", "1"])
    out1 = capsys.readouterr().out
    rc2 = cli.main(argv + ["--jobs", "3"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


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


class TestExitCodes:
    def test_missing_config(self, capsys):
        rc, _ = run(capsys, ["describe"])
        assert rc == 1

    def test_unreadable_config(self, capsys):
        rc, _ = run(capsys, ["describe", "--config", "/no/such/file.json"])
        assert rc == 1

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

    def test_internal_error_path(self, monkeypatch, capsys, f1_config):
        def boom(args):
            raise InternalCheckError("forced")

        # build_parser resolves cmd_describe from module globals on each call
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


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gl2kisin.cli", "adm", "--f", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 3
