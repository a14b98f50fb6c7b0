"""Reachability gate: every function defined in src/gl2kisin is called by a
product path, or is named in one of the UNCALLED_GROUPS below, each of
which states a claim about its entries that a test here checks.

The product paths are every stdout and element digest argv of test_cli, the
shape and tangent-residual oracles, and the seeded pool and round 0 of each
benchmark workload (perfbench/workloads.py, read and never modified), all
run in this process under sys.setprofile.  A def is matched by its code
object's file and first line, so nested functions count on their own.  A
function that a product path stops calling fails here until it is deleted
or listed; a listed one that a product path starts calling fails too, so
the list stays exact."""

import ast
import contextlib
import inspect
import io
import pathlib
import sys
import warnings

import gl2kisin
from gl2kisin import cli, fields

from test_bench_workloads import workloads
from test_cli import (  # noqa: F401 - f1_config and f2_config are fixtures
    _digest_cases,
    _element_cases,
    f1_config,
    f2_config,
    show_on_stderr,
)
from test_tracer_targets import tracer

SRC = pathlib.Path(cli.__file__).parent

# the uncalled defs by group; the tests below check the claims of the
# public API and tracer target groups
UNCALLED_GROUPS = {
    # functions in gl2kisin.__all__, and methods of the classes it exports,
    # that no command or workload calls
    "public API": {
        "kisin.iwahori_check",
        "fields.FieldElement.coeffs",
        "fields.FieldElement.frobenius",
        "fields.FieldElement.to_int",
        "fields.FiniteField.elements",
        "fields.FiniteField.gen",
        "fields.FiniteField.one",
        "fields.FiniteField.units",
        "laurent.Laurent.coeff",
        "laurent.Laurent.coeffs",
        "laurent.Laurent.const",
        "laurent.Laurent.from_pairs",
        "laurent.Laurent.shift",
        "laurent.Laurent.truncate",
        "matrices.Mat2.elementary",
        "matrices.Mat2.identity",
        "matrices.Mat2.scale",
        "rho.RhoBar.semisimplification",
    },
    # benchmark tracer targets (perfbench/tracer.py TARGETS) that no command
    # or workload calls; their metrics read 0
    "tracer target": {
        "fields.FieldElement.__add__",
        "fields.FieldElement.inverse",
        "laurent.Laurent.__add__",
        "laurent.Laurent.__mul__",
        "laurent.series_div",
        "laurent.series_inverse",
        "kisin.height_check",
        "kisin.kisin_matrices",
        "kisin.torus_rigidity_dims",
        "kisin.verify_recovery",
    },
    # dunders of the element, field, polynomial, matrix and profile types,
    # and the helpers only they call
    "dunder": {
        "fields.FieldElement.__eq__",
        "fields.FieldElement.__hash__",
        "fields.FieldElement.__neg__",
        "fields.FieldElement.__pow__",
        "fields.FieldElement.__repr__",
        "fields.FieldElement.__rsub__",
        "fields.FieldElement.__rtruediv__",
        "fields.FieldElement.__sub__",
        "fields.FieldElement.__truediv__",
        "fields.FiniteField.__hash__",
        "fields.FiniteField.__reduce__",
        "fields.FiniteField.__repr__",
        "fields._table_ops.power",
        "laurent.Laurent.__eq__",
        "laurent.Laurent.__hash__",
        "laurent.Laurent.__neg__",
        "laurent.Laurent.__repr__",
        "laurent.Laurent.__rsub__",
        "laurent.Laurent.__sub__",
        "laurent.Laurent._coerce",
        "laurent.neg_terms",
        "matrices.Mat2.__add__",
        "matrices.Mat2.__hash__",
        "matrices.Mat2.__neg__",
        "matrices.Mat2.__repr__",
        "rho.RhoBar.__repr__",
    },
    # command-line paths no digest argv takes: a malformed argv, and an
    # oracle seed read from --config
    "untaken argv": {
        "cli._Parser.error",
        "cli._config_int",
    },
}
ALLOWED_UNCALLED = frozenset().union(*UNCALLED_GROUPS.values())


def _defs():
    """{(file, first line): 'module.qualified.name'} of every def in the
    package; a decorated def's code starts at its first decorator."""
    out = {}

    def walk(node, filename, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(filename, first)] = name
                walk(child, filename, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, filename, prefix + child.name + ".")
            else:
                walk(child, filename, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), path.stem + ".")
    return out


def _product_paths(tmp_path, f1_config, f2_config):
    argvs = [argv for _case, argv in _digest_cases(tmp_path, f1_config, f2_config)]
    argvs += list(_element_cases(tmp_path, f2_config).values())
    argvs.append(["oracle", "--kind", "shape", "--trials", "5", "--p", "31", "--seed", "4"])
    argvs.append(["oracle", "--kind", "tangent-residual", "--config", f1_config])
    for argv in argvs:
        # the f4_p13 config is permissive, and its warning reaches stderr as
        # in a real run, not pytest's record
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("default")
            warnings.showwarning = show_on_stderr
            assert cli.main(argv) == 0, argv
    for name in workloads.NAMES:
        # build() installs a warnings filter; keep it inside this loop
        with warnings.catch_warnings():
            pool = workloads.build(name, 1, str(tmp_path), lambda: None)
            for _kind, item, args in pool[0]:
                item(*args)


def test_uncalled_defs_are_exactly_the_allowlist(tmp_path, f1_config, f2_config):
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    # a cached function runs on its first call only, which an earlier test
    # may have made
    cli.build_parser.cache_clear()
    fields._zech_tables.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _product_paths(tmp_path, f1_config, f2_config)
    finally:
        sys.setprofile(previous)
    reached = {(code.co_filename, code.co_firstlineno) for code in called}
    uncalled = {name for key, name in _defs().items() if key not in reached}
    assert sorted(uncalled - ALLOWED_UNCALLED) == []
    assert sorted(ALLOWED_UNCALLED - uncalled) == []


def test_uncalled_groups_are_disjoint():
    assert sum(map(len, UNCALLED_GROUPS.values())) == len(ALLOWED_UNCALLED)


def test_public_api_group_is_exported():
    """Each entry is a function in gl2kisin.__all__, or a method of a class
    exported there, defined in the entry's module."""
    for entry in UNCALLED_GROUPS["public API"]:
        module, name, *method = entry.split(".")
        assert name in gl2kisin.__all__, entry
        obj = getattr(gl2kisin, name)
        assert obj.__module__ == "gl2kisin." + module, entry
        if method:
            (attr,) = method
            assert isinstance(obj, type) and attr in vars(obj), entry
        else:
            assert inspect.isfunction(obj), entry


def test_tracer_target_group_is_traced():
    targets = {"%s.%s" % (module, path) for _name, module, path in tracer.TARGETS}
    assert sorted(UNCALLED_GROUPS["tracer target"] - targets) == []
