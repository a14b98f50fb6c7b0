"""Every function the benchmark's tracer wraps still exists in the package,
so a refactor that renames or removes one fails here and not only in
`perfbench/run.py --self-test`.  perfbench is read, never modified."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolves(module_name, path):
    importlib.import_module("%s.%s" % (tracer.PACKAGE, module_name))
    try:
        _owner, _raw, fn = tracer._resolve(module_name, path)
    except (AttributeError, KeyError):
        return False
    return callable(fn)


def test_every_target_resolves_to_a_callable():
    assert tracer.TARGETS
    for name, module_name, _path in tracer.TARGETS:
        assert name.split(".", 1)[0] == module_name
        assert module_name in tracer.LAYERS
    missing = [name for name, module_name, path in tracer.TARGETS if not _resolves(module_name, path)]
    assert missing == []


def _load_workloads():
    path = TRACER.parent / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_round(items):
    """Calls, errors and work counts of one traced pass over the items."""
    probe = tracer.Tracer()
    probe.install()
    try:
        for _kind, fn, args in items:
            fn(*args)
    finally:
        probe.uninstall()
    return probe.snapshot()


def test_traced_rounds_repeat_without_errors(tmp_path):
    """Round 0 of the rigidity and profile pools, traced twice: no traced
    function raises, both passes make the same calls and work counts, and
    the F_p kernel runs, its counter reading the rows it is given as a
    sized list, ncols as an int and the rank from its result."""
    workloads = _load_workloads()
    for name in ("rigidity", "profile"):
        (items, *_rest) = workloads.build(name, 1, str(tmp_path), lambda: None)
        first, second = _traced_round(items), _traced_round(items)
        assert set(first["errors"].values()) == {0}, name
        assert first == second, name
        assert first["calls"]["fp_linalg.kernel_basis"] > 0, name
        counts = first["counts"]
        for count in ("nnz", "cells", "rank"):
            assert counts["fp_linalg.kernel_basis." + count] > 0, (name, count)
        assert counts["tangent.assemble_system.rows"] > 0, name
