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
