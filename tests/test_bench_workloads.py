"""Every benchmark workload still builds and runs on the package: each pool
of perfbench/workloads.py is built at seed 1 and round 0's items run with
their answer checks, so a change to the package API that the benchmark uses
fails here and not only in `perfbench/run.py --self-test`.  perfbench is
read, never modified."""

import importlib.util
import pathlib
import warnings

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_round_zero_runs(name, tmp_path):
    # build() installs a warnings filter; keep it inside this test
    with warnings.catch_warnings():
        pool = workloads.build(name, 1, str(tmp_path), lambda: None)
        assert pool and pool[0]
        for _kind, item, args in pool[0]:
            item(*args)
