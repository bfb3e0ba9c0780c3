"""The benchmark under perfbench/ reaches into the package by name: its
probes and workloads import kernel functions, and its span recorder
wraps entry points by attribute. Each of those names must resolve, so a
renamed or deleted function fails here and not in a benchmark run. The
test only reads perfbench."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["probes", "workloads"])
def test_benchmark_modules_import(name):
    _load(name)


def test_benchmark_entry_points_resolve():
    from qrucible import harness

    entries = _load("spans")._entry_points()
    assert entries
    for name, holder, attr, _, _ in entries:
        assert callable(getattr(holder, attr, None)), name
    # the pool probe wraps the worker of run_suite by name
    assert callable(harness._verify_worker)
