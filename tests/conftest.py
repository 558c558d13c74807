"""Shared fixtures."""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Loader of the modules under perfbench/, by path.

    perfbench's modules import each other as top-level names (``import
    checks``), so each loaded module is bound in ``sys.modules`` for the
    test only: load ``checks`` before ``workloads``.
    """
    def load(name):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    return load
