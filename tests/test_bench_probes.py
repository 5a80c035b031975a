"""The benchmark tracer wraps functions by module and name; a rename in
the package would only surface as a crash of ``bench/run.py --trace 1``.
This checks every probe against the package, reading ``bench/tracing.py``
without changing anything under ``bench/``."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_probe_names_a_function_of_its_module(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.PROBES
    for probe in tracing.PROBES:
        fn = getattr(importlib.import_module(probe.module), probe.function, None)
        assert inspect.isfunction(fn), probe
        assert fn.__module__ == probe.module, probe
