"""The benchmark's per-layer tracer still finds every callable it wraps.

``perfbench/tracing.py`` names ``comem`` callables by module and attribute
path.  A rename or deletion under ``src/`` makes the traced run warn
"missing layer" and drop that layer's metrics, so every target must resolve.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("comem_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.TARGETS
    missing = [f"{t.module}.{t.attr}" for t in tracing.TARGETS if tracing.Tracer._resolve(t)[0] is None]
    assert not missing, f"perfbench/tracing.py wraps callables that do not resolve: {missing}"
