"""The benchmark's traced layers all exist in pfsym.

perfbench/tracing.py finds each layer by module path and attribute name
and silently drops the metrics of one that is missing, so a rename or
deletion here would shrink the benchmark's output without failing it.
"""
import importlib.util
import sys
from pathlib import Path

import pfsym  # noqa: F401  (loads every module a layer lives in)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_layer_resolves():
    tracing = _load_tracing()
    missing = [f"{layer.module}.{layer.attr}" for layer in tracing.LAYERS if tracing._resolve(layer) is None]
    assert missing == []
