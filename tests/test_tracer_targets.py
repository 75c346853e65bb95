"""The benchmark's per-layer tracer names package functions by module and
attribute path; every name must still resolve, so a rename under
``src/algebroids`` fails here rather than in a later benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_function_resolves(tracer):
    targets = [(metric, module, path)
               for metric, pairs in tracer.LAYER_FUNCTIONS.items()
               for module, path in pairs]
    assert targets
    for metric, module, path in targets:
        assert callable(tracer._resolve(module, path)), (metric, module, path)
