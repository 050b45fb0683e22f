"""The benchmark tracer's hooks name functions that exist.

``bench/layers.py`` wraps novspec functions from outside, by (module,
attribute path).  A refactor that renames one of them would make a
traced benchmark run raise; this test makes it fail here instead.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
_spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

HOOKS = {**layers.SPANS, **layers.CALL_COUNTS}


@pytest.mark.parametrize("name", sorted(HOOKS))
def test_hook_resolves(name):
    module, path = HOOKS[name]
    _, _, fn = layers._resolve(module, path)
    assert callable(fn)
