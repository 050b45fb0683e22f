"""The benchmark tracer's hooks name functions that exist and read them.

``bench/layers.py`` wraps novspec functions from outside, by (module,
attribute path).  A refactor that renames one of them would make a
traced benchmark run raise; these tests make it fail here instead, and run
two commands under the installed tracer, whose hooks also read the
wrapped functions' arguments.
"""

import importlib.util
import json
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


GOLDEN = Path(__file__).resolve().parent / "golden"
TRAPEZOID = {
    "dim": 2,
    "facets": [{"normal": n, "offset": c}
               for n, c in [([1, 0], "0"), ([0, 1], "0"), ([0, -1], "-1"), ([-1, -1], "-2")]],
}


def test_traced_run_counts_products_and_keeps_stdout(tmp_path, capsys):
    # The hooks read scalars from outside (``_mul_pairs`` counts their
    # terms), so run commands under the installed tracer, not only resolve
    # its hooks.
    from novspec.cli import main

    docs = json.loads((GOLDEN / "complex_output.json").read_text(encoding="utf-8"))["documents"]
    (tmp_path / "cx.json").write_text(json.dumps(docs["gaussian.json"]), encoding="utf-8")
    (tmp_path / "trapezoid.json").write_text(json.dumps(TRAPEZOID), encoding="utf-8")
    runs = [
        ["complex", "homology", str(tmp_path / "cx.json")],
        ["toric", "certify", str(tmp_path / "trapezoid.json"), "--fiber", "3/4,1/2",
         "--mode", "gaussian", "--order=-1"],
    ]

    def outputs():
        out = []
        for argv in runs:
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    plain = outputs()
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = outputs()
    finally:
        tracer.remove()
    metrics = tracer.metrics(traced, 0.0)
    assert metrics["novikov.mul.calls"]["value"] > 0
    assert metrics["novikov.mul.term_pairs"]["value"] > 0
    assert traced == plain
