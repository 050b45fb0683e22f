"""Pin the stdout bytes of the polytope-facing ``toric`` commands.

    PYTHONPATH=src python3 tests/golden/pin_toric_output.py

Runs ``toric validate`` on Delzant polytopes of dimension 1 to 4 (the
monotone hexagon and the sheared trapezoid among them) and on polytopes
that fail validation for each reason the exact LPs decide (unbounded,
empty interior, redundant facet, not simple, not Delzant); ``toric scan``
on the benchmark's four grids, in JSON and CSV; and ``toric potential`` at
one fiber; ``toric critical`` on the monotone hexagon at ``0,0`` (six
roots, about a second in sympy) and on the sheared trapezoid at
``3/4,-1/4`` (``leading-system-not-finite``); and one ``toric certify``
that finds no branes (``dominating-facet``).  Each run goes through
``novspec.cli.main`` in process, and the polytope, the argv after the
input path, the exit code and the sha256 of stdout go to
``toric_output.json``.  ``tests/test_cli.py`` replays the file.  Re-pin
only when an output change is intended, and name the change in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "toric_output.json"


def _polytope(normals, offsets) -> dict:
    return {
        "dim": len(normals[0]),
        "facets": [{"normal": list(n), "offset": str(c)} for n, c in zip(normals, offsets)],
    }


def _box(dim: int) -> dict:
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    return _polytope(units + [tuple(-x for x in u) for u in units], [0] * dim + [-1] * dim)


POLYTOPES = {
    "segment": _polytope([(1,), (-1,)], [0, -1]),
    "cp2": _polytope([(1, 0), (0, 1), (-1, -1)], [0, 0, -1]),
    "trapezoid": _polytope([(1, 0), (0, 1), (0, -1), (-1, -1)], [0, 0, -1, -2]),
    "cp1xcp1": _polytope([(1, 0), (0, 1), (-1, 0), (0, -1)], [0, 0, -1, -1]),
    "hirzebruch_f2": _polytope([(1, 0), (0, 1), (0, -1), (-1, -2)], [0, 0, -1, -3]),
    "hexagon": _polytope([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)], [-1] * 6),
    "sheared_trapezoid": _polytope([(1, 0), (1, 1), (-1, -1), (-2, -1)], [0, 0, -1, -2]),
    "box3": _box(3),
    "box4": _box(4),
    # the failing polytopes of tests/test_polytope.py
    "halfplane": _polytope([(1, 0), (0, 1)], [0, 0]),
    "strip": _polytope([(1, 0), (-1, 0), (0, 1)], [0, -1, 0]),
    "wedge": _polytope([(2, 1), (-1, -2), (-1, -2)], [-4, -1, 1]),
    "empty_interior": _polytope([(1,), (-1,)], [1, 0]),
    "point": _polytope([(1,), (1,), (1,), (-1,)], [-1, -3, -4, 1]),
    "redundant": _polytope([(1,), (-1,), (-1,)], [0, -1, -2]),
    "octahedron": _polytope(
        [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)], [-1] * 8
    ),
    "weighted_triangle": _polytope([(1, 0), (0, 1), (-1, -2)], [0, 0, -2]),
}

# The benchmark's scan grids and flags (bench/workloads.py SCAN_POLYTOPES).
SCANS = [
    ("segment", ["--grid", "1/8", "--mode", "rational", "--order", "-6"]),
    ("cp2", ["--grid", "1/6", "--mode", "complex", "--order", "-10"]),
    ("trapezoid", ["--grid", "1/3"]),
    ("cp1xcp1", ["--grid", "1/4", "--mode", "rational", "--order", "-8"]),
]

# (polytope, command, options after the input path)
RUNS = (
    [(name, "validate", []) for name in POLYTOPES]
    + [(name, "scan", options) for name, options in SCANS]
    + [(name, "scan", [*options, "--format", "csv"]) for name, options in SCANS]
    + [("trapezoid", "potential", ["--fiber", "3/4,1/2"])]
    + [("hexagon", "critical", ["--fiber", "0,0"])]
    + [("sheared_trapezoid", "critical", ["--fiber", "3/4,-1/4"])]
    + [("trapezoid", "certify", ["--fiber", "1/3,1/3"])]
)


def run(workdir: Path, polytope: dict, command: str, options: list) -> tuple:
    """Exit code and stdout sha256 of ``toric <command>`` on ``polytope``."""
    from novspec.cli import main

    path = workdir / "polytope.json"
    path.write_text(json.dumps(polytope), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["toric", command, str(path), *options])
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main() -> int:
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, options in RUNS:
            code, digest = run(Path(tmp), POLYTOPES[name], command, options)
            entries.append({"name": name, "polytope": POLYTOPES[name], "command": command,
                            "options": options, "code": code, "stdout_sha256": digest})
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} runs pinned to {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
