"""Pin the stdout bytes of deep ``toric certify`` runs.

    PYTHONPATH=src python3 tests/golden/pin_deep_output.py

Runs ``toric certify`` on each polytope below through ``novspec.cli.main``
in process, and appends the polytope, the options, the exit code and the
sha256 of stdout of each run not yet in ``deep_output.json``.  ``tests/test_cli.py``
replays the file.  The benchmark's pinned digests lift only to order -1,
where every series is a few terms long; these runs go to orders -6 to -16,
where series inversion and long products decide every coefficient, in all
three coefficient modes; the Hirzebruch F2 runs lift off-centre, so the
rational mode takes Newton steps too.  A stored run whose exit code or
digest the current source does not reproduce is never re-pinned: the
script names it, writes nothing and exits 1.  To re-pin a run on purpose,
delete its entry first and name the output change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "deep_output.json"


def _polytope(normals, offsets) -> dict:
    return {
        "dim": len(normals[0]),
        "facets": [{"normal": list(n), "offset": str(c)} for n, c in zip(normals, offsets)],
    }


POLYTOPES = {
    "segment": _polytope([(1,), (-1,)], [0, -1]),
    "cp2": _polytope([(1, 0), (0, 1), (-1, -1)], [0, 0, -1]),
    "cp1xcp1": _polytope([(1, 0), (0, 1), (-1, 0), (0, -1)], [0, 0, -1, -1]),
    "trapezoid": _polytope([(1, 0), (0, 1), (0, -1), (-1, -1)], [0, 0, -1, -2]),
    "hirzebruch_f2": _polytope([(1, 0), (0, 1), (0, -1), (-1, -2)], [0, 0, -1, -3]),
}

# (polytope, fiber, mode, order)
RUNS = [
    ("trapezoid", "3/4,1/2", "gaussian", "-6"),
    ("trapezoid", "3/4,1/2", "complex", "-6"),
    ("cp1xcp1", "1/2,1/2", "rational", "-8"),
    ("segment", "1/2", "rational", "-6"),
    ("cp2", "1/3,1/3", "complex", "-10"),
    ("hirzebruch_f2", "1,1/2", "rational", "-6"),
    ("hirzebruch_f2", "1,1/2", "gaussian", "-6"),
    ("hirzebruch_f2", "1,1/2", "complex", "-6"),
    ("trapezoid", "3/4,1/2", "gaussian", "-8"),
    ("trapezoid", "3/4,1/2", "gaussian", "-10"),
    ("trapezoid", "3/4,1/2", "gaussian", "-12"),
    ("trapezoid", "3/4,1/2", "gaussian", "-16"),
]


def run(workdir: Path, polytope: dict, options: list) -> tuple:
    """Exit code and stdout sha256 of ``toric certify`` on ``polytope``."""
    from novspec.cli import main

    path = workdir / "polytope.json"
    path.write_text(json.dumps(polytope), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["toric", "certify", str(path), *options])
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main() -> int:
    entries = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else []
    stored = {(e["name"], tuple(e["options"])): e for e in entries}
    changed, added = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, fiber, mode, order in RUNS:
            options = ["--fiber", fiber, "--mode", mode, f"--order={order}"]
            code, digest = run(Path(tmp), POLYTOPES[name], options)
            old = stored.get((name, tuple(options)))
            if old is None:
                entries.append({"name": name, "polytope": POLYTOPES[name], "options": options,
                                "code": code, "stdout_sha256": digest})
                added += 1
            elif [old["code"], old["stdout_sha256"]] != [code, digest]:
                changed.append(f"{name} {' '.join(options)}")
    if changed:
        print("pinned output changed, nothing written:", *changed, sep="\n  ", file=sys.stderr)
        return 1
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{added} of {len(entries)} runs newly pinned in {CORPUS.name}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
