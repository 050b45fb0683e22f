"""Pin the stdout bytes of the ``complex`` commands.

    PYTHONPATH=src python3 tests/golden/pin_complex_output.py

Draws one seeded complex per coefficient mode (with a second complex for
``tensor``, a cycle and a boundary for ``spectral``), adds one hand-written
document whose rationals are spelled ``"0.5"``, ``" 3/2 "`` and ``"-0"``
(the first two are forms ``records.parse_fraction`` leaves to the generic
``Fraction`` parser) and, in each mode, one hand-written complex graded
only mod 2 whose spectral number needs a pivot of two terms, runs ``complex
validate|homology|spectrum|spectral|tensor`` on each through
``novspec.cli.main`` in process, and writes the documents, the argv, the
exit code and the sha256 of stdout to ``complex_output.json``.  ``tests/test_cli.py`` replays the file from the
stored documents, so it does not depend on the random generator.  Re-pin
only when an output change is intended, and name the change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "complex_output.json"
SEED = 2015
MODES = ("rational", "gaussian", "complex")

# Rationals spelled as decimals, padded with spaces and as a signed zero.
FORMS = {
    "schema_version": "1",
    "kind": "filtered-complex",
    "field": {"mode": "rational"},
    "lattice": {"rank": 1, "periods": ["0.5"]},
    "generators": [
        {"id": "a", "action": "0.5", "degree": 1},
        {"id": "b", "action": "-0", "degree": 0},
        {"id": "c", "action": " 3/2 ", "degree": 0},
        {"id": "d", "action": "-1.5", "degree": 1},
    ],
    "differential": [
        {"from": "a", "to": "b", "coeff": [{"exp": "-0", "c": " 3/2 "},
                                           {"exp": "-0.5", "c": "0.25"}]},
    ],
    "floor": "-4.0",
}
FORMS_CHAIN = {
    "floor": "-3.5",
    "coeffs": [{"id": "c", "coeff": [{"exp": "1.0", "c": "-0"}, {"exp": "0.5", "c": " 7/3 "}]},
               {"id": "d", "coeff": [{"exp": "-0", "c": "2.5"}]}],
}


def mod2_complex(mode: str) -> dict:
    """Degree drop 3, so homology is graded mod 2; the image vector's lead
    sits on ``c`` with coefficient q^-1 + 3 q^-3/2, so the spectral number of
    ``c`` reduces by a pivot that is not a monomial."""
    return {
        "field": {"mode": mode},
        "lattice": {"rank": 1, "periods": ["1/2"]},
        "generators": [
            {"id": "a", "action": "3", "degree": 3},
            {"id": "b", "action": "0", "degree": 0},
            {"id": "c", "action": "1", "degree": 0},
            {"id": "e", "action": "1/2", "degree": 1},
        ],
        "differential": [
            {"from": "a", "to": "b", "coeff": [{"exp": "-1", "c": "2"}]},
            {"from": "a", "to": "c", "coeff": [{"exp": "-1", "c": "1"}, {"exp": "-3/2", "c": "3"}]},
        ],
    }


MOD2_CHAIN = {"coeffs": [{"id": "c", "coeff": [{"exp": "0", "c": "1"}]}]}


def _complex_doc(cx) -> dict:
    doc = {"schema_version": "1", "kind": "filtered-complex"}
    doc.update(cx.to_json())
    return doc


def documents() -> dict:
    """Every input document by file name."""
    from novspec.complexes import chain_to_json
    from novspec.fields import field_for_mode
    from novspec.randomcx import random_complex

    rng = random.Random(SEED)
    docs = {}
    for mode in MODES:
        field = field_for_mode(mode)
        while True:
            data = random_complex(rng, field, max_generators=6)
            if data.free_ids and data.matched:
                break
        right = random_complex(rng, field, max_generators=4).complex
        docs[f"{mode}.json"] = _complex_doc(data.complex)
        docs[f"{mode}_right.json"] = _complex_doc(right)
        docs[f"{mode}_cycle.json"] = chain_to_json(data.random_cycle(rng))
        docs[f"{mode}_boundary.json"] = chain_to_json(data.random_cycle(rng, boundary=True))
    docs["forms.json"] = FORMS
    docs["forms_right.json"] = FORMS
    docs["forms_cycle.json"] = FORMS_CHAIN
    for mode in MODES:
        docs[f"mod2_{mode}.json"] = docs[f"mod2_{mode}_right.json"] = mod2_complex(mode)
        docs[f"mod2_{mode}_cycle.json"] = MOD2_CHAIN
    return docs


def argvs() -> list:
    out = []
    for base in (*MODES, "forms", *(f"mod2_{mode}" for mode in MODES)):
        cx = f"{base}.json"
        out += [
            ["complex", "validate", cx],
            ["complex", "homology", cx],
            ["complex", "spectrum", cx],
            ["complex", "spectral", cx, "--chain", f"{base}_cycle.json"],
            ["complex", "tensor", cx, f"{base}_right.json"],
        ]
        if base in MODES:
            out.append(["complex", "spectral", cx, "--chain", f"{base}_boundary.json"])
    return out


def run(workdir: Path, docs: dict, argv: list) -> tuple:
    """Exit code and stdout sha256 of ``argv``, the names of ``docs`` in it
    resolved in ``workdir``."""
    from novspec.cli import main

    resolved = [str(workdir / token) if token in docs else token for token in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(resolved)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main() -> int:
    docs = documents()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            (Path(tmp) / name).write_text(json.dumps(doc), encoding="utf-8")
        for argv in argvs():
            code, digest = run(Path(tmp), docs, argv)
            runs.append({"argv": argv, "code": code, "stdout_sha256": digest})
    corpus = {"documents": docs, "runs": runs}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(runs)} runs pinned to {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
