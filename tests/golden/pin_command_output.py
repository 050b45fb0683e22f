"""Pin the stdout bytes of the ``qmap``, ``qstate``, ``selftest`` and
``toric revalidate`` commands.

    PYTHONPATH=src python3 tests/golden/pin_command_output.py

Certifies the trapezoid {x >= 0, 0 <= y <= 1, x + y <= 2} at the fiber
3/4,1/2 (order -2) in gaussian and complex mode and runs ``qmap
rank|unit|charge`` on both certificates, on the certified branes and
scaled off them; runs ``toric revalidate`` on those two, on a rational
CP^1 x CP^1 certificate at 1/2,1/2, on tampered copies, one for each
way revalidation can fail, on two forgeries whose branes sit at no
critical point and on two certificates claiming a residual below what
their coordinates determine; runs ``qmap rank|unit``, on the branes and
scaled off them, on the CP^1 x CP^1 certificate and on a rational
certificate of the cube [0,1]^3 at 1/2,1/2,1/2; runs ``qmap
rank|unit|charge`` on both trapezoid certificates at the floor -3, below
the -5/2 their branes determine, which each refuses, and on the tampered
copy whose polytope, a strip, leaves a coordinate on no facet; runs ``qstate
homogenize|check|heavy|product`` on rational and float documents that
exercise every relation type, passing and failing; and runs
``selftest`` at seeds 0 to 3 and once with ``--mutate``.  Each run goes
through ``novspec.cli.main`` in process, and the documents, the argv,
the exit code and the sha256 of stdout go to ``command_output.json``.
``tests/test_cli.py`` replays the file from the stored documents, so the
replay does not depend on ``toric certify``.
Re-pin only when an output change is intended, and name the change in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "command_output.json"

TRAPEZOID = {
    "dim": 2,
    "facets": [
        {"normal": [1, 0], "offset": "0"},
        {"normal": [0, 1], "offset": "0"},
        {"normal": [0, -1], "offset": "-1"},
        {"normal": [-1, -1], "offset": "-2"},
    ],
}

ORACLE = {
    "samples": [{"n": n, "c": str(n * 3 // 2) if n % 2 == 0 else f"{3 * n}/2"}
                for n in range(1, 9)],
    "tag": "synthetic",
}
ORACLE_FLOAT = {
    "samples": [{"n": n, "c": 1.5 * n + (0.25 if n % 3 == 0 else -0.125)} for n in range(1, 7)],
    "tag": "derived-from-complex",
}

# one relation of every type, each holding
FUNCTIONS = {
    "functions": [
        {"name": "one", "zeta": "1"}, {"name": "f", "zeta": "1/3"},
        {"name": "g", "zeta": "2/3"}, {"name": "f2", "zeta": "2/3"},
        {"name": "f_plus", "zeta": "5/6"}, {"name": "h", "zeta": "1"},
        {"name": "zero", "zeta": "0"},
    ],
    "relations": [
        {"type": "normalized", "f": "one"},
        {"type": "lipschitz", "f": "f", "g": "g", "dist": "1/3"},
        {"type": "scale", "f": "f", "g": "f2", "factor": "2"},
        {"type": "le", "f": "f", "g": "g"},
        {"type": "shift", "f": "f", "g": "f_plus", "alpha": "1/2"},
        {"type": "triangle", "f": "f", "g": "g", "sum": "h"},
        {"type": "partial_additivity", "f": "g", "g": "zero", "sum": "f2"},
        {"type": "invariance", "f": "g", "g": "f2"},
        {"type": "vanishing", "f": "zero"},
    ],
}
# the same relations, each failing
FUNCTIONS_FAIL = {
    "functions": [
        {"name": "one", "zeta": "3/2"}, {"name": "f", "zeta": "1"},
        {"name": "g", "zeta": "0"}, {"name": "f2", "zeta": "3"},
        {"name": "h", "zeta": "-1"},
    ],
    "relations": [
        {"type": "normalized", "f": "one"},
        {"type": "lipschitz", "f": "f", "g": "g", "dist": "1/2"},
        {"type": "scale", "f": "f", "g": "f2", "factor": "2"},
        {"type": "le", "f": "f", "g": "g"},
        {"type": "shift", "f": "f", "g": "f2", "alpha": "1/2"},
        {"type": "triangle", "f": "f", "g": "g", "sum": "h"},
        {"type": "partial_additivity", "f": "g", "g": "f", "sum": "f2"},
        {"type": "invariance", "f": "f", "g": "g"},
        {"type": "vanishing", "f": "f"},
    ],
}
FUNCTIONS_FLOAT = {
    "functions": [
        {"name": "one", "zeta": 1.0}, {"name": "f", "zeta": 0.1},
        {"name": "g", "zeta": 0.2}, {"name": "f3", "zeta": 0.30000000000000004},
        {"name": "h", "zeta": 0.3},
    ],
    "relations": [
        {"type": "normalized", "f": "one"},
        {"type": "lipschitz", "f": "f", "g": "g", "dist": 0.1},
        {"type": "scale", "f": "f", "g": "f3", "factor": 3},
        {"type": "le", "f": "f", "g": "g"},
        {"type": "shift", "f": "f", "g": "h", "alpha": "1/5"},
        {"type": "triangle", "f": "f", "g": "g", "sum": "h"},
        {"type": "invariance", "f": "h", "g": "f3"},
    ],
}
ELEMENTS = {
    "elements": [
        {"name": "a", "mu": "1/2"}, {"name": "a2", "mu": "1"},
        {"name": "b", "mu": "-1/4"}, {"name": "ab", "mu": "1/3"},
        {"name": "b_conj", "mu": "-1/4"},
    ],
    "relations": [
        {"type": "power", "f": "a", "g": "a2", "n": 2},
        {"type": "quasi_additivity", "f": "a", "g": "b", "product": "ab", "bound": "1/10"},
        {"type": "conjugation", "f": "b", "g": "b_conj"},
        {"type": "lipschitz", "f": "a", "g": "b", "bound": "3/4"},
        {"type": "calabi", "f": "a2", "value": "1"},
    ],
}
ELEMENTS_FAIL = {
    "elements": [
        {"name": "a", "mu": "1/2"}, {"name": "a3", "mu": "1"},
        {"name": "b", "mu": "-1/4"}, {"name": "ab", "mu": "1"},
    ],
    "relations": [
        {"type": "power", "f": "a", "g": "a3", "n": 3},
        {"type": "quasi_additivity", "f": "a", "g": "b", "product": "ab", "bound": "1/2"},
        {"type": "conjugation", "f": "a", "g": "b"},
        {"type": "lipschitz", "f": "a", "g": "b", "bound": "1/2"},
        {"type": "calabi", "f": "a3", "value": "2"},
    ],
}
ELEMENTS_FLOAT = {
    "elements": [
        {"name": "a", "mu": 0.5}, {"name": "a2", "mu": 1.0000000001},
        {"name": "b", "mu": -0.25}, {"name": "ab", "mu": 0.3},
    ],
    "relations": [
        {"type": "power", "f": "a", "g": "a2", "n": 2},
        {"type": "quasi_additivity", "f": "a", "g": "b", "product": "ab", "bound": 0.05},
        {"type": "lipschitz", "f": "a", "g": "b", "bound": "3/4"},
        {"type": "calabi", "f": "a2", "value": 1.0},
    ],
}
HEAVY = {
    "subset": "T(3/4,1/2)",
    "functions": [{"name": "H", "zeta": "0", "sup": "1"},
                  {"name": "K", "zeta": "2/3", "sup": "2/3"}],
}
HEAVY_FAIL = {
    "subset": "Y",
    "functions": [{"name": "H", "zeta": "2", "sup": "1"},
                  {"name": "K", "zeta": "1/3", "sup": "1/2"},
                  {"name": "L", "zeta": "7/5", "sup": "-1/5"}],
}
HEAVY_FLOAT = {
    "functions": [{"name": "H", "zeta": 1.0000000001, "sup": "1"},
                  {"name": "K", "zeta": 0.75, "sup": 0.5}],
}
PRODUCT = {
    "pairs": [
        {"f0": "F", "f1": "G", "zeta0": "1", "zeta1": "2", "zeta_product": "3"},
        {"f0": "F2", "f1": "G2", "zeta0": "-1/3", "zeta1": "1/2", "zeta_product": "1/6"},
    ],
    "factors_heavy": [{"subset": "T0", "heavy": True}, {"subset": "T1", "heavy": True}],
}
PRODUCT_FAIL = {
    "pairs": [
        {"f0": "F", "f1": "G", "zeta0": "1", "zeta1": "2", "zeta_product": "4"},
        {"f0": "F2", "f1": "G2", "zeta0": 0.1, "zeta1": 0.2, "zeta_product": 0.3},
    ],
    "factors_heavy": [{"subset": "T0", "heavy": True}, {"subset": "T1", "heavy": False}],
}

SQUARE = {
    "dim": 2,
    "facets": [
        {"normal": [1, 0], "offset": "0"},
        {"normal": [0, 1], "offset": "0"},
        {"normal": [-1, 0], "offset": "-1"},
        {"normal": [0, -1], "offset": "-1"},
    ],
}
CUBE = {
    "dim": 3,
    "facets": [{"normal": [int(i == j) for j in range(3)], "offset": "0"} for i in range(3)]
    + [{"normal": [-int(i == j) for j in range(3)], "offset": "-1"} for i in range(3)],
}
SEGMENT = {"dim": 1, "facets": [{"normal": [1], "offset": "0"}, {"normal": [-1], "offset": "-1"}]}

# name -> (polytope, fiber, order, mode) of a certificate to pin
CERTIFY = {
    "cert_gaussian.json": (TRAPEZOID, "3/4,1/2", "-2", "gaussian"),
    "cert_complex.json": (TRAPEZOID, "3/4,1/2", "-2", "complex"),
    "cert_rational.json": (SQUARE, "1/2,1/2", "-2", "rational"),
    "cert_segment.json": (SEGMENT, "1/2", "-4", "rational"),
    "cert_tenth.json": (TRAPEZOID, "3/4,1/2", "-1/10", "gaussian"),
    "cert_cube.json": (CUBE, "1/2,1/2,1/2", "-2", "rational"),
}

ONE_PLUS_INVERSE_Q = {"floor": "-inf", "terms": [{"c": "1", "exp": "0"}, {"c": "1", "exp": "-1"}]}

# name -> (certificate, [(key path, new value), ...]): each copy fails
# revalidation in its own way
TAMPERED = {
    "tampered_polytope.json": ("cert_rational.json", [
        (["polytope", "facets"], SQUARE["facets"] + [{"normal": [1, 1], "offset": "-5"}]),
    ]),
    "tampered_fiber.json": ("cert_rational.json", [(["fiber"], "3/2,1/2")]),
    "tampered_no_branes.json": ("cert_rational.json", [(["branes"], [])]),
    "tampered_non_unit.json": ("cert_rational.json", [
        (["branes", 0, "x", 0, "terms", 0, "exp"], "1"),
    ]),
    # the floors move down with the claim: the gradient is known no deeper
    # than the coordinates, so a lower claim alone is never tested
    "tampered_residual.json": ("cert_gaussian.json", [
        (["branes", 0, "residual_valuation"], "-3"),
        (["branes", 0, "x", 0, "floor"], "-3"),
        (["branes", 0, "x", 1, "floor"], "-3"),
    ]),
    "tampered_charge.json": ("cert_gaussian.json", [
        (["branes", 1, "central_charge", "terms", 0, "c", "re"], "3"),
    ]),
    "tampered_x_exact.json": ("cert_rational.json", [
        (["branes", 1, "x", 0, "terms", 0, "c"], "2"),
    ]),
    "tampered_x_finite.json": ("cert_gaussian.json", [
        (["branes", 2, "x", 1, "terms", 1, "c", "re"], "1"),
    ]),
    "tampered_kind.json": ("cert_rational.json", [(["kind"], "no-critical-branes")]),
    "tampered_theorem.json": ("cert_rational.json", [(["theorem"], "some-other-theorem")]),
    "segment_two_term_x.json": ("cert_segment.json", [
        (["branes", 0, "x", 0], ONE_PLUS_INVERSE_Q),
        (["branes", 0, "residual_valuation"], "-2"),
    ]),
    "segment_two_term_exact_x.json": ("cert_segment.json", [
        (["branes", 0, "x", 0], ONE_PLUS_INVERSE_Q),
    ]),
    # no facet of the strip 0 <= x <= 1 involves y; 1/2,0 is interior to it
    "tampered_strip.json": ("cert_gaussian.json", [
        (["polytope"], {"dim": 2, "facets": [SQUARE["facets"][0], SQUARE["facets"][2]]}),
        (["fiber"], "1/2,0"),
    ]),
}

# name -> (certificate, residual): every brane moved to the constant 7 and
# its central charge recomputed at the residual, which lies above the order
# in the first and above both stratum weights (-3/4, -1/2) in the second
FORGED = {
    "forged_above_order.json": ("cert_gaussian.json", "100"),
    "forged_above_weights.json": ("cert_tenth.json", "-1/10"),
}
# the same without moving the branes: each claims residual -3 at order -2,
# below the -5/2 down to which its coordinates determine the gradient
DEEP_CLAIMS = {
    "deep_claim_gaussian.json": ("cert_gaussian.json", "-3"),
    "deep_claim_complex.json": ("cert_complex.json", "-3"),
}

QSTATE_DOCUMENTS = {
    "oracle.json": ORACLE,
    "oracle_float.json": ORACLE_FLOAT,
    "functions.json": FUNCTIONS,
    "functions_fail.json": FUNCTIONS_FAIL,
    "functions_float.json": FUNCTIONS_FLOAT,
    "elements.json": ELEMENTS,
    "elements_fail.json": ELEMENTS_FAIL,
    "elements_float.json": ELEMENTS_FLOAT,
    "heavy.json": HEAVY,
    "heavy_fail.json": HEAVY_FAIL,
    "heavy_float.json": HEAVY_FLOAT,
    "product.json": PRODUCT,
    "product_fail.json": PRODUCT_FAIL,
}

QMAP_RUNS = [
    ["rank"], ["rank", "--scale", "2"], ["rank", "--floor", "-1"],
    ["unit"], ["unit", "--scale", "2"], ["unit", "--brane", "1"],
    ["charge"], ["charge", "--brane", "0", "--floor", "-3/2"],
]

ARGVS = (
    [["qmap", cmd, cert, *rest] for cert in ("cert_gaussian.json", "cert_complex.json")
     for cmd, *rest in QMAP_RUNS]
    + [
        ["qstate", "homogenize", "oracle.json"],
        ["qstate", "homogenize", "oracle.json", "--volume", "2"],
        ["qstate", "homogenize", "oracle_float.json", "--volume", "3/2"],
    ]
    + [["qstate", "check", name] for name in
       ("functions.json", "functions_fail.json", "functions_float.json",
        "elements.json", "elements_fail.json", "elements_float.json")]
    + [["qstate", "heavy", name] for name in ("heavy.json", "heavy_fail.json", "heavy_float.json")]
    + [["qstate", "product", name] for name in ("product.json", "product_fail.json")]
    + [["selftest", "--seed", str(seed)] for seed in range(4)]
    + [["selftest", "--seed", "1", "--mutate"]]
    + [["toric", "revalidate", name]
       for name in ("cert_gaussian.json", "cert_complex.json", "cert_rational.json",
                    *TAMPERED, *FORGED)]
    + [["qmap", cmd, cert, *rest] for cert in ("cert_rational.json", "cert_cube.json")
       for cmd in ("rank", "unit") for rest in ([], ["--scale", "2"])]
    + [["toric", "revalidate", name] for name in DEEP_CLAIMS]
    + [["qmap", cmd, cert, "--floor", "-3"] for cert in ("cert_gaussian.json", "cert_complex.json")
       for cmd in ("rank", "unit", "charge")]
    + [["qmap", cmd, "tampered_strip.json"] for cmd in ("rank", "unit", "charge")]
)


def run(argv: list) -> tuple:
    """Exit code and stdout sha256 of one in-process CLI call."""
    from novspec.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _certificate(workdir: Path, polytope: dict, fiber: str, order: str, mode: str) -> dict:
    from novspec.cli import main

    poly, cert = workdir / "polytope.json", workdir / "cert.json"
    poly.write_text(json.dumps(polytope), encoding="utf-8")
    argv = ["toric", "certify", str(poly), "--fiber", fiber, f"--order={order}",
            "--mode", mode, "--out", str(cert)]
    if main(argv) != 0:
        raise SystemExit(f"certify failed at {fiber} in {mode} mode")
    return json.loads(cert.read_text(encoding="utf-8"))


def _forge(cert: dict, residual: str, move: bool = True) -> dict:
    """Every brane claiming ``residual``, with its central charge recomputed
    there; moved first to the constant 7 when ``move``."""
    from novspec.critical import read_certificate
    from novspec.novikov import NovikovScalar
    from novspec.potential import PotentialFunction
    from novspec.records import parse_floor

    field, p, fiber, _, parsed = read_certificate(cert)
    w = PotentialFunction(p, fiber)
    branes = []
    for b, (x, _, _) in zip(cert["branes"], parsed):
        if move:
            x = [NovikovScalar.monomial(field, field.coerce(7), 0)] * p.dim
        branes.append({
            **b,
            "x": [xj.to_json() for xj in x],
            "residual_valuation": residual,
            "central_charge": w.evaluate(x, parse_floor(residual)).to_json(),
        })
    return {**cert, "branes": branes}


def _tamper(doc: dict, edits: list) -> dict:
    doc = copy.deepcopy(doc)
    for path, value in edits:
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        target[last] = value
    return doc


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        certs = {name: _certificate(work, *how) for name, how in CERTIFY.items()}
        documents = {name: certs[name] for name in ("cert_gaussian.json", "cert_complex.json")}
        documents.update(QSTATE_DOCUMENTS)
        documents["cert_rational.json"] = certs["cert_rational.json"]
        documents.update(
            (name, _tamper(certs[base], edits)) for name, (base, edits) in TAMPERED.items()
        )
        documents.update(
            (name, _forge(certs[base], residual)) for name, (base, residual) in FORGED.items()
        )
        documents["cert_cube.json"] = certs["cert_cube.json"]
        documents.update(
            (name, _forge(certs[base], residual, move=False))
            for name, (base, residual) in DEEP_CLAIMS.items()
        )
        for name, doc in documents.items():
            (work / name).write_text(json.dumps(doc), encoding="utf-8")
        runs = []
        for argv in ARGVS:
            code, digest = run([str(work / t) if t in documents else t for t in argv])
            runs.append({"argv": argv, "code": code, "stdout_sha256": digest})
    corpus = {"documents": documents, "runs": runs}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"{len(runs)} runs pinned to {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
