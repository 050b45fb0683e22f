"""Command-line interface.

Commands are grouped by object: ``complex`` (filtered complexes),
``toric`` (moment polytopes, potentials, certificates), ``qmap``
(quasimap complexes over certified branes), ``qstate`` (oracle
homogenization and axiom checks), and ``selftest``.

Exit codes: 0 on success (a none-found certification and a valid
revalidation both count as success), 1 when a mathematical validation
fails (invalid complex or polytope, off-interior fiber, degenerate
lift, axiom violation), 2 on I/O, JSON, or schema errors (argparse
reports bad arguments with 2 as well).

All JSON documents carry ``schema_version`` at the top level, encode
rationals as strings, and are emitted with sorted keys so identical
inputs produce identical bytes.  CSV output exists only for ``toric
scan``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction
from typing import Callable, Optional

SCHEMA_VERSION = "1"


class SchemaError(Exception):
    """Malformed input document (wrong shape, missing keys, bad kinds)."""


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse(fn: Callable, what: str):
    """Run a document-parsing callable; translate failures to schema errors."""
    try:
        return fn()
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def _document(kind: str, payload: dict) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    doc.update(payload)
    return doc


def _emit(args, obj: dict) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    _write_text(args, text)


def _write_text(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _toric_field(args):
    from .fields import field_for_mode

    return field_for_mode(args.mode, getattr(args, "eps", 1e-12))


# ---------------------------------------------------------------------------
# complex


def _load_complex(path: str):
    from .complexes import FilteredComplex

    doc = _load_json(path)
    return _parse(lambda: FilteredComplex.from_json(doc), f"complex {path}")


def _require_valid(cx, path: str):
    from .complexes import validate_complex

    rep = validate_complex(cx)
    if not rep.valid:
        raise ValueError(
            f"complex {path} fails validation: " + "; ".join(rep.violations)
        )
    return rep


def cmd_complex_validate(args) -> int:
    from .complexes import validate_complex

    cx = _load_complex(args.input)
    rep = validate_complex(cx)
    _emit(args, _document("complex-validation", rep.to_json()))
    return 0 if rep.valid else 1


def cmd_complex_homology(args) -> int:
    from .spectral import homology_report

    cx = _load_complex(args.input)
    _require_valid(cx, args.input)
    rep = homology_report(cx)
    _emit(args, _document("homology-report", rep))
    return 0


def cmd_complex_spectral(args) -> int:
    from .complexes import chain_from_json
    from .spectral import spectral_number, spectrum

    cx = _load_complex(args.input)
    _require_valid(cx, args.input)
    chain_doc = _load_json(args.chain)
    chain = _parse(lambda: chain_from_json(cx, chain_doc), f"chain {args.chain}")
    result = spectral_number(cx, chain)
    payload = result.to_json()
    payload["is_boundary"] = result.is_boundary
    payload["in_spectrum"] = (
        False if result.is_boundary else spectrum(cx).contains(result.value)
    )
    _emit(args, _document("spectral-number", payload))
    return 0


def cmd_complex_spectrum(args) -> int:
    from .spectral import spectrum

    cx = _load_complex(args.input)
    _require_valid(cx, args.input)
    _emit(args, _document("action-spectrum", spectrum(cx).to_json()))
    return 0


def cmd_complex_tensor(args) -> int:
    from .tensor import tensor_product

    c0 = _load_complex(args.left)
    c1 = _load_complex(args.right)
    _require_valid(c0, args.left)
    _require_valid(c1, args.right)
    prod = tensor_product(c0, c1)
    _emit(args, _document("filtered-complex", prod.to_json()))
    return 0


# ---------------------------------------------------------------------------
# toric


def _load_polytope(path: str):
    from .polytope import MomentPolytope

    doc = _load_json(path)
    return _parse(lambda: MomentPolytope.from_json(doc), f"polytope {path}")


def cmd_toric_validate(args) -> int:
    from .polytope import polytope_validate

    p = _load_polytope(args.input)
    rep = polytope_validate(p)
    _emit(args, _document("polytope-validation", rep.to_json()))
    return 0 if rep.ok else 1


def cmd_toric_potential(args) -> int:
    from .polytope import polytope_validate
    from .potential import potential

    p = _load_polytope(args.input)
    rep = polytope_validate(p)
    if not rep.ok:
        raise ValueError("polytope failed validation: " + "; ".join(rep.violations))
    w = potential(p, args.fiber)
    _emit(args, _document("potential", w.to_json()))
    return 0


def cmd_toric_critical(args) -> int:
    from .critical import critical_points_leading
    from .polytope import polytope_validate
    from .potential import potential

    p = _load_polytope(args.input)
    rep = polytope_validate(p)
    if not rep.ok:
        raise ValueError("polytope failed validation: " + "; ".join(rep.violations))
    w = potential(p, args.fiber)
    leading = critical_points_leading(w)
    _emit(args, _document("leading-critical-points", leading.to_json()))
    return 0


def cmd_toric_certify(args) -> int:
    from .critical import certify_heavy

    p = _load_polytope(args.input)
    result = certify_heavy(p, args.fiber, args.order, _toric_field(args))
    _emit(args, result.to_json())
    return 0


def cmd_toric_scan(args) -> int:
    from .critical import scan_fibers

    p = _load_polytope(args.input)
    report = scan_fibers(p, args.grid, args.order, _toric_field(args))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(report.to_csv_rows())
        _write_text(args, buf.getvalue())
    else:
        _emit(args, report.to_json())
    return 0


# key -> (JSON types its value may have, their description)
CERTIFICATE_KEYS = {
    "field": ((str, dict), "a string or an object"),
    "polytope": (dict, "an object"),
    "fiber": (str, "a string"),
    "order": (str, "a string"),
}
BRANE_KEYS = {
    "x": (list, "a list of scalar objects"),
    "residual_valuation": (str, "a string"),
    "central_charge": (dict, "an object"),
}


def _check_keys(obj: dict, keys: dict, where: str) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"{where} missing key(s) {missing}")
    for key, (types, what) in keys.items():
        if not isinstance(obj[key], types):
            raise SchemaError(f"{where} '{key}' must be {what}")


def _check_certificate_keys(doc: dict, path: str) -> None:
    """Every key revalidation reads must be present in a certificate, with
    a value of the JSON type it is parsed from, and every brane scalar
    must parse."""
    from .fields import CoefficientField
    from .novikov import NovikovScalar

    _check_keys(doc, CERTIFICATE_KEYS, f"certificate {path}:")
    field = _parse(lambda: CoefficientField.from_json(doc["field"]), f"certificate {path}")
    branes = doc.get("branes", [])
    if not isinstance(branes, list):
        raise SchemaError(f"certificate {path}: 'branes' must be a list")
    for idx, brane in enumerate(branes):
        if not isinstance(brane, dict):
            raise SchemaError(f"certificate {path}: brane {idx} must be an object")
        _check_keys(brane, BRANE_KEYS, f"certificate {path}: brane {idx}")
        if not all(isinstance(xj, dict) for xj in brane["x"]):
            raise SchemaError(
                f"certificate {path}: brane {idx} 'x' must be a list of scalar objects"
            )
        scalars = [*brane["x"], brane["central_charge"]]
        _parse(
            lambda: [NovikovScalar.from_json(field, s) for s in scalars],
            f"certificate {path}: brane {idx}",
        )


def cmd_toric_revalidate(args) -> int:
    from .critical import revalidate_certificate

    doc = _load_json(args.input)
    if not isinstance(doc, dict):
        raise SchemaError("certificate document must be a JSON object")
    if doc.get("kind") == "heaviness-certificate":
        _check_certificate_keys(doc, args.input)
    result = revalidate_certificate(doc)
    _emit(args, _document("certificate-revalidation", result))
    return 0 if result["ok"] else 1


# ---------------------------------------------------------------------------
# qmap


def _certificate_context(args):
    """Potential, field, branes, and working floor from a certificate file."""
    from .critical import parse_fiber
    from .fields import CoefficientField, parse_floor
    from .novikov import NovikovScalar
    from .polytope import MomentPolytope
    from .potential import potential

    doc = _load_json(args.input)
    if not isinstance(doc, dict) or doc.get("kind") != "heaviness-certificate":
        raise SchemaError(
            f"{args.input}: expected kind 'heaviness-certificate', "
            f"got {doc.get('kind') if isinstance(doc, dict) else type(doc).__name__!r}"
        )

    def build():
        field = CoefficientField.from_json(doc["field"])
        p = MomentPolytope.from_json(doc["polytope"])
        fiber = parse_fiber(doc["fiber"])
        order = parse_floor(doc["order"])
        branes = [
            [NovikovScalar.from_json(field, xj) for xj in b["x"]]
            for b in doc["branes"]
        ]
        return field, p, fiber, order, branes

    field, p, fiber, order, branes = _parse(build, f"certificate {args.input}")
    w = potential(p, fiber)
    floor = parse_floor(args.floor) if args.floor is not None else order
    if args.brane is not None:
        if not 0 <= args.brane < len(branes):
            raise ValueError(
                f"brane index {args.brane} out of range "
                f"(certificate has {len(branes)} branes)"
            )
        branes = [branes[args.brane]]
    scale = getattr(args, "scale", None)
    if scale is not None:
        from .fields import parse_fraction

        c = field.coerce(parse_fraction(scale))
        branes = [[xj.scale(c) for xj in x] for x in branes]
    return doc, field, w, fiber, order, floor, branes


def cmd_qmap_rank(args) -> int:
    from .fields import floor_str
    from .koszul import build_cqf, hqf_report
    from .polytope import point_str

    _, _, w, fiber, _, floor, branes = _certificate_context(args)
    rows = []
    for idx, x in enumerate(branes):
        c = build_cqf(w, x, floor)
        rep = hqf_report(c)
        rep["index"] = idx if args.brane is None else args.brane
        rows.append(rep)
    _emit(
        args,
        _document(
            "quasimap-rank",
            {"fiber": point_str(fiber), "floor": floor_str(floor), "branes": rows},
        ),
    )
    return 0


def cmd_qmap_unit(args) -> int:
    from .fields import floor_str
    from .koszul import build_cqf, unit_in_homology
    from .polytope import point_str

    _, _, w, fiber, _, floor, branes = _certificate_context(args)
    rows = []
    for idx, x in enumerate(branes):
        c = build_cqf(w, x, floor)
        rows.append(
            {
                "index": idx if args.brane is None else args.brane,
                "unit_survives": unit_in_homology(c),
            }
        )
    _emit(
        args,
        _document(
            "quasimap-unit",
            {"fiber": point_str(fiber), "floor": floor_str(floor), "branes": rows},
        ),
    )
    return 0


def cmd_qmap_charge(args) -> int:
    from .fields import floor_str
    from .koszul import central_charge
    from .polytope import point_str

    _, _, w, fiber, _, floor, branes = _certificate_context(args)
    rows = []
    for idx, x in enumerate(branes):
        charge = central_charge(w, x, floor)
        rows.append(
            {
                "index": idx if args.brane is None else args.brane,
                "charge": charge.to_json(),
            }
        )
    _emit(
        args,
        _document(
            "central-charge",
            {"fiber": point_str(fiber), "floor": floor_str(floor), "branes": rows},
        ),
    )
    return 0


# ---------------------------------------------------------------------------
# qstate


def cmd_qstate_homogenize(args) -> int:
    from .quasistate import SpectralOracle, homogenize, mu_from_oracle

    doc = _load_json(args.input)
    oracle = _parse(lambda: SpectralOracle.from_json(doc), f"oracle {args.input}")
    est = homogenize(oracle)
    payload = {"tag": oracle.tag, "zeta": est.to_json(), "mu": None}
    if args.volume is not None:
        payload["mu"] = mu_from_oracle(oracle, args.volume).to_json()
    _emit(args, _document("quasistate-estimate", payload))
    return 0


def cmd_qstate_check(args) -> int:
    from .quasistate import check_partial_quasistate, check_prequasimorphism

    doc = _load_json(args.input)
    if not isinstance(doc, dict):
        raise SchemaError("family document must be a JSON object")
    if "functions" in doc:
        rep = _parse(lambda: check_partial_quasistate(doc), f"family {args.input}")
    elif "elements" in doc:
        rep = _parse(lambda: check_prequasimorphism(doc), f"family {args.input}")
    else:
        raise SchemaError(
            "family document needs 'functions' (quasi-state) or "
            "'elements' (pre-quasimorphism)"
        )
    _emit(args, _document(rep.pop("kind"), rep))
    return 0 if rep["all_pass"] else 1


def cmd_qstate_heavy(args) -> int:
    from .quasistate import heaviness_check

    doc = _load_json(args.input)
    rep = _parse(lambda: heaviness_check(doc), f"family {args.input}")
    payload = rep.to_json()
    _emit(args, _document(payload.pop("kind"), payload))
    return 0 if rep.heavy_consistent else 1


def cmd_qstate_product(args) -> int:
    from .quasistate import product_quasistate_check

    doc = _load_json(args.input)
    rep = _parse(lambda: product_quasistate_check(doc), f"tables {args.input}")
    _emit(args, _document(rep.pop("kind"), rep))
    return 0 if rep["all_additive"] else 1


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    report = run_selftest(seed=args.seed, mutate=args.mutate)
    _emit(args, report)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# parser


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write output to this file instead of stdout")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _positive_rational(text: str) -> Fraction:
    value = _rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _negative_rational(text: str) -> Fraction:
    value = _rational(text)
    if value >= 0:
        raise argparse.ArgumentTypeError(f"must be negative, got {text!r}")
    return value


# argparse reads an argument that starts with "-" as an option unless it
# looks like a negative number, and its own pattern admits only integers
# and decimals; this one admits fractions too, so "--order -1/2" works.
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _add_order(p: argparse.ArgumentParser) -> None:
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument(
        "--order", default="-10", type=_negative_rational, help="truncation order (negative)"
    )


def _add_mode(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mode",
        choices=("rational", "gaussian", "complex"),
        default="complex",
        help="coefficient mode (default complex with eps tolerance)",
    )
    p.add_argument(
        "--eps",
        type=float,
        default=1e-12,
        help="tolerance for complex mode (ignored by exact modes)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="novspec",
        description="Exact spectral invariants over Novikov fields.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    # complex
    g = top.add_parser("complex", help="filtered complexes").add_subparsers(
        dest="command", required=True
    )
    p = g.add_parser("validate", help="structural and filtration checks")
    p.add_argument("input")
    _add_out(p)
    p.set_defaults(func=cmd_complex_validate)
    p = g.add_parser("homology", help="homology ranks over the Novikov field")
    p.add_argument("input")
    _add_out(p)
    p.set_defaults(func=cmd_complex_homology)
    p = g.add_parser("spectral", help="spectral number of a cycle")
    p.add_argument("input")
    p.add_argument("--chain", required=True, help="JSON file with the cycle")
    _add_out(p)
    p.set_defaults(func=cmd_complex_spectral)
    p = g.add_parser("spectrum", help="action spectrum")
    p.add_argument("input")
    _add_out(p)
    p.set_defaults(func=cmd_complex_spectrum)
    p = g.add_parser("tensor", help="tensor product of two complexes")
    p.add_argument("left")
    p.add_argument("right")
    _add_out(p)
    p.set_defaults(func=cmd_complex_tensor)

    # toric
    g = top.add_parser("toric", help="moment polytopes and certificates").add_subparsers(
        dest="command", required=True
    )
    p = g.add_parser("validate", help="boundedness, vertices, Delzant checks")
    p.add_argument("input")
    _add_out(p)
    p.set_defaults(func=cmd_toric_validate)
    p = g.add_parser("potential", help="disk potential at a fiber")
    p.add_argument("input")
    p.add_argument("--fiber", required=True, help="interior point, e.g. 1/2,1/3")
    _add_out(p)
    p.set_defaults(func=cmd_toric_potential)
    p = g.add_parser("critical", help="leading-order critical points")
    p.add_argument("input")
    p.add_argument("--fiber", required=True)
    _add_out(p)
    p.set_defaults(func=cmd_toric_critical)
    p = g.add_parser("certify", help="certify a fiber by lifted critical branes")
    p.add_argument("input")
    p.add_argument("--fiber", required=True)
    _add_order(p)
    _add_mode(p)
    _add_out(p)
    p.set_defaults(func=cmd_toric_certify)
    p = g.add_parser("scan", help="certify every interior grid fiber")
    p.add_argument("input")
    p.add_argument(
        "--grid", required=True, type=_positive_rational, help="grid resolution, e.g. 1/8"
    )
    _add_order(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_mode(p)
    _add_out(p)
    p.set_defaults(func=cmd_toric_scan)
    p = g.add_parser("revalidate", help="re-check a serialized certificate")
    p.add_argument("input")
    _add_out(p)
    p.set_defaults(func=cmd_toric_revalidate)

    # qmap
    g = top.add_parser("qmap", help="quasimap complexes on certified branes").add_subparsers(
        dest="command", required=True
    )
    for name, fn, extra in (
        ("rank", cmd_qmap_rank, True),
        ("unit", cmd_qmap_unit, True),
        ("charge", cmd_qmap_charge, False),
    ):
        p = g.add_parser(
            name,
            help={
                "rank": "quasimap homology rank (dichotomy check)",
                "unit": "does the unit class survive in homology",
                "charge": "central charge of the brane",
            }[name],
        )
        p.add_argument("input", help="heaviness certificate JSON")
        p.add_argument("--brane", type=int, help="restrict to one brane index")
        p.add_argument("--floor", help="working floor (default: certificate order)")
        if extra:
            p.add_argument(
                "--scale",
                help="multiply brane coordinates by this rational (for dichotomy tests)",
            )
        _add_out(p)
        p.set_defaults(func=fn)

    # qstate
    g = top.add_parser("qstate", help="oracle homogenization and axiom checks").add_subparsers(
        dest="command", required=True
    )
    p = g.add_parser("homogenize", help="quasi-state value from a spectral oracle")
    p.add_argument("input")
    p.add_argument("--volume", help="also report mu = vol * slope for this volume")
    _add_out(p)
    p.set_defaults(func=cmd_qstate_homogenize)
    p = g.add_parser("check", help="axiom checks on a declared family")
    p.add_argument("input")
    _add_out(p)
    p.set_defaults(func=cmd_qstate_check)
    p = g.add_parser("heavy", help="zeta(H) <= sup_Y H on declared functions")
    p.add_argument("input")
    _add_out(p)
    p.set_defaults(func=cmd_qstate_heavy)
    p = g.add_parser("product", help="product quasi-state additivity tables")
    p.add_argument("input")
    _add_out(p)
    p.set_defaults(func=cmd_qstate_product)

    # selftest
    p = top.add_parser("selftest", help="seeded property suites; deterministic output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mutate",
        action="store_true",
        help="corrupt a differential and report whether validation catches it",
    )
    _add_out(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"novspec: schema error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"novspec: input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"novspec: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
