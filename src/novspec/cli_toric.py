"""``novspec toric``: moment polytopes, potentials, heaviness certificates, scans."""

from __future__ import annotations

import argparse
import io
import sys

from .cli import (_NEGATIVE_NUMBER, _OptionError, _checked_rational, _document, _emit, _input,
                  _load_json, _positive_rational, _rational, _write_text)
from .records import SchemaError
from .records import parse_or_schema_error as _parse


def _toric_field(args):
    from .fields import field_for_mode

    return field_for_mode(args.mode, float(getattr(args, "eps", 1e-12)))


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


def _validated_potential(args):
    """The disk potential at ``--fiber`` of the polytope of ``args.input``,
    which must validate and have the dimension of ``--fiber``."""
    from .polytope import validated
    from .potential import PotentialFunction

    p = _load_polytope(args.input)
    if len(args.fiber) != p.dim:
        raise _OptionError(
            f"argument --fiber: point has dimension {len(args.fiber)}, polytope has {p.dim}"
        )
    validated(p)
    return PotentialFunction(p, args.fiber)


def cmd_toric_potential(args) -> int:
    _emit(args, _document("potential", _validated_potential(args).to_json()))
    return 0


def cmd_toric_critical(args) -> int:
    from .critical import critical_points_leading

    leading = critical_points_leading(_validated_potential(args))
    _emit(args, _document("leading-critical-points", leading.to_json()))
    return 0


def cmd_toric_certify(args) -> int:
    from .critical import certify_heavy

    result = certify_heavy(_validated_potential(args), args.order, _toric_field(args))
    _emit(args, result.to_json())
    return 0


def cmd_toric_scan(args) -> int:
    from .critical import scan_fibers

    p = _load_polytope(args.input)
    report = scan_fibers(p, args.grid, args.order, _toric_field(args))
    if args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(report.to_csv_rows())
        _write_text(args, buf.getvalue())
    else:
        _emit(args, report.to_json())
    return 0


def cmd_toric_revalidate(args) -> int:
    from .critical import revalidate_certificate

    doc = _load_json(args.input)
    if not isinstance(doc, dict):
        raise SchemaError("certificate document must be a JSON object")
    result = revalidate_certificate(doc, f"certificate {args.input}")
    _emit(args, _document("certificate-revalidation", result))
    return 0 if result["ok"] else 1


_negative_rational = _checked_rational("negative", lambda v: v < 0)
# a positive normal float, so that float() of it neither overflows nor gives 0
_eps = _checked_rational(
    "positive and in float range", lambda v: sys.float_info.min <= v <= sys.float_info.max
)


def _fiber(text: str) -> tuple:
    return tuple(_rational(part) for part in text.split(",") if part.strip())


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
        type=_eps,
        default=1e-12,
        help="tolerance for complex mode (ignored by exact modes)",
    )


def _potential_args(p: argparse.ArgumentParser) -> None:
    _input(p)
    p.add_argument("--fiber", required=True, type=_fiber, help="interior point, e.g. 1/2,1/3")


def _critical_args(p: argparse.ArgumentParser) -> None:
    _input(p)
    p.add_argument("--fiber", required=True, type=_fiber)


def _certify_args(p: argparse.ArgumentParser) -> None:
    _critical_args(p)
    _add_order(p)
    _add_mode(p)


def _scan_args(p: argparse.ArgumentParser) -> None:
    _input(p)
    p.add_argument(
        "--grid", required=True, type=_positive_rational, help="grid resolution, e.g. 1/8"
    )
    _add_order(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_mode(p)


# Each command once, as (name, help, handler, adder of its arguments), in help order.
COMMANDS = (
    ("validate", "boundedness, vertices, Delzant checks", cmd_toric_validate, _input),
    ("potential", "disk potential at a fiber", cmd_toric_potential, _potential_args),
    ("critical", "leading-order critical points", cmd_toric_critical, _critical_args),
    ("certify", "certify a fiber by lifted critical branes", cmd_toric_certify, _certify_args),
    ("scan", "certify every interior grid fiber", cmd_toric_scan, _scan_args),
    ("revalidate", "re-check a serialized certificate", cmd_toric_revalidate, _input),
)
