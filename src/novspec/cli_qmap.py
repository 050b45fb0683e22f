"""``novspec qmap``: quasimap complexes on the branes of a heaviness certificate."""

from __future__ import annotations

import argparse

from .cli import (_NEGATIVE_NUMBER, _OptionError, _checked_rational, _document, _emit,
                  _load_json, _rational)
from .records import NEG_INF, SchemaError, floor_str, fraction_str


def _per_brane(args, kind: str, row) -> int:
    """Emit ``row(w, x, floor)`` with its index for every brane of the
    certificate (or the one ``--brane`` names), at ``--floor`` or the
    certificate's order, scaled by ``--scale`` when given.  The branes are
    not checked as ``toric revalidate`` checks them: these commands rank
    any brane, and ``--scale`` moves branes off the critical locus on
    purpose.  But every coordinate must lie on a facet, and a brane's
    coordinates must determine its gradient down to the floor, or the row
    would state coefficients nothing fixes."""
    from .critical import known_failure, read_certificate
    from .novikov import NovikovScalar
    from .polytope import point_str
    from .potential import PotentialFunction

    doc = _load_json(args.input)
    if not isinstance(doc, dict) or doc.get("kind") != "heaviness-certificate":
        raise SchemaError(
            f"{args.input}: expected kind 'heaviness-certificate', "
            f"got {doc.get('kind') if isinstance(doc, dict) else type(doc).__name__!r}"
        )
    field, p, fiber, order, parsed = read_certificate(doc, f"certificate {args.input}")
    branes = list(enumerate(x for x, _, _ in parsed))
    w = PotentialFunction(p, fiber)
    w.strata  # a coordinate on no facet fails here, as in revalidation
    floor = order if args.floor is None else args.floor
    if args.brane is not None:
        if not 0 <= args.brane < len(branes):
            raise _OptionError(
                f"argument --brane: brane index {args.brane} out of range "
                f"(certificate has {len(branes)} branes)"
            )
        branes = [branes[args.brane]]
    if (c := getattr(args, "scale", None)) is not None:
        try:  # the rational must be a nonzero value of the certificate's field
            if NovikovScalar.monomial(field, c, 0).is_zero():
                raise ValueError(f"{fraction_str(c)} is zero to eps {field.eps}")
        except ValueError as exc:
            raise _OptionError(f"argument --scale: {exc}") from None
        branes = [(idx, [xj.scale(c) for xj in x]) for idx, x in branes]
    rows = []
    for idx, x in branes:
        # row() meets the monomials of this gradient in the potential's memo
        if failure := known_failure(w.gradient(x, floor), floor, "floor"):
            raise ValueError(f"brane {idx}: {failure}")
        rows.append({**row(w, x, floor), "index": idx})
    payload = {"fiber": point_str(fiber), "floor": floor_str(floor), "branes": rows}
    _emit(args, _document(kind, payload))
    return 0


def cmd_qmap_rank(args) -> int:
    from .koszul import build_cqf, hqf_report

    return _per_brane(
        args, "quasimap-rank", lambda w, x, floor: hqf_report(build_cqf(w, x, floor))
    )


def cmd_qmap_unit(args) -> int:
    from .koszul import build_cqf, unit_in_homology

    return _per_brane(
        args,
        "quasimap-unit",
        lambda w, x, floor: {"unit_survives": unit_in_homology(build_cqf(w, x, floor))},
    )


def cmd_qmap_charge(args) -> int:
    return _per_brane(
        args,
        "central-charge",
        lambda w, x, floor: {"charge": w.evaluate(x, floor).to_json()},
    )


_nonzero_rational = _checked_rational("nonzero", lambda v: v != 0)


def _floor(text: str):
    return NEG_INF if text == "-inf" else _rational(text)


def _charge_args(p: argparse.ArgumentParser) -> None:
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument("input", help="heaviness certificate JSON")
    p.add_argument("--brane", type=int, help="restrict to one brane index")
    p.add_argument("--floor", type=_floor, help="working floor (default: certificate order)")


def _qmap_args(p: argparse.ArgumentParser) -> None:
    _charge_args(p)
    p.add_argument(
        "--scale",
        type=_nonzero_rational,
        help="multiply brane coordinates by this rational (for dichotomy tests)",
    )


# Each command once, as (name, help, handler, adder of its arguments), in help order.
COMMANDS = (
    ("rank", "quasimap homology rank (dichotomy check)", cmd_qmap_rank, _qmap_args),
    ("unit", "does the unit class survive in homology", cmd_qmap_unit, _qmap_args),
    ("charge", "central charge of the brane", cmd_qmap_charge, _charge_args),
)
