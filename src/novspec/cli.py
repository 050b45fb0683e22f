"""Command-line interface.

Commands are grouped by object: ``complex`` (filtered complexes),
``toric`` (moment polytopes, potentials, certificates), ``qmap``
(quasimap complexes over certified branes), ``qstate`` (oracle
homogenization and axiom checks), and ``selftest``.

Exit codes: 0 on success (a none-found certification and a valid
revalidation both count as success), 1 when a mathematical validation
fails (invalid complex or polytope, off-interior fiber, degenerate
lift, axiom violation), 2 on I/O, JSON, or schema errors and on bad
arguments: a bad ``--fiber`` (one of the wrong dimension included),
``--brane`` (one out of the certificate's range included), ``--floor``,
``--scale``, ``--volume``, ``--order``, ``--grid`` or ``--eps`` value
among them.

Every command is described once, in ``_COMMANDS``, and parsed on one of
two paths.  A command line that starts with a group and one of its
commands (or with ``selftest``) is parsed by that command's parser
alone, built under the ``prog`` argparse gives it as a subparser, so such
a call builds one ``ArgumentParser``, not the full parser's 24.
Everything else (top-level and group-level ``--help``, an unknown name,
an option before the group, and a command line that leaves arguments
over) goes to the full parser built from the same table.  The full path
stays because those cases print usage and errors that name the top level
or the group, and only the full parser prints them byte for byte.

All JSON documents carry ``schema_version`` at the top level, encode
rationals as strings, and are emitted with sorted keys so identical
inputs produce identical bytes: those of ``json.dumps(obj, indent=2,
sort_keys=True)``, written by ``_encode`` in place of the pure-Python
encoder that ``indent`` selects in ``json``.  CSV output exists only for
``toric scan``.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .fields import NEG_INF, SCHEMA_VERSION, SchemaError
from .fields import parse_or_schema_error as _parse


class _OptionError(Exception):
    """A parsed option value that does not fit the input: exits 2, as argparse does."""


class _InputError(Exception):
    """An input file that is not UTF-8 JSON: exits 2, its message naming the file."""


def _load_json(path: str):
    """The JSON document in ``path``; an error decoding it names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError(f"{path}: nested too deeply", text, 0) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _InputError(f"{path}: {exc}") from None


def _document(kind: str, payload: dict) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    doc.update(payload)
    return doc


_quote = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _long_int_str(n: int) -> str:
    """The decimal digits of ``n`` in pieces under 640 digits, the least limit
    on int-to-str conversion the interpreter allows; halving keeps it shallow."""
    if n < 0:
        return "-" + _long_int_str(-n)
    if n < 10**500:
        return int.__repr__(n)
    k = n.bit_length() * 3 // 20  # about half its digits, at log10(2) = 0.301 a bit
    high, low = divmod(n, 10**k)
    return _long_int_str(high) + _long_int_str(low).zfill(k)


def _encode(o, nl: str, put) -> None:
    """Pass ``put`` the pieces of ``json.dumps(o, indent=2, sort_keys=True)``,
    testing types in json's order, where ``nl`` is a newline and the indent
    of ``o``'s line; a key that is not a str raises TypeError.  Module-level:
    a recursive closure is a reference cycle, and would keep each document's
    pieces until a GC pass."""
    if isinstance(o, str):
        put(_quote(o))
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        try:
            put(int.__repr__(o))
        except ValueError:  # past sys.get_int_max_str_digits()
            put(_long_int_str(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        put(_NON_FINITE.get(text, text))
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = nl + "  "
        sep, rest = "[" + inner, "," + inner
        for v in o:
            put(sep)
            _encode(v, inner, put)
            sep = rest
        put(nl + "]")
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        sep, rest = "{" + inner, "," + inner
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            put(f"{sep}{_quote(k)}: ")
            _encode(v, inner, put)
            sep = rest
        put(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(args, obj: dict) -> None:
    parts = []
    _encode(obj, "\n", parts.append)
    parts.append("\n")
    _write_text(args, "".join(parts))


def _write_text(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _toric_field(args):
    from .fields import field_for_mode

    return field_for_mode(args.mode, float(getattr(args, "eps", 1e-12)))


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


# ---------------------------------------------------------------------------
# qmap


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
    from .fields import floor_str
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
    if getattr(args, "scale", None) is not None:
        c = field.coerce(args.scale)
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


# ---------------------------------------------------------------------------
# qstate


def cmd_qstate_homogenize(args) -> int:
    from .quasistate import SpectralOracle, homogenize, mu_from_oracle

    doc = _load_json(args.input)
    oracle = _parse(lambda: SpectralOracle.from_json(doc), f"oracle {args.input}")
    zeta = _parse(lambda: homogenize(oracle).to_json(), f"oracle {args.input}")
    payload = {"tag": oracle.tag, "zeta": zeta, "mu": None}
    if args.volume is not None:
        try:
            payload["mu"] = mu_from_oracle(oracle, args.volume).to_json()
        except ValueError as exc:
            raise _OptionError(f"argument --volume: {exc}") from None
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


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _checked_rational(need: str, ok):
    def parse(text: str) -> Fraction:
        value = _rational(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value

    return parse


_positive_rational = _checked_rational("positive", lambda v: v > 0)
_negative_rational = _checked_rational("negative", lambda v: v < 0)
_nonzero_rational = _checked_rational("nonzero", lambda v: v != 0)
# a positive normal float, so that float() of it neither overflows nor gives 0
_eps = _checked_rational(
    "positive and in float range", lambda v: sys.float_info.min <= v <= sys.float_info.max
)


def _fiber(text: str) -> tuple:
    return tuple(_rational(part) for part in text.split(",") if part.strip())


def _floor(text: str):
    return NEG_INF if text == "-inf" else _rational(text)


# argparse reads an argument that starts with "-" as an option unless it
# looks like a negative number, and its own pattern admits only integers
# and decimals; this one admits fractions and -inf too, so "--order -1/2"
# and "--floor -inf" work.
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$|^-inf$")


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


def _input(p: argparse.ArgumentParser) -> None:
    p.add_argument("input")


def _spectral_args(p: argparse.ArgumentParser) -> None:
    _input(p)
    p.add_argument("--chain", required=True, help="JSON file with the cycle")


def _tensor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("left")
    p.add_argument("right")


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


def _homogenize_args(p: argparse.ArgumentParser) -> None:
    _input(p)
    p.add_argument(
        "--volume", type=_positive_rational, help="also report mu = vol * slope for this volume"
    )


def _selftest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mutate",
        action="store_true",
        help="corrupt a differential and report whether validation catches it",
    )


# Every command group as (name, help), in the order the top-level help
# lists them.
_GROUPS = (
    ("complex", "filtered complexes"),
    ("toric", "moment polytopes and certificates"),
    ("qmap", "quasimap complexes on certified branes"),
    ("qstate", "oracle homogenization and axiom checks"),
    ("selftest", "seeded property suites; deterministic output"),
)

# Every command once, as (group, name, help, handler, adder of its
# arguments), in the order its group's help lists them.  ``selftest`` is a
# group that takes its arguments itself: its name and help are None.
_COMMANDS = (
    ("complex", "validate", "structural and filtration checks", cmd_complex_validate, _input),
    ("complex", "homology", "homology ranks over the Novikov field", cmd_complex_homology,
     _input),
    ("complex", "spectral", "spectral number of a cycle", cmd_complex_spectral, _spectral_args),
    ("complex", "spectrum", "action spectrum", cmd_complex_spectrum, _input),
    ("complex", "tensor", "tensor product of two complexes", cmd_complex_tensor, _tensor_args),
    ("toric", "validate", "boundedness, vertices, Delzant checks", cmd_toric_validate, _input),
    ("toric", "potential", "disk potential at a fiber", cmd_toric_potential, _potential_args),
    ("toric", "critical", "leading-order critical points", cmd_toric_critical, _critical_args),
    ("toric", "certify", "certify a fiber by lifted critical branes", cmd_toric_certify,
     _certify_args),
    ("toric", "scan", "certify every interior grid fiber", cmd_toric_scan, _scan_args),
    ("toric", "revalidate", "re-check a serialized certificate", cmd_toric_revalidate, _input),
    ("qmap", "rank", "quasimap homology rank (dichotomy check)", cmd_qmap_rank, _qmap_args),
    ("qmap", "unit", "does the unit class survive in homology", cmd_qmap_unit, _qmap_args),
    ("qmap", "charge", "central charge of the brane", cmd_qmap_charge, _charge_args),
    ("qstate", "homogenize", "quasi-state value from a spectral oracle", cmd_qstate_homogenize,
     _homogenize_args),
    ("qstate", "check", "axiom checks on a declared family", cmd_qstate_check, _input),
    ("qstate", "heavy", "zeta(H) <= sup_Y H on declared functions", cmd_qstate_heavy, _input),
    ("qstate", "product", "product quasi-state additivity tables", cmd_qstate_product, _input),
    ("selftest", None, None, cmd_selftest, _selftest_args),
)


def _fill(p: argparse.ArgumentParser, func, add_arguments) -> argparse.ArgumentParser:
    add_arguments(p)
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The parser with every group and every command of ``_COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="novspec",
        description="Exact spectral invariants over Novikov fields.",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {name: top.add_parser(name, help=help_text) for name, help_text in _GROUPS}
    subs = {}
    for group, name, help_text, func, add_arguments in _COMMANDS:
        if name is None:
            _fill(groups[group], func, add_arguments)
            continue
        if group not in subs:
            subs[group] = groups[group].add_subparsers(dest="command", required=True)
        _fill(subs[group].add_parser(name, help=help_text), func, add_arguments)
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse ``argv`` as ``build_parser().parse_args`` does.

    An ``argv`` that starts with a group and one of its commands is parsed
    by that command's parser alone, built under the ``prog`` argparse gives
    it as a subparser; anything else, and a command line that leaves
    arguments over, goes to the full parser, whose usage and errors name
    the top level.
    """
    argv = list(argv)
    for group, name, _, func, add_arguments in _COMMANDS:
        head = [group] if name is None else [group, name]
        if argv[: len(head)] == head:
            parser = argparse.ArgumentParser(prog=" ".join(["novspec", *head]))
            args, rest = _fill(parser, func, add_arguments).parse_known_args(argv[len(head) :])
            if rest:
                break
            args.group = group
            if name is not None:
                args.command = name
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"novspec: schema error: {exc}", file=sys.stderr)
        return 2
    except _OptionError as exc:
        print(f"novspec: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, _InputError) as exc:
        print(f"novspec: input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"novspec: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
