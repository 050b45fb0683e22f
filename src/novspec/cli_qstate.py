"""``novspec qstate``: oracle homogenization and axiom checks on declared families."""

from __future__ import annotations

import argparse

from .cli import _OptionError, _document, _emit, _input, _load_json, _positive_rational
from .records import SchemaError
from .records import parse_or_schema_error as _parse


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


def _homogenize_args(p: argparse.ArgumentParser) -> None:
    _input(p)
    p.add_argument(
        "--volume", type=_positive_rational, help="also report mu = vol * slope for this volume"
    )


# Each command once, as (name, help, handler, adder of its arguments), in help order.
COMMANDS = (
    ("homogenize", "quasi-state value from a spectral oracle", cmd_qstate_homogenize,
     _homogenize_args),
    ("check", "axiom checks on a declared family", cmd_qstate_check, _input),
    ("heavy", "zeta(H) <= sup_Y H on declared functions", cmd_qstate_heavy, _input),
    ("product", "product quasi-state additivity tables", cmd_qstate_product, _input),
)
