"""``novspec complex``: checks, homology and spectral numbers of filtered complexes."""

from __future__ import annotations

import argparse

from .cli import _document, _emit, _input, _load_json
from .records import parse_or_schema_error as _parse


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


def _spectral_args(p: argparse.ArgumentParser) -> None:
    _input(p)
    p.add_argument("--chain", required=True, help="JSON file with the cycle")


def _tensor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("left")
    p.add_argument("right")


# Each command once, as (name, help, handler, adder of its arguments), in help order.
COMMANDS = (
    ("validate", "structural and filtration checks", cmd_complex_validate, _input),
    ("homology", "homology ranks over the Novikov field", cmd_complex_homology, _input),
    ("spectral", "spectral number of a cycle", cmd_complex_spectral, _spectral_args),
    ("spectrum", "action spectrum", cmd_complex_spectrum, _input),
    ("tensor", "tensor product of two complexes", cmd_complex_tensor, _tensor_args),
)
