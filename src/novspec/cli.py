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

Each group but ``selftest`` has a module, ``cli_<group>``, whose
``COMMANDS`` table describes each of its commands once; this module keeps
``selftest`` and what several groups use.  A command line is parsed on
one of two paths.  One that starts with a group and one of its commands
(or with ``selftest``) imports that group's module alone and is parsed by
that command's parser alone, built under the ``prog`` argparse gives it
as a subparser, so such a call compiles no other group's handlers and
builds one ``ArgumentParser``, not the full parser's 24.  Everything else
(top-level and group-level ``--help``, an unknown name, an option before
the group, and a command line that leaves arguments over) goes to the
full parser, built from every group's table.  The full path stays
because those cases print usage and errors that name the top level or
the group, and only the full parser prints them byte for byte.

All JSON documents carry ``schema_version`` at the top level, encode
rationals as strings, and are emitted with sorted keys so identical
inputs produce identical bytes: those of ``json.dumps(obj, indent=2,
sort_keys=True)``, written by ``_encode`` in place of the pure-Python
encoder that ``indent`` selects in ``json``.  CSV output exists only for
``toric scan``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from importlib import import_module
from typing import Optional, Sequence

from .records import SCHEMA_VERSION, SchemaError, _long_int_str


class _OptionError(Exception):
    """A parsed option value that does not fit the input: exits 2, as argparse does."""


class _InputError(Exception):
    """An input file that is not UTF-8 JSON: exits 2, its message naming the file."""


def _load_json(path: str):
    """The JSON document in ``path``; an error decoding it names the file.
    That includes an integer literal past the interpreter's limit on
    str-to-int conversion, which ``json.loads`` raises as a ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError(f"{path}: nested too deeply", text, 0) from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        raise _InputError(f"{path}: {exc}") from None


def _document(kind: str, payload: dict) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    doc.update(payload)
    return doc


_quote = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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


# ---------------------------------------------------------------------------
# argument types and adders of several groups


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

# argparse reads an argument that starts with "-" as an option unless it
# looks like a negative number, and its own pattern admits only integers
# and decimals; this one admits fractions and -inf too, so "--order -1/2"
# and "--floor -inf" work.
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$|^-inf$")


def _input(p: argparse.ArgumentParser) -> None:
    p.add_argument("input")


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    report = run_selftest(seed=args.seed, mutate=args.mutate)
    _emit(args, report)
    return 0 if report["ok"] else 1


def _selftest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mutate",
        action="store_true",
        help="corrupt a differential and report whether validation catches it",
    )


# ---------------------------------------------------------------------------
# parser

# Every command group and its help, in the order the top-level help lists them.
_GROUPS = {
    "complex": "filtered complexes",
    "toric": "moment polytopes and certificates",
    "qmap": "quasimap complexes on certified branes",
    "qstate": "oracle homogenization and axiom checks",
    "selftest": "seeded property suites; deterministic output",
}


def _commands(group: str) -> tuple:
    """Every command of ``group`` once, as (name, help, handler, adder of its
    arguments), in the order its help lists them: the ``COMMANDS`` of the
    group's module, imported here.  ``selftest`` is a group that takes its
    arguments itself: its name and help are None."""
    if group == "selftest":
        return ((None, None, cmd_selftest, _selftest_args),)
    return import_module(f"{__package__}.cli_{group}").COMMANDS


def _fill(p: argparse.ArgumentParser, func, add_arguments) -> None:
    add_arguments(p)
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    """The parser with every group and every command, the groups' modules
    imported in ``_GROUPS`` order."""
    parser = argparse.ArgumentParser(
        prog="novspec",
        description="Exact spectral invariants over Novikov fields.",
    )
    top = parser.add_subparsers(dest="group", required=True)
    for group, group_help in _GROUPS.items():
        group_parser, subs = top.add_parser(group, help=group_help), None
        for name, help_text, func, add_arguments in _commands(group):
            if name is None:
                _fill(group_parser, func, add_arguments)
                continue
            if subs is None:
                subs = group_parser.add_subparsers(dest="command", required=True)
            _fill(subs.add_parser(name, help=help_text), func, add_arguments)
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
    group = argv[0] if argv else None
    if group in _GROUPS:
        for name, _, func, add_arguments in _commands(group):
            head = [group] if name is None else [group, name]
            if argv[: len(head)] == head:
                parser = argparse.ArgumentParser(prog=" ".join(["novspec", *head]))
                _fill(parser, func, add_arguments)
                args, rest = parser.parse_known_args(argv[len(head) :])
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
    # under ``python -m`` this file is ``__main__``, a second copy of the module:
    # run the main of ``novspec.cli``, whose errors the group modules raise
    from . import cli

    sys.exit(cli.main())
