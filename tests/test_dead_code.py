"""Every module-level function and class of novspec, public or private,
has a caller.

A name defined in ``src/novspec/<module>.py`` counts as referenced when,
outside its own definition, it is read as a bare name in its module,
imported from its module or read as an attribute of it anywhere in
``src/`` or ``bench/``, or named in a pair of strings such as
``("novikov", "NovikovScalar.__mul__")``, the form in which the benchmark
tracer names the functions it wraps.  Public code that only tests reach
has to be listed in ``KEPT`` with its reason; a private helper that only
tests reach (a ``_name`` left behind when its last caller moved to other
code) fails outright.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "novspec").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))

# (module, name) -> why it stays although only tests reach it
KEPT = {
    ("complexes", "level"): "the tests' reference for the level a spectral witness attains",
    ("polytope", "product"): "acceptance criterion 6 certifies CP1 x CP1 built with it",
    ("polytope", "transform"): "the shear tests check that certificates follow GL(n,Z) changes",
    ("polytope", "transform_point"): "moves the fiber along with transform() in the shear tests",
}


def _uses(path: Path):
    """(line, module, name) for every name the file reads: ``module`` is
    the module the name is read from, None for a bare name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.lineno, None, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, ast.unparse(node.value).split(".")[-1], node.attr
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.lineno, node.module.split(".")[-1], alias.name
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            module, attr = node.elts
            if all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
                yield node.lineno, module.value, attr.value.split(".")[0]


def _unreferenced(private: bool):
    uses = {path: list(_uses(path)) for path in CALLERS}
    out = set()
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") != private:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name
                and (module == path.stem or (module is None and where == path))
                and not (where == path and line in own)
                for where, found in uses.items()
                for line, module, name in found
            ):
                out.add((path.stem, node.name))
    return out


def test_every_public_name_has_a_caller_outside_tests():
    assert _unreferenced(private=False) == set(KEPT)


def test_every_private_helper_has_a_caller_outside_tests():
    assert _unreferenced(private=True) == set()
