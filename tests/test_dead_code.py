"""Every module-level function and class of novspec, public or private,
has a caller, and so has every method or property whose name no other
novspec class defines.

A name defined in ``src/novspec/<module>.py`` counts as referenced when,
outside its own definition, it is read as a bare name in its module,
imported from its module or read as an attribute of it anywhere in
``src/`` or ``bench/``, or named in a pair of strings such as
``("novikov", "NovikovScalar.__mul__")``, the form in which the benchmark
tracer names the functions it wraps.  A method counts as referenced when,
outside its own definition, its name is read as an attribute of anything
in ``src/`` or ``bench/`` or a string pair names it as ``Class.method``;
a name that several classes define is not checked, since an attribute
read cannot tell them apart.  Public code that only tests reach has to
be listed in ``KEPT`` with its reason; a private helper that only tests
reach (a ``_name`` left behind when its last caller moved to other code)
fails outright.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "novspec").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))

# (module, name) -> why it stays although only tests reach it
KEPT = {
    ("complexes", "level"): "the tests' reference for the level a spectral witness attains",
    ("complexes", "PeriodLattice.omega"): "the tests' reference for spectrality witnesses",
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
                yield node.lineno, module.value, attr.value


def _definitions():
    """(path, qualified name, node) for every module-level function and
    class, and for every method whose name no other class defines."""
    methods = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        methods.setdefault(item.name, []).append((path, node.name, item))
    for found in methods.values():
        if len({cls for _, cls, _ in found}) == 1:
            for path, cls, item in found:
                yield path, f"{cls}.{item.name}", item


def _refers(path: Path, qualname: str, where: Path, module, name: str) -> bool:
    """Whether a use of ``name`` read from ``module`` in file ``where``
    refers to ``qualname`` as defined in ``path``."""
    if "." in qualname:  # a method: any attribute read, or a string pair naming it
        method = qualname.split(".")[1]
        return (module is not None and name == method) or (module, name) == (path.stem, qualname)
    return name == qualname and (module == path.stem or (module is None and where == path))


def _unreferenced(private: bool):
    uses = {path: list(_uses(path)) for path in CALLERS}
    out = set()
    for path, qualname, node in _definitions():
        if node.name.startswith("_") != private:
            continue
        own = range(node.lineno, node.end_lineno + 1)
        if not any(
            _refers(path, qualname, where, module, name)
            and not (where == path and line in own)
            for where, found in uses.items()
            for line, module, name in found
        ):
            out.add((path.stem, qualname))
    return out


def test_every_public_name_has_a_caller_outside_tests():
    assert _unreferenced(private=False) == set(KEPT)


def test_every_private_helper_has_a_caller_outside_tests():
    assert _unreferenced(private=True) == set()
