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

The same holds for parameters: every defaulted parameter of a function or
method in ``src/novspec`` (``__init__`` aside) is set by some call in
``src/`` or ``bench/`` to a function of its name, by position (counted
past ``self`` or ``cls`` for a method) or by keyword, a call with ``*`` or
``**`` setting every parameter; one that no such call sets is listed in
``KEPT_PARAMETERS`` with its reason.

Two import guards keep a cold start to what its command runs: no module
imports ``dataclasses`` (which loads ``inspect``, ``ast``, ``dis`` and
``tokenize``), and the package root imports no submodule when it loads.

A record (a class deriving from ``records.Record`` or ``records.Frozen``)
states its fields once, in ``__slots__``: an ``__init__`` of its own that
only stores its parameters, none defaulted, is what ``Record.__init__``
already does, and fails unless ``KEPT_INITIALIZERS`` gives its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "novspec").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))

# (module, name) -> why it stays although only tests reach it
KEPT = {}

# (module, function, parameter) -> why it stays although no call sets it
KEPT_PARAMETERS = {
    ("randomcx", "random_complex", "conjugate"):
        "the tests' unconjugated reference complexes, whose spectra are known",
    ("randomcx", "RandomComplexData.random_cycle", "boundary"):
        "the tests' and the corpus pin's boundaries, whose spectral number is -inf",
}

# (module, record) -> why it keeps an initializer that only stores its fields
KEPT_INITIALIZERS = {
    ("complexes", "OrbitGenerator"):
        "the seed-0 homology op list builds 3,562 generators: 0.49 us each with its own "
        "initializer, 1.18 us through Record.__init__ (Python 3.11)",
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
    class, and for every method whose name no other class defines; a
    dunder, which the interpreter calls (a module's ``__getattr__``, a
    class's ``__init__``), is not checked."""
    methods = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
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


def _defaulted_parameters():
    """(module, qualified name, offset, [(position or None, name)]) for
    every function and method of the sources with defaulted parameters;
    ``offset`` counts the ``self`` or ``cls`` a call by attribute does not
    pass, and a keyword-only parameter has no position."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(None, tree.body)]
        scopes += [(node.name, node.body) for node in tree.body if isinstance(node, ast.ClassDef)]
        for cls, body in scopes:
            for node in body:
                if not isinstance(node, ast.FunctionDef) or node.name == "__init__":
                    continue
                a = node.args
                positional = a.posonlyargs + a.args
                static = any(ast.unparse(d) == "staticmethod" for d in node.decorator_list)
                offset = int(cls is not None and not static)
                params = [(i - offset, arg.arg) for i, arg in enumerate(positional)
                          if i >= len(positional) - len(a.defaults)]
                params += [(None, arg.arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d]
                if params:
                    qualname = node.name if cls is None else f"{cls}.{node.name}"
                    yield path.stem, qualname, params


def _calls():
    """(called name, positional count or None, keyword names) for every
    call in ``src/`` and ``bench/``; None when a ``*`` or ``**`` may pass
    anything."""
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            if starred or any(k.arg is None for k in node.keywords):
                yield name, None, set()
            else:
                yield name, len(node.args), {k.arg for k in node.keywords}


def _unset_parameters():
    calls = list(_calls())
    out = set()
    for module, qualname, params in _defaulted_parameters():
        mine = [(n, kw) for name, n, kw in calls if name == qualname.split(".")[-1]]
        for position, param in params:
            if not any(
                n is None or (position is not None and n > position) or param in kw
                for n, kw in mine
            ):
                out.add((module, qualname, param))
    return out


def test_every_defaulted_parameter_is_set_outside_tests():
    assert _unset_parameters() == set(KEPT_PARAMETERS)


def _imports(nodes):
    """(line, module) for every import under the AST nodes; a relative
    import names its module with its leading dots, ``from . import x``
    as ``.x``."""
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                yield from ((node.lineno, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                dots = "." * node.level
                if node.module:
                    yield node.lineno, dots + node.module
                else:
                    yield from ((node.lineno, dots + alias.name) for alias in node.names)


def test_no_module_imports_dataclasses():
    found = [f"{path.name}:{line}" for path in SOURCES
             for line, module in _imports([ast.parse(path.read_text(encoding="utf-8"))])
             if module.split(".")[0] == "dataclasses"]
    assert found == [], f"dataclasses imported at {found}"


def test_package_root_imports_no_submodule_when_it_loads():
    path = ROOT / "src" / "novspec" / "__init__.py"
    body = ast.parse(path.read_text(encoding="utf-8")).body
    load_time = [node for node in body if not isinstance(node, ast.FunctionDef)]
    found = [f"{path.name}:{line} imports {module}" for line, module in _imports(load_time)
             if module.startswith((".", "novspec"))]
    assert found == []


def _stores_only(init: ast.FunctionDef) -> bool:
    """Whether an ``__init__`` takes its parameters by position or name,
    none defaulted, and only stores them: ``self.x = x``, ``self.x, self.y
    = x, y`` or ``_set(self, "x", x)``."""
    a = init.args
    if a.posonlyargs or a.vararg or a.kwonlyargs or a.kwarg or a.defaults:
        return False
    params = {arg.arg for arg in a.args[1:]}

    def stores(stmt) -> bool:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            return (ast.unparse(call.func) == "_set" and len(call.args) == 3
                    and isinstance(call.args[2], ast.Name) and call.args[2].id in params)
        if isinstance(stmt, ast.Expr):  # a docstring
            return isinstance(stmt.value, ast.Constant)
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
            return False
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        pairs = [(target, stmt.value) for target in targets]
        if all(isinstance(x, ast.Tuple) for pair in pairs for x in pair):
            pairs = [p for t, v in pairs for p in zip(t.elts, v.elts)]
        return all(isinstance(t, ast.Attribute) and ast.unparse(t.value) == "self"
                   and isinstance(v, ast.Name) and v.id in params for t, v in pairs)

    return all(stores(stmt) for stmt in init.body)


def _storing_initializers():
    """{(module, record): "file:line"} for every record class whose own
    ``__init__`` only stores its parameters."""
    classes = [(path, node) for path in SOURCES
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef)]
    records, size = {"Record"}, 0
    while size != len(records):
        size = len(records)
        records |= {node.name for _, node in classes
                    if any(ast.unparse(b).split(".")[-1] in records for b in node.bases)}
    return {(path.stem, node.name): f"{path.name}:{item.lineno}"
            for path, node in classes if node.name in records
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            and _stores_only(item)}


def test_records_leave_storing_their_fields_to_record_init():
    found = _storing_initializers()
    unlisted = [f"{where}: {cls}.__init__ only stores its parameters, as Record.__init__ does"
                for (module, cls), where in sorted(found.items())
                if (module, cls) not in KEPT_INITIALIZERS]
    assert unlisted == []
    assert set(found) == set(KEPT_INITIALIZERS)
