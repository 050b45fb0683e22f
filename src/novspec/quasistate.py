"""Homogenization of spectral-number oracles and quasi-state axiom checking.

Genuine quasi-states on a symplectic manifold homogenize spectral invariants
of Hamiltonians; those invariants are PDE-level inputs that no desk-scale
computation can produce.  This module therefore operates on *oracles*: finite
tables n -> c_n of spectral numbers at integer scales, either synthetic or
exported from filtered-complex computations.  From an oracle it estimates

    zeta = -lim c_n / n        (function quasi-state normalization)
    mu   = vol * lim c_n / n   (group pre-quasimorphism normalization)

by a least-squares fit of the linear model c = s*n (the line through the
origin, which is the model class the limit defines).  For an oracle of the
form c_n = s*n + r(n) with |r| bounded, the estimate converges to s at rate
1/n_max, and the reported interval always contains the true slope.

Axiom checkers operate on finite function (or group-element) families with
declared pointwise relations.  The relation vocabulary is the two rule
tables ``_QUASISTATE_RULES`` and ``_PREQUASIMORPHISM_RULES``: each relation
type is declared there once, with its axiom, parameter, comparison and
failure message.  Axioms whose hypotheses need displaceability or
Hofer-geometry data that cannot be derived here are only checked against
user-declared flags and are marked conditional in the report.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .records import Record, fraction_str, parse_fraction, to_float

Value = Union[Fraction, float]

FLOAT_TOL = 1e-9


def _parse_value(v) -> Value:
    if isinstance(v, float):
        return v
    return parse_fraction(v)


def _value_str(v: Value):
    """The JSON form of a result: a float as is, a rational as its string.
    Float arithmetic on in-range inputs can still overflow; a non-finite
    result has no JSON form and is refused."""
    if not isinstance(v, float):
        return fraction_str(v)
    if not math.isfinite(v):
        raise ValueError(f"float arithmetic overflows to {v}")
    return v


def _float(v: Value) -> float:
    """A float as is (``_value_str`` refuses an overflowed one); an exact
    value through ``to_float``, so one beyond float range is a ValueError."""
    return v if isinstance(v, float) else to_float(v)


def _is_close(a: Value, b: Value, tol: float) -> bool:
    """a == b within tol; exact when tol is 0, which ``_tolerance`` gives only
    for all-rational data."""
    return a == b if tol == 0 else abs(_float(a) - _float(b)) <= tol


def _at_most(a: Value, b: Value, tol: float) -> bool:
    """a <= b + tol; exact when tol is 0."""
    return a <= b if tol == 0 else _float(a) <= _float(b) + tol


def _tolerance(values: Sequence[Value]) -> float:
    """0 when every number a check reads is rational, else FLOAT_TOL: the
    checks then compare in floats, so each value must be in float range."""
    if all(isinstance(v, Fraction) for v in values):
        return 0.0
    for v in values:
        to_float(v)
    return FLOAT_TOL


def _objects(doc, key: str) -> list:
    """The list of JSON objects under ``key`` (empty when absent)."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    items = doc.get(key)
    if items is None:
        return []
    if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
        raise ValueError(f"{key!r} must be a list of objects")
    return items


class SpectralOracle(Record):
    """Finite table of spectral numbers c(e, n*F) indexed by positive scale n."""

    __slots__ = ("samples", "tag")

    def __init__(self, samples: List[Tuple[int, Value]], tag: str = "synthetic"):
        seen = set()
        for n, _ in samples:
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValueError("oracle scales must be positive integers")
            if n in seen:
                raise ValueError(f"duplicate oracle scale {n}")
            seen.add(n)
        if tag not in ("synthetic", "derived-from-complex"):
            raise ValueError(f"unknown oracle tag {tag!r}")
        _tolerance([c for _, c in samples])  # a fit in floats needs float range
        self.samples, self.tag = samples, tag

    @staticmethod
    def from_json(obj: dict) -> "SpectralOracle":
        if not isinstance(obj, dict) or "samples" not in obj:
            raise ValueError("oracle JSON needs a 'samples' list")
        samples = []
        for row in obj["samples"]:
            samples.append((row["n"], _parse_value(row["c"])))
        return SpectralOracle(samples, obj.get("tag", "synthetic"))


class QuasiStateEstimate(Record):
    __slots__ = ("value", "interval", "scales_used", "slope")

    def to_json(self) -> dict:
        return {
            "value": _value_str(self.value),
            "interval": [_value_str(self.interval[0]), _value_str(self.interval[1])],
            "scales_used": self.scales_used,
            "slope": _value_str(self.slope),
        }


def _estimate(o: SpectralOracle, factor) -> QuasiStateEstimate:
    """factor * lim c_n/n.  The slope is the least-squares fit of c = s*n;
    the interval is value +- |factor| * (max residual)/n_max.  A fit in
    floats scales by float(factor), so the factor must be in float range."""
    if len(o.samples) < 2:
        raise ValueError("homogenization needs at least two oracle samples")
    samples = o.samples
    if not all(isinstance(c, Fraction) for _, c in samples):
        samples = [(n, float(c)) for n, c in samples]
        factor = to_float(factor)
    slope = sum(n * c for n, c in samples) / sum(n * n for n, _ in samples)
    n_max = max(n for n, _ in samples)
    halfwidth = max(abs(c - slope * n) for n, c in samples) / n_max
    value, spread = factor * slope, abs(factor) * halfwidth
    return QuasiStateEstimate(
        value=value,
        interval=(value - spread, value + spread),
        scales_used=sorted(n for n, _ in samples),
        slope=slope,
    )


def homogenize(o: SpectralOracle) -> QuasiStateEstimate:
    """Quasi-state value zeta = -lim c_n/n from a finite oracle; the
    interval contains -s_true whenever the oracle is linear-plus-bounded
    and n_max is large enough for the bound."""
    return _estimate(o, -1)


def mu_from_oracle(o: SpectralOracle, vol) -> QuasiStateEstimate:
    """Pre-quasimorphism value mu = vol * lim c_n/n (note the opposite sign
    convention from the function quasi-state)."""
    vol = parse_fraction(vol)
    if vol <= 0:
        raise ValueError("volume must be positive")
    return _estimate(o, vol)


# ---------------------------------------------------------------------------
# Axiom checking on declared families


def _factor(v) -> Value:
    factor = _parse_value(v)
    if factor < 0:
        raise ValueError("semi-homogeneity factors must be >= 0")
    return factor


def _power(n) -> Fraction:
    """n as a Fraction, so that it counts as rational for the tolerance."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("power relations need integer n >= 1")
    return Fraction(n)


class _Rule(NamedTuple):
    """One relation type: its axiom, its numeric parameter's key (or None)
    and reader, the keys of the names it looks up in lookup order, whether it holds
    given (tolerance, parameter, *values), and its failure message over the
    relation's keys, the parameter written as a result."""

    axiom: str
    param: Optional[str]
    names: Tuple[str, ...]
    holds: Callable[..., bool]
    message: str
    conditional: bool = False
    parse: Callable = _parse_value


# Listed in report order: each axiom has one relation type per family.
_QUASISTATE_RULES = {
    "lipschitz": _Rule(
        "lipschitz", "dist", ("f", "g"),
        lambda t, d, f, g: _at_most(abs(f - g), d, t), "|zeta({f}) - zeta({g})| > {dist}"),
    "scale": _Rule(
        "semi-homogeneity", "factor", ("f", "g"),
        lambda t, k, f, g: _is_close(g, k * f, t), "zeta({g}) != {factor} * zeta({f})",
        parse=_factor),
    "le": _Rule(
        "monotonicity", None, ("f", "g"), lambda t, _, f, g: _at_most(f, g, t),
        "{f} <= {g} declared but zeta({f}) > zeta({g})"),
    "normalized": _Rule(
        "normalization", None, ("f",), lambda t, _, f: _is_close(f, Fraction(1), t),
        "zeta({f}) != 1"),
    "partial_additivity": _Rule(
        "partial-additivity", None, ("f", "sum"), lambda t, _, f, h: _is_close(h, f, t),
        "zeta({sum}) != zeta({f}) with displaceable {g}", conditional=True),
    "invariance": _Rule(
        "hamiltonian-invariance", None, ("f", "g"), lambda t, _, f, g: _is_close(f, g, t),
        "zeta({f}) != zeta({g}) on a declared pullback pair", conditional=True),
    "shift": _Rule(
        "additivity-with-constants", "alpha", ("f", "g"),
        lambda t, a, f, g: _is_close(g, f + a, t), "zeta({g}) != zeta({f}) + {alpha}"),
    "vanishing": _Rule(
        "vanishing", None, ("f",), lambda t, _, f: _is_close(f, Fraction(0), t),
        "zeta({f}) != 0 with declared displaceable support", conditional=True),
    "triangle": _Rule(
        "triangle", None, ("f", "g", "sum"), lambda t, _, f, g, h: _at_most(f + g, h, t),
        "zeta({sum}) < zeta({f}) + zeta({g}) on a commuting pair"),
}

_PREQUASIMORPHISM_RULES = {
    "lipschitz": _Rule(
        "hofer-lipschitz", "bound", ("f", "g"),
        lambda t, b, f, g: _at_most(abs(f - g), b, t),
        "|mu({f}) - mu({g})| > declared Hofer bound", conditional=True),
    "power": _Rule(
        "semi-homogeneity", "n", ("f", "g"), lambda t, n, f, g: _is_close(g, n * f, t),
        "mu({g}) != {n} * mu({f})", parse=_power),
    "quasi_additivity": _Rule(
        "quasi-additivity", "bound", ("f", "g", "product"),
        lambda t, b, f, g, h: _at_most(abs(h - f - g), b, t),
        "|mu({product}) - mu({f}) - mu({g})| > {bound}"),
    "conjugation": _Rule(
        "hamiltonian-invariance", None, ("f", "g"), lambda t, _, f, g: _is_close(f, g, t),
        "mu({f}) != mu({g}) on a conjugate pair"),
    "calabi": _Rule(
        "calabi", "value", ("f",), lambda t, v, f: _is_close(f, v, t),
        "mu({f}) != declared Calabi value", conditional=True),
}


def _check(family: dict, kind: str, members: str, value: str, noun: str, rules: dict) -> dict:
    """Check every declared relation of ``family`` against ``rules``.  Every
    member value and relation parameter is read first, so the tolerance
    covers every number a comparison reads."""
    values = {m["name"]: _parse_value(m[value]) for m in _objects(family, members)}
    relations = []
    for rel in _objects(family, "relations"):
        rule = rules.get(rel.get("type"))
        relations.append((rel, rule, rule.parse(rel[rule.param]) if rule and rule.param else None))
    tol = _tolerance([*values.values(), *(p for _, _, p in relations if p is not None)])
    axioms = {
        rule.axiom: {"axiom": rule.axiom, "status": "not-checked", "checked": 0,
                     "conditional": rule.conditional, "failures": []}
        for rule in rules.values()
    }
    for rel, rule, param in relations:
        if rule is None:
            raise ValueError(f"unknown relation type {rel.get('type')!r}")
        looked_up = []
        for key in rule.names:
            if rel[key] not in values:
                raise ValueError(f"relation references unknown {noun} {rel[key]!r}")
            looked_up.append(values[rel[key]])
        ok = rule.holds(tol, param, *looked_up)
        # formatted even when the relation holds: every key it names is required
        failure = rule.message.format_map(
            {**rel, rule.param: _value_str(param)} if rule.param else rel)
        entry = axioms[rule.axiom]
        entry["checked"] += 1
        if not ok:
            entry["failures"].append(failure)
        entry["status"] = "fail" if entry["failures"] else "pass"
    report = list(axioms.values())
    return {
        "kind": kind,
        "tolerance": tol,
        "axioms": report,
        "all_pass": all(a["status"] != "fail" for a in report),
    }


def check_partial_quasistate(family: dict) -> dict:
    """Check declared relations of a finite family against the partial
    quasi-state axioms: Lipschitz bound, semi-homogeneity, monotonicity,
    normalization, partial additivity (conditional on declared displaceable
    supports), Hamiltonian invariance (conditional), additivity with
    constants, vanishing (conditional), and the triangle inequality on
    declared-commuting pairs."""
    return _check(family, "partial-quasistate-check", "functions", "zeta", "function",
                  _QUASISTATE_RULES)


def check_prequasimorphism(family: dict) -> dict:
    """Check declared relations of a group-element family against the
    pre-quasimorphism axioms.  Hofer-Lipschitz bounds and Calabi values are
    user-declared data; with no such declarations those axioms are reported
    as not-checked."""
    return _check(family, "prequasimorphism-check", "elements", "mu", "element",
                  _PREQUASIMORPHISM_RULES)


# ---------------------------------------------------------------------------
# Heaviness


class HeavinessReport(Record):
    __slots__ = ("subset", "checked", "violations")

    @property
    def heavy_consistent(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "kind": "heaviness-check",
            "subset": self.subset,
            "checked": self.checked,
            "violations": self.violations,
            "consistent": self.heavy_consistent,
        }


def heaviness_check(family: dict) -> HeavinessReport:
    """Test zeta(H) <= sup_Y H for every declared function.

    ``family`` carries a subset tag and functions with their zeta values and
    sups over Y.  Violations list every function exceeding its sup beyond
    the tolerance (0 for all-rational data).
    """
    rows = [(f["name"], _parse_value(f["zeta"]), _parse_value(f["sup"]))
            for f in _objects(family, "functions")]
    tol = _tolerance([v for _, zeta, sup in rows for v in (zeta, sup)])
    violations = [
        {
            "name": name,
            "zeta": _value_str(zeta),
            "sup": _value_str(sup),
            "excess": _value_str(zeta - sup),
        }
        for name, zeta, sup in rows
        if not _at_most(zeta, sup, tol)
    ]
    checked = [name for name, _, _ in rows]
    return HeavinessReport(family.get("subset", "Y"), checked, violations)


def product_quasistate_check(tables: dict) -> dict:
    """Additivity of a product quasi-state over split functions, plus the
    citation-backed product-heaviness inference.

    ``tables`` carries pairs {f0, f1, zeta0, zeta1, zeta_product}; additivity
    requires zeta_product = zeta0 + zeta1 for each.  When both factor subsets
    are declared heavy, the product subset is reported heavy by inference
    (tagged "product-heaviness"), not by recomputation.
    """
    pairs = [(p, [_parse_value(p[k]) for k in ("zeta0", "zeta1", "zeta_product")])
             for p in _objects(tables, "pairs")]
    tol = _tolerance([v for _, values in pairs for v in values])
    rows = []
    for p, (z0, z1, zp) in pairs:
        expected = z0 + z1
        rows.append(
            {
                "f0": p.get("f0", "?"),
                "f1": p.get("f1", "?"),
                "additive": _is_close(zp, expected, tol),
                "zeta_product": _value_str(zp),
                "expected": _value_str(expected),
            }
        )
    inference = None
    factors = _objects(tables, "factors_heavy")
    if factors:
        heavy = [f.get("heavy", False) for f in factors]
        if not all(isinstance(h, bool) for h in heavy):
            raise ValueError("factor 'heavy' flags must be true or false")
        inference = {
            "theorem": "product-heaviness",
            "subsets": [f.get("subset", "?") for f in factors],
            "product_heavy": all(heavy),
            "note": (
                "inferred from factor heaviness; the product subset is heavy "
                "whenever every factor subset is"
            ),
        }
    return {
        "kind": "product-quasistate-check",
        "tolerance": tol,
        "pairs": rows,
        "all_additive": all(r["additive"] for r in rows),
        "product_heaviness": inference,
    }
