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
declared pointwise relations; axioms whose hypotheses need displaceability
or Hofer-geometry data that cannot be derived here are only checked against
user-declared flags and are marked conditional in the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .fields import fraction_str, parse_fraction, to_float

Value = Union[Fraction, float]

FLOAT_TOL = 1e-9


def _parse_value(v) -> Value:
    if isinstance(v, float):
        return v
    return parse_fraction(v)


def _value_str(v: Value):
    return v if isinstance(v, float) else fraction_str(v)


def _is_close(a: Value, b: Value, tol: float) -> bool:
    """a == b within tol; exact when tol is 0, which ``_tolerance`` gives only
    for all-rational data."""
    return a == b if tol == 0 else abs(float(a) - float(b)) <= tol


def _at_most(a: Value, b: Value, tol: float) -> bool:
    """a <= b + tol; exact when tol is 0."""
    return a <= b if tol == 0 else float(a) <= float(b) + tol


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


def _relations(family: dict, params: dict) -> Tuple[list, list]:
    """The family's relation objects, and the parsed parameter of each
    relation whose type ``params`` maps to the parameter's key."""
    relations = _objects(family, "relations")
    values = [_parse_value(r[params[r.get("type")]]) for r in relations if r.get("type") in params]
    return relations, values


@dataclass
class SpectralOracle:
    """Finite table of spectral numbers c(e, n*F) indexed by positive scale n."""

    samples: List[Tuple[int, Value]]
    tag: str = "synthetic"

    def __post_init__(self):
        seen = set()
        for n, _ in self.samples:
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValueError("oracle scales must be positive integers")
            if n in seen:
                raise ValueError(f"duplicate oracle scale {n}")
            seen.add(n)
        if self.tag not in ("synthetic", "derived-from-complex"):
            raise ValueError(f"unknown oracle tag {self.tag!r}")
        _tolerance([c for _, c in self.samples])  # a fit in floats needs float range

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "samples": [{"n": n, "c": _value_str(c)} for n, c in self.samples],
        }

    @staticmethod
    def from_json(obj: dict) -> "SpectralOracle":
        if not isinstance(obj, dict) or "samples" not in obj:
            raise ValueError("oracle JSON needs a 'samples' list")
        samples = []
        for row in obj["samples"]:
            samples.append((row["n"], _parse_value(row["c"])))
        return SpectralOracle(samples, obj.get("tag", "synthetic"))


@dataclass
class QuasiStateEstimate:
    value: Value
    interval: Tuple[Value, Value]
    scales_used: List[int]
    slope: Value

    def to_json(self) -> dict:
        return {
            "value": _value_str(self.value),
            "interval": [_value_str(self.interval[0]), _value_str(self.interval[1])],
            "scales_used": self.scales_used,
            "slope": _value_str(self.slope),
        }


def _fit_slope(o: SpectralOracle) -> Tuple[Value, Value, List[int]]:
    if len(o.samples) < 2:
        raise ValueError("homogenization needs at least two oracle samples")
    samples = o.samples
    if not all(isinstance(c, Fraction) for _, c in samples):
        samples = [(n, float(c)) for n, c in samples]
    slope = sum(n * c for n, c in samples) / sum(n * n for n, _ in samples)
    n_max = max(n for n, _ in samples)
    halfwidth = max(abs(c - slope * n) for n, c in samples) / n_max
    return slope, halfwidth, sorted(n for n, _ in samples)


def homogenize(o: SpectralOracle) -> QuasiStateEstimate:
    """Quasi-state value zeta = -lim c_n/n from a finite oracle.

    Slope is the least-squares fit of c = s*n; the interval is
    value +- (max residual)/n_max and contains -s_true whenever the oracle
    is linear-plus-bounded and n_max is large enough for the bound.
    """
    slope, halfwidth, scales = _fit_slope(o)
    value = -slope
    return QuasiStateEstimate(
        value=value,
        interval=(value - halfwidth, value + halfwidth),
        scales_used=scales,
        slope=slope,
    )


def mu_from_oracle(o: SpectralOracle, vol) -> QuasiStateEstimate:
    """Pre-quasimorphism value mu = vol * lim c_n/n (note the opposite sign
    convention from the function quasi-state)."""
    vol = parse_fraction(vol)
    if vol <= 0:
        raise ValueError("volume must be positive")
    slope, halfwidth, scales = _fit_slope(o)
    if isinstance(slope, float):
        vol = to_float(vol)
    value, spread = vol * slope, vol * halfwidth
    return QuasiStateEstimate(
        value=value,
        interval=(value - spread, value + spread),
        scales_used=scales,
        slope=slope,
    )


# ---------------------------------------------------------------------------
# Axiom checking on declared families


def _axiom(name: str, conditional: bool = False) -> dict:
    return {
        "axiom": name,
        "status": "not-checked",
        "checked": 0,
        "conditional": conditional,
        "failures": [],
    }


def _record(entry: dict, ok: bool, detail: str) -> None:
    entry["checked"] += 1
    if ok:
        if entry["status"] == "not-checked":
            entry["status"] = "pass"
    else:
        entry["status"] = "fail"
        entry["failures"].append(detail)


def check_partial_quasistate(family: dict) -> dict:
    """Check declared relations of a finite family against the partial
    quasi-state axioms: Lipschitz bound, semi-homogeneity, monotonicity,
    normalization, partial additivity (conditional on declared displaceable
    supports), Hamiltonian invariance (conditional), additivity with
    constants, vanishing (conditional), and the triangle inequality on
    declared-commuting pairs."""
    functions = {f["name"]: _parse_value(f["zeta"]) for f in _objects(family, "functions")}
    relations, params = _relations(
        family, {"lipschitz": "dist", "scale": "factor", "shift": "alpha"}
    )
    tol = _tolerance([*functions.values(), *params])
    axioms = {
        "lipschitz": _axiom("lipschitz"),
        "semi-homogeneity": _axiom("semi-homogeneity"),
        "monotonicity": _axiom("monotonicity"),
        "normalization": _axiom("normalization"),
        "partial-additivity": _axiom("partial-additivity", conditional=True),
        "hamiltonian-invariance": _axiom("hamiltonian-invariance", conditional=True),
        "additivity-with-constants": _axiom("additivity-with-constants"),
        "vanishing": _axiom("vanishing", conditional=True),
        "triangle": _axiom("triangle"),
    }

    def zeta(name: str) -> Value:
        if name not in functions:
            raise ValueError(f"relation references unknown function {name!r}")
        return functions[name]

    for rel in relations:
        kind = rel.get("type")
        if kind == "lipschitz":
            zf, zg, dist = zeta(rel["f"]), zeta(rel["g"]), _parse_value(rel["dist"])
            ok = _at_most(abs(zf - zg), dist, tol)
            _record(
                axioms["lipschitz"],
                ok,
                f"|zeta({rel['f']}) - zeta({rel['g']})| > {_value_str(dist)}",
            )
        elif kind == "scale":
            factor = _parse_value(rel["factor"])
            if factor < 0:
                raise ValueError("semi-homogeneity factors must be >= 0")
            zf, zg = zeta(rel["f"]), zeta(rel["g"])
            ok = _is_close(zg, factor * zf, tol)
            _record(
                axioms["semi-homogeneity"],
                ok,
                f"zeta({rel['g']}) != {_value_str(factor)} * zeta({rel['f']})",
            )
        elif kind == "le":
            zf, zg = zeta(rel["f"]), zeta(rel["g"])
            ok = _at_most(zf, zg, tol)
            _record(
                axioms["monotonicity"],
                ok,
                f"{rel['f']} <= {rel['g']} declared but zeta({rel['f']}) > zeta({rel['g']})",
            )
        elif kind == "normalized":
            zf = zeta(rel["f"])
            ok = _is_close(zf, Fraction(1), tol)
            _record(axioms["normalization"], ok, f"zeta({rel['f']}) != 1")
        elif kind == "shift":
            alpha = _parse_value(rel["alpha"])
            zf, zg = zeta(rel["f"]), zeta(rel["g"])
            ok = _is_close(zg, zf + alpha, tol)
            _record(
                axioms["additivity-with-constants"],
                ok,
                f"zeta({rel['g']}) != zeta({rel['f']}) + {_value_str(alpha)}",
            )
        elif kind == "triangle":
            zf, zg, zh = zeta(rel["f"]), zeta(rel["g"]), zeta(rel["sum"])
            ok = _at_most(zf + zg, zh, tol)
            _record(
                axioms["triangle"],
                ok,
                f"zeta({rel['sum']}) < zeta({rel['f']}) + zeta({rel['g']}) on a commuting pair",
            )
        elif kind == "partial_additivity":
            zf, zh = zeta(rel["f"]), zeta(rel["sum"])
            ok = _is_close(zh, zf, tol)
            _record(
                axioms["partial-additivity"],
                ok,
                f"zeta({rel['sum']}) != zeta({rel['f']}) with displaceable {rel['g']}",
            )
        elif kind == "invariance":
            zf, zg = zeta(rel["f"]), zeta(rel["g"])
            ok = _is_close(zf, zg, tol)
            _record(
                axioms["hamiltonian-invariance"],
                ok,
                f"zeta({rel['f']}) != zeta({rel['g']}) on a declared pullback pair",
            )
        elif kind == "vanishing":
            zf = zeta(rel["f"])
            ok = _is_close(zf, Fraction(0), tol)
            _record(
                axioms["vanishing"],
                ok,
                f"zeta({rel['f']}) != 0 with declared displaceable support",
            )
        else:
            raise ValueError(f"unknown relation type {kind!r}")

    report = list(axioms.values())
    return {
        "kind": "partial-quasistate-check",
        "tolerance": tol,
        "axioms": report,
        "all_pass": all(a["status"] != "fail" for a in report),
    }


def check_prequasimorphism(family: dict) -> dict:
    """Check declared relations of a group-element family against the
    pre-quasimorphism axioms.  Hofer-Lipschitz bounds and Calabi values are
    user-declared data; with no such declarations those axioms are reported
    as not-checked."""
    elements = {e["name"]: _parse_value(e["mu"]) for e in _objects(family, "elements")}
    relations, params = _relations(
        family, {"quasi_additivity": "bound", "lipschitz": "bound", "calabi": "value"}
    )
    tol = _tolerance([*elements.values(), *params])
    axioms = {
        "hofer-lipschitz": _axiom("hofer-lipschitz", conditional=True),
        "semi-homogeneity": _axiom("semi-homogeneity"),
        "quasi-additivity": _axiom("quasi-additivity"),
        "hamiltonian-invariance": _axiom("hamiltonian-invariance"),
        "calabi": _axiom("calabi", conditional=True),
    }

    def mu(name: str) -> Value:
        if name not in elements:
            raise ValueError(f"relation references unknown element {name!r}")
        return elements[name]

    for rel in relations:
        kind = rel.get("type")
        if kind == "power":
            n = rel["n"]
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValueError("power relations need integer n >= 1")
            mf, mg = mu(rel["f"]), mu(rel["g"])
            ok = _is_close(mg, n * mf, tol)
            _record(
                axioms["semi-homogeneity"],
                ok,
                f"mu({rel['g']}) != {n} * mu({rel['f']})",
            )
        elif kind == "quasi_additivity":
            mf, mg, mh = mu(rel["f"]), mu(rel["g"]), mu(rel["product"])
            bound = _parse_value(rel["bound"])
            ok = _at_most(abs(mh - mf - mg), bound, tol)
            _record(
                axioms["quasi-additivity"],
                ok,
                f"|mu({rel['product']}) - mu({rel['f']}) - mu({rel['g']})| > {_value_str(bound)}",
            )
        elif kind == "conjugation":
            mf, mg = mu(rel["f"]), mu(rel["g"])
            ok = _is_close(mf, mg, tol)
            _record(
                axioms["hamiltonian-invariance"],
                ok,
                f"mu({rel['f']}) != mu({rel['g']}) on a conjugate pair",
            )
        elif kind == "lipschitz":
            mf, mg = mu(rel["f"]), mu(rel["g"])
            bound = _parse_value(rel["bound"])
            ok = _at_most(abs(mf - mg), bound, tol)
            _record(
                axioms["hofer-lipschitz"],
                ok,
                f"|mu({rel['f']}) - mu({rel['g']})| > declared Hofer bound",
            )
        elif kind == "calabi":
            mf = mu(rel["f"])
            ok = _is_close(mf, _parse_value(rel["value"]), tol)
            _record(
                axioms["calabi"],
                ok,
                f"mu({rel['f']}) != declared Calabi value",
            )
        else:
            raise ValueError(f"unknown relation type {kind!r}")

    report = list(axioms.values())
    return {
        "kind": "prequasimorphism-check",
        "tolerance": tol,
        "axioms": report,
        "all_pass": all(a["status"] != "fail" for a in report),
    }


# ---------------------------------------------------------------------------
# Heaviness


@dataclass
class HeavinessReport:
    subset: str
    checked: List[str]
    violations: List[dict]

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
        all_heavy = all(f.get("heavy", False) for f in factors)
        inference = {
            "theorem": "product-heaviness",
            "subsets": [f.get("subset", "?") for f in factors],
            "product_heavy": all_heavy,
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
