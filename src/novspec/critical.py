"""Critical branes of a toric potential: leading roots, Hensel lifting,
heaviness certificates, and fiber scans.

The pipeline at a fixed interior fiber is:

1. ``critical_points_leading`` solves the leading-stratum system: for each
   torus coordinate j, keep only the facets whose weight attains the
   componentwise maximum and solve sum_{i in I_j} v_ij x^{v_i} = 0 in units
   (coordinate tori), via an exact polynomial system with a saturation
   variable excluding coordinate hyperplanes.  A component whose stratum is
   a single facet has a dominating monomial and admits no unit zero: the
   fiber carries no critical brane and the report says which facet blocks it.
2. ``lift_critical`` refines a leading root to a brane x with gradient zero
   to a requested q-order, by a multiplicative Newton iteration
   x <- x*(1+Delta) over truncated Novikov scalars.  Exact coefficient modes
   stay exact; if the leading root solves the full gradient on the nose the
   residual is exactly zero and no iteration happens.
3. ``certify_heavy`` packages the lifted branes of a fiber into a
   certificate whose claim is re-checkable from the serialized form alone:
   the gradient of the re-parsed potential at the re-parsed branes vanishes
   to the stated order.  Finding no branes is reported as a diagnosis, never
   as a proof of non-heaviness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .fields import (
    NEG_INF,
    CoefficientField,
    GaussianRational,
    floor_str,
    fraction_str,
    parse_floor,
    parse_fraction,
)
from .novikov import NovikovScalar
from .polytope import MomentPolytope, point_str, parse_fiber, polytope_validate
from .potential import ComponentStratum, PotentialFunction, brane_from_constants, potential

SNAP_TOL = 1e-9
NEWTON_CAP = 60

THEOREM_TAG = "critical-fiber-heaviness"

# Exact values a floating root may be snapped to, with the coefficient used
# in each exact mode (None = not representable there).
_SNAP_TABLE = [
    (complex(1, 0), Fraction(1), GaussianRational(1, 0)),
    (complex(-1, 0), Fraction(-1), GaussianRational(-1, 0)),
    (complex(0, 1), None, GaussianRational(0, 1)),
    (complex(0, -1), None, GaussianRational(0, -1)),
]


@dataclass(frozen=True)
class LeadingRoot:
    values: Tuple[complex, ...]
    exact_rational: Optional[Tuple[Fraction, ...]]
    exact_gaussian: Optional[Tuple[GaussianRational, ...]]

    def constants_for(self, field: CoefficientField):
        if field.mode == "rational":
            if self.exact_rational is None:
                raise ValueError(
                    f"leading root {self.values} is not rational; "
                    "use gaussian or complex mode"
                )
            return self.exact_rational
        if field.mode == "gaussian":
            if self.exact_gaussian is None:
                raise ValueError(
                    f"leading root {self.values} is not Gaussian-rational; "
                    "use complex mode"
                )
            return self.exact_gaussian
        return self.values

    def to_json(self) -> dict:
        return {
            "values": [[z.real, z.imag] for z in self.values],
            "exact": self.exact_rational is not None or self.exact_gaussian is not None,
        }


@dataclass
class LeadingReport:
    strata: List[ComponentStratum]
    roots: List[LeadingRoot]
    diagnosis: Optional[dict] = None

    @property
    def found(self) -> bool:
        return bool(self.roots)

    def to_json(self) -> dict:
        return {
            "strata": [s.to_json() for s in self.strata],
            "roots": [r.to_json() for r in self.roots],
            "diagnosis": self.diagnosis,
        }


def _snap_root(values: Sequence[complex]) -> LeadingRoot:
    rationals: List[Optional[Fraction]] = []
    gaussians: List[Optional[GaussianRational]] = []
    for z in values:
        hit_r, hit_g = None, None
        for target, frac, gauss in _SNAP_TABLE:
            if abs(z - target) < SNAP_TOL:
                hit_r, hit_g = frac, gauss
                break
        rationals.append(hit_r)
        gaussians.append(hit_g)
    return LeadingRoot(
        values=tuple(values),
        exact_rational=tuple(rationals) if all(r is not None for r in rationals) else None,
        exact_gaussian=tuple(gaussians) if all(g is not None for g in gaussians) else None,
    )


def critical_points_leading(w: PotentialFunction) -> LeadingReport:
    """Solve the per-component leading-stratum system of the potential.

    Roots are numeric complex vectors, deduplicated and sorted by
    (real, imaginary) parts componentwise; roots within 1e-9 of the unit
    points +-1, +-i are additionally recorded exactly.
    """
    strata = w.leading_strata()
    for s in strata:
        dom = s.dominating
        if dom is not None:
            return LeadingReport(
                strata=strata,
                roots=[],
                diagnosis={
                    "reason": "dominating-facet",
                    "component": s.component,
                    "facet": dom,
                    "weight": fraction_str(s.weight),
                    "note": (
                        f"facet {dom} alone attains the leading weight "
                        f"{s.weight} in coordinate {s.component}; its monomial "
                        "has no unit zero, so no critical brane exists here"
                    ),
                },
            )

    import sympy

    n = w.dim
    gens = list(sympy.symbols(f"x1:{n + 1}")) if n else []
    sat = sympy.Symbol("t_sat")
    terms_by_facet = {t.facet: t for t in w.terms}
    polys = []
    for s in strata:
        stratum_terms = [terms_by_facet[i] for i in s.facets]
        shift = [max(0, -min(t.exponent[k] for t in stratum_terms)) for k in range(n)]
        expr = sympy.Integer(0)
        for t in stratum_terms:
            mono = sympy.Integer(t.exponent[s.component])
            for k in range(n):
                mono *= gens[k] ** (t.exponent[k] + shift[k])
            expr += mono
        polys.append(sympy.expand(expr))
    product_all = sympy.Integer(1)
    for g in gens:
        product_all *= g
    polys.append(sat * product_all - 1)

    try:
        solutions = sympy.solve_poly_system(polys, *gens, sat)
    except (NotImplementedError, sympy.PolynomialError) as exc:
        # positive-dimensional leading variety (the per-component strata can
        # collapse onto a shared binomial, e.g. after a shear): this method
        # cannot isolate branes, which is a diagnosis, not a proof of absence
        return LeadingReport(
            strata=strata,
            roots=[],
            diagnosis={
                "reason": "leading-system-not-finite",
                "note": (
                    "the leading-stratum system does not cut out finitely many "
                    f"points ({exc}); critical branes, if any, sit on a "
                    "positive-dimensional leading variety this solver cannot lift"
                ),
            },
        )
    if solutions is None:
        return LeadingReport(
            strata=strata,
            roots=[],
            diagnosis={
                "reason": "leading-system-unsolved",
                "note": "the polynomial solver returned no solution set",
            },
        )

    seen = {}
    for sol in solutions:
        vals = tuple(complex(sympy.N(expr, 20)) for expr in sol[:n])
        key = tuple((round(z.real, 9), round(z.imag, 9)) for z in vals)
        if key not in seen:
            seen[key] = vals
    ordered = [seen[k] for k in sorted(seen.keys())]
    roots = [_snap_root(vals) for vals in ordered]
    if not roots:
        return LeadingReport(
            strata=strata,
            roots=[],
            diagnosis={
                "reason": "no-unit-solutions",
                "note": "the leading-stratum system has no solutions with all coordinates nonzero",
            },
        )
    return LeadingReport(strata=strata, roots=roots)


# ---------------------------------------------------------------------------
# Lifting


def _complex_leading_jacobian(w: PotentialFunction, strata, values: Sequence[complex]):
    terms_by_facet = {t.facet: t for t in w.terms}
    n = w.dim
    mat = [[complex(0) for _ in range(n)] for _ in range(n)]
    for s in strata:
        for i in s.facets:
            t = terms_by_facet[i]
            mono = complex(1)
            for k in range(n):
                mono *= values[k] ** t.exponent[k]
            for k in range(n):
                if t.exponent[k]:
                    mat[s.component][k] += t.exponent[s.component] * t.exponent[k] * mono
    return mat


def _complex_det(mat) -> complex:
    n = len(mat)
    m = [row[:] for row in mat]
    det = complex(1)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) == 0:
            return complex(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def _anchor(s: NovikovScalar, floor) -> NovikovScalar:
    # Deliberate floor assertion; callers use it only where Newton
    # contraction guarantees the deeper coefficients are final.
    return NovikovScalar(s.field, s.terms, floor)


def _solve_linear(
    mat: List[List[NovikovScalar]], rhs: List[NovikovScalar]
) -> List[NovikovScalar]:
    """Gaussian elimination over truncated scalars; raises on singular pivots."""
    n = len(rhs)
    m = [row[:] for row in mat]
    b = list(rhs)
    where = list(range(n))
    for col in range(n):
        best, best_key = None, None
        for r in range(col, n):
            s = m[r][col]
            if s.is_zero():
                continue
            key = (s.valuation(), s.field.magnitude(s.leading_coefficient()))
            if best is None or key > best_key:
                best, best_key = r, key
        if best is None:
            raise ValueError("degenerate linear system: singular Jacobian in the lift")
        m[col], m[best] = m[best], m[col]
        b[col], b[best] = b[best], b[col]
        inv = m[col][col].invert(m[col][col].floor if m[col][col].floor != NEG_INF else None)
        m[col] = [inv * s for s in m[col]]
        b[col] = inv * b[col]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                factor = m[r][col]
                m[r] = [a - factor * c for a, c in zip(m[r], m[col])]
                b[r] = b[r] - factor * b[col]
    out = [None] * n
    for col in range(n):
        out[col] = b[col]
    return out


@dataclass
class BraneCertificate:
    x: List[NovikovScalar]
    order: object  # Fraction or NEG_INF
    residual_valuation: object  # Fraction-like or NEG_INF
    leading_residual: Optional[object]
    residual_norm: float
    central_charge: NovikovScalar
    iterations: int

    def to_json(self) -> dict:
        return {
            "x": [xj.to_json() for xj in self.x],
            "order": floor_str(self.order),
            "residual_valuation": floor_str(self.residual_valuation),
            "leading_residual": None
            if self.leading_residual is None
            else self.x[0].field.coeff_to_json(self.leading_residual),
            "residual_norm": self.residual_norm,
            "central_charge": self.central_charge.to_json(),
            "iterations": self.iterations,
        }


def _residual_norm(grad: Sequence[NovikovScalar]) -> float:
    total = 0.0
    for y in grad:
        for _, c in y.terms:
            total += y.field.magnitude(c)
    return total


def lift_critical(
    w: PotentialFunction,
    root,
    order,
    field: CoefficientField,
) -> BraneCertificate:
    """Refine a leading root to a brane with gradient zero to the given order.

    ``root`` is a LeadingRoot or a plain sequence of coefficient constants.
    The returned brane coordinates are unit scalars; in exact modes with a
    root that kills the gradient identically, the residual is exactly zero
    (valuation -inf) and the brane is exact with no truncation floor.
    """
    order = parse_floor(order)
    if order == NEG_INF or order >= 0:
        raise ValueError("order must be a negative rational (a q-exponent cutoff)")
    if isinstance(root, LeadingRoot):
        constants = root.constants_for(field)
        numeric = root.values
    else:
        constants = list(root)
        numeric = tuple(field.as_complex(field.coerce(c)) for c in constants)

    strata = w.leading_strata()

    # Reject degenerate leading roots up front: the leading Jacobian must be
    # invertible for Newton contraction.
    jac = _complex_leading_jacobian(w, strata, numeric)
    scale = 1.0
    for row in jac:
        scale *= max(max(abs(z) for z in row), 1e-30)
    if abs(_complex_det(jac)) <= 1e-9 * max(scale, 1e-30):
        raise ValueError(
            "degenerate leading root: the leading-stratum Jacobian is singular"
        )

    x = brane_from_constants(field, constants)

    # Exact short-circuit: a root that solves the full gradient identically.
    if field.exact:
        grad = w.gradient(x, NEG_INF)
        if all(y.is_exact_zero() for y in grad):
            charge = w.evaluate(x, NEG_INF)
            return BraneCertificate(
                x=x,
                order=order,
                residual_valuation=NEG_INF,
                leading_residual=None,
                residual_norm=0.0,
                central_charge=charge,
                iterations=0,
            )

    w_lead = min(s.weight for s in strata)
    # Work strictly below the target: corrections of size below order + w_lead
    # cannot change coefficients above order, and one more w_lead of margin
    # absorbs the row normalization in the linear solves.
    floor_work = order + 3 * w_lead
    strict = order + w_lead
    x = [_anchor(xj.truncate(floor_work), floor_work) for xj in x]

    grad = w.gradient(x, floor_work)
    for s in strata:
        yj = grad[s.component]
        if not yj.is_zero() and yj.valuation() >= s.weight:
            raise ValueError(
                f"initial point does not solve the leading system in component "
                f"{s.component}: residual valuation {yj.valuation()} is not "
                f"below the stratum weight {s.weight}"
            )

    iterations = 0
    last_res = None
    while True:
        res_val = max((y.valuation() for y in grad))
        if all(y.truncate(strict).is_zero() for y in grad):
            break
        if last_res is not None and res_val >= last_res:
            raise ValueError(
                f"lift failed to contract: residual valuation stalled at {res_val}"
            )
        last_res = res_val
        if iterations >= NEWTON_CAP:
            raise ValueError("lift exceeded the iteration cap without converging")
        hess = w.hessian(x, floor_work)
        # Row-normalize by the stratum weights so pivots are unit-valuation.
        rows = []
        rhs = []
        for s in strata:
            rows.append([m.shift(-s.weight) for m in hess[s.component]])
            rhs.append(-grad[s.component].shift(-s.weight))
        delta = _solve_linear(rows, rhs)
        one = NovikovScalar.one(field)
        x = [
            _anchor((xj * (one + dj)).truncate(floor_work), floor_work)
            for xj, dj in zip(x, delta)
        ]
        grad = w.gradient(x, floor_work)
        iterations += 1

    # Re-anchor at the certified order and verify the claim independently of
    # the iteration bookkeeping.
    x_final = [_anchor(xj.truncate(order), order) for xj in x]
    for xj in x_final:
        if xj.valuation() != 0:
            raise ValueError("lifted brane coordinate lost unit valuation")
    grad_final = w.gradient(x_final, order)
    bad = [j for j, y in enumerate(grad_final) if not y.is_zero()]
    if bad:
        raise ValueError(
            f"lift verification failed: residual above order {order} in components {bad}"
        )
    charge = w.evaluate(x_final, order)
    return BraneCertificate(
        x=x_final,
        order=order,
        residual_valuation=order,
        leading_residual=None,
        residual_norm=_residual_norm(grad_final),
        central_charge=charge,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Certificates


@dataclass
class HeavinessCertificate:
    polytope: MomentPolytope
    fiber: Tuple[Fraction, ...]
    order: object
    field: CoefficientField
    branes: List[BraneCertificate]
    leading_weights: List[Fraction]

    kind = "heaviness-certificate"
    theorem = THEOREM_TAG

    @property
    def found(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {
            "schema_version": "1",
            "kind": self.kind,
            "theorem": self.theorem,
            "field": self.field.to_json(),
            "polytope": self.polytope.to_json(),
            "fiber": point_str(self.fiber),
            "order": floor_str(self.order),
            "leading_weights": [fraction_str(w) for w in self.leading_weights],
            "branes": [b.to_json() for b in self.branes],
        }


@dataclass
class NoneFoundReport:
    polytope: MomentPolytope
    fiber: Tuple[Fraction, ...]
    order: object
    field: CoefficientField
    diagnosis: Optional[dict]
    strata: List[ComponentStratum]

    kind = "no-critical-branes"

    @property
    def found(self) -> bool:
        return False

    def to_json(self) -> dict:
        return {
            "schema_version": "1",
            "kind": self.kind,
            "field": self.field.to_json(),
            "polytope": self.polytope.to_json(),
            "fiber": point_str(self.fiber),
            "order": floor_str(self.order),
            "diagnosis": self.diagnosis,
            "strata": [s.to_json() for s in self.strata],
            "note": (
                "no critical branes found at this fiber; this is a diagnosis, "
                "not a proof of non-heaviness"
            ),
        }


def certify_heavy(
    p: MomentPolytope,
    fiber,
    order,
    field: CoefficientField,
    check_polytope: bool = True,
):
    """Certify the toric fiber by exhibiting lifted critical branes.

    Returns a HeavinessCertificate when the leading system has unit roots
    (every root is lifted), otherwise a NoneFoundReport with the blocking
    diagnosis.  The polytope must validate and the fiber must be interior.
    """
    if check_polytope:
        rep = polytope_validate(p)
        if not rep.ok:
            raise ValueError(f"polytope failed validation: {'; '.join(rep.violations)}")
    fiber_pt = parse_fiber(fiber)
    w = potential(p, fiber_pt)
    leading = critical_points_leading(w)
    order = parse_floor(order)
    if not leading.found:
        return NoneFoundReport(
            polytope=p,
            fiber=fiber_pt,
            order=order,
            field=field,
            diagnosis=leading.diagnosis,
            strata=leading.strata,
        )
    branes = [lift_critical(w, root, order, field) for root in leading.roots]
    return HeavinessCertificate(
        polytope=p,
        fiber=fiber_pt,
        order=order,
        field=field,
        branes=branes,
        leading_weights=[s.weight for s in leading.strata],
    )


def revalidate_certificate(doc: dict) -> dict:
    """Re-check a serialized heaviness certificate from its JSON alone.

    Re-parses the polytope, fiber and branes, revalidates the polytope,
    and re-evaluates the potential gradient at every brane at the stated
    order.  Returns {"ok": bool, "checks": [...], "failures": [...]}.
    """
    checks: List[str] = []
    failures: List[str] = []

    def fail(msg: str) -> None:
        failures.append(msg)

    if doc.get("kind") != "heaviness-certificate":
        fail(f"not a heaviness certificate: kind={doc.get('kind')!r}")
        return {"ok": False, "checks": checks, "failures": failures}
    if doc.get("theorem") != THEOREM_TAG:
        fail(f"unexpected theorem tag {doc.get('theorem')!r}")
    field = CoefficientField.from_json(doc["field"])
    p = MomentPolytope.from_json(doc["polytope"])
    rep = polytope_validate(p)
    if rep.ok:
        checks.append("polytope validates")
    else:
        fail("polytope fails validation: " + "; ".join(rep.violations))
    fiber = parse_fiber(doc["fiber"])
    order = parse_floor(doc["order"])
    try:
        w = potential(p, fiber)
        checks.append("fiber is interior")
    except ValueError as exc:
        fail(str(exc))
        return {"ok": False, "checks": checks, "failures": failures}

    branes = doc.get("branes", [])
    if not branes:
        fail("certificate carries no branes")
    for idx, brane in enumerate(branes):
        x = [NovikovScalar.from_json(field, xj) for xj in brane["x"]]
        if any(xj.valuation() != 0 for xj in x):
            fail(f"brane {idx}: coordinates are not units")
            continue
        claimed = parse_floor(brane["residual_valuation"])
        if claimed == NEG_INF:
            grad = w.gradient(x, NEG_INF)
            if all(y.is_exact_zero() for y in grad):
                checks.append(f"brane {idx}: gradient vanishes exactly")
            else:
                fail(f"brane {idx}: claimed exact zero residual but gradient is nonzero")
                continue
        else:
            grad = w.gradient(x, claimed)
            if all(y.is_zero() for y in grad):
                checks.append(
                    f"brane {idx}: gradient vanishes above order {floor_str(claimed)}"
                )
            else:
                fail(f"brane {idx}: gradient has residual above {floor_str(claimed)}")
                continue
        stated_charge = NovikovScalar.from_json(field, brane["central_charge"])
        fresh = w.evaluate(x, claimed)
        same = fresh == stated_charge if field.exact else fresh.isclose(stated_charge)
        if same:
            checks.append(f"brane {idx}: central charge matches")
        else:
            fail(f"brane {idx}: stated central charge does not match re-evaluation")
    return {"ok": not failures, "checks": checks, "failures": failures}


# ---------------------------------------------------------------------------
# Scanning


@dataclass
class ScanRow:
    fiber: Tuple[Fraction, ...]
    status: str  # "certified" | "none-found"
    branes: int
    leading_weights: List[Fraction]
    diagnosis: Optional[dict]
    certificate: Optional[HeavinessCertificate]

    def to_json(self) -> dict:
        return {
            "fiber": point_str(self.fiber),
            "status": self.status,
            "branes": self.branes,
            "leading_weights": [fraction_str(w) for w in self.leading_weights],
            "diagnosis": self.diagnosis,
            "certificate": self.certificate.to_json() if self.certificate else None,
        }


@dataclass
class ScanReport:
    resolution: Fraction
    order: object
    rows: List[ScanRow]

    def to_json(self) -> dict:
        return {
            "schema_version": "1",
            "kind": "fiber-scan",
            "resolution": fraction_str(self.resolution),
            "order": floor_str(self.order),
            "rows": [r.to_json() for r in self.rows],
        }

    def to_csv_rows(self) -> List[List[str]]:
        header = ["fiber", "status", "branes", "leading_weights", "diagnosis"]
        out = [header]
        for r in self.rows:
            diag = "" if not r.diagnosis else r.diagnosis.get("reason", "")
            out.append(
                [
                    point_str(r.fiber),
                    r.status,
                    str(r.branes),
                    ";".join(fraction_str(w) for w in r.leading_weights),
                    diag,
                ]
            )
        return out


def grid_fibers(
    p: MomentPolytope, resolution, vertices: Sequence[Tuple[Fraction, ...]]
) -> List[Tuple[Fraction, ...]]:
    """Interior points with all coordinates multiples of the resolution,
    in deterministic lexicographic order.  ``vertices`` are the polytope's
    vertices, as its validation report lists them."""
    res = parse_fraction(resolution)
    if res <= 0:
        raise ValueError("grid resolution must be positive")
    if not vertices:
        raise ValueError("polytope has no vertices; validate it first")
    axes = []
    for j in range(p.dim):
        lo = min(v[j] for v in vertices)
        hi = max(v[j] for v in vertices)
        start = (lo / res).__ceil__()
        stop = (hi / res).__floor__()
        axes.append([k * res for k in range(start, stop + 1)])
    out = []
    for combo in itertools.product(*axes):
        if p.is_interior(combo):
            out.append(tuple(combo))
    return out


def scan_fibers(
    p: MomentPolytope,
    resolution,
    order,
    field: CoefficientField,
) -> ScanReport:
    """Certify every interior grid fiber; deterministic row order."""
    rep = polytope_validate(p)
    if not rep.ok:
        raise ValueError(f"polytope failed validation: {'; '.join(rep.violations)}")
    order = parse_floor(order)
    rows = []
    for fiber in grid_fibers(p, resolution, rep.vertices):
        result = certify_heavy(p, fiber, order, field, check_polytope=False)
        w = potential(p, fiber)
        weights = [s.weight for s in w.leading_strata()]
        if result.found:
            rows.append(
                ScanRow(
                    fiber=fiber,
                    status="certified",
                    branes=len(result.branes),
                    leading_weights=weights,
                    diagnosis=None,
                    certificate=result,
                )
            )
        else:
            rows.append(
                ScanRow(
                    fiber=fiber,
                    status="none-found",
                    branes=0,
                    leading_weights=weights,
                    diagnosis=result.diagnosis,
                    certificate=None,
                )
            )
    return ScanReport(resolution=parse_fraction(resolution), order=order, rows=rows)
