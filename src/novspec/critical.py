"""Critical branes of a toric potential: leading roots, Hensel lifting,
heaviness certificates, and fiber scans.

The pipeline at a fixed interior fiber is:

1. ``critical_points_leading`` solves the leading-stratum system: for each
   torus coordinate j, keep only the facets whose weight attains the
   componentwise maximum and solve sum_{i in I_j} v_ij x^{v_i} = 0 in units
   (coordinate tori).  When every stratum has two facets the system is
   binomial, x^{d_j} = c_j; if the exponent matrix D is nonsingular its
   |det D| roots come in closed form from the cosets of Z^n / D Z^n and
   exact angles and radii.  Only a non-binomial or singular system goes to
   sympy, as an exact polynomial system with a saturation variable excluding
   coordinate hyperplanes.  A component whose stratum is a single facet has
   a dominating monomial and admits no unit zero: the fiber carries no
   critical brane and the report says which facet blocks it.
2. ``lift_critical`` refines a leading root to a brane x with gradient zero
   to a requested q-order, by a multiplicative Newton iteration
   x <- x*(1+Delta) over truncated Novikov scalars.  Exact coefficient modes
   stay exact; if the leading root solves the full gradient on the nose the
   residual is exactly zero and no iteration happens.
3. ``certify_heavy`` packages the lifted branes of a fiber into a
   ``FiberReport``, serialized as a certificate whose claim is re-checkable
   from that form alone: each re-parsed brane passes the check the lift
   made, which proves a critical point of the re-parsed potential.  Finding
   no branes is reported as a diagnosis, never as a proof of
   non-heaviness.  A fiber scan is one report per grid fiber.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .fields import CoefficientField, GaussianRational
from .novikov import NovikovScalar
from .polytope import (
    MomentPolytope,
    coset_representatives,
    parse_fiber,
    point_str,
    polytope_validate,
    rational_inverse,
    validated,
)
from .potential import PotentialFunction, brane_from_constants
from .records import (NEG_INF, SCHEMA_VERSION, Frozen, Record, SchemaError, floor_str,
                      fraction_str, parse_floor, parse_fraction)
from .records import parse_or_schema_error as _parse

SNAP_TOL = 1e-9
NEWTON_CAP = 60

THEOREM_TAG = "critical-fiber-heaviness"

# Exact values a floating root may be snapped to.
_SNAP_TABLE = [
    (complex(1, 0), GaussianRational(1, 0)),
    (complex(-1, 0), GaussianRational(-1, 0)),
    (complex(0, 1), GaussianRational(0, 1)),
    (complex(0, -1), GaussianRational(0, -1)),
]


class LeadingRoot(Frozen):
    # values: complex; exact: GaussianRationals, None unless every value snaps
    __slots__ = ("values", "exact")

    def constants_for(self, field: CoefficientField):
        if field.mode == "rational":
            if self.exact is None or any(g.im for g in self.exact):
                raise ValueError(
                    f"leading root {self.values} is not rational; "
                    "use gaussian or complex mode"
                )
            return tuple(g.re for g in self.exact)
        if field.mode == "gaussian":
            if self.exact is None:
                raise ValueError(
                    f"leading root {self.values} is not Gaussian-rational; "
                    "use complex mode"
                )
            return self.exact
        return self.values

    def to_json(self) -> dict:
        return {
            "values": [[z.real, z.imag] for z in self.values],
            "exact": self.exact is not None,
        }


class LeadingReport(Record):
    __slots__ = ("strata", "roots", "diagnosis")  # diagnosis is None when roots were found

    def to_json(self) -> dict:
        return {
            "strata": [s.to_json() for s in self.strata],
            "roots": [r.to_json() for r in self.roots],
            "diagnosis": self.diagnosis,
        }


def _snap_root(values: Sequence[complex]) -> LeadingRoot:
    hits = [next((g for t, g in _SNAP_TABLE if abs(z - t) < SNAP_TOL), None) for z in values]
    return LeadingRoot(values=tuple(values), exact=None if None in hits else tuple(hits))


def critical_points_leading(w: PotentialFunction) -> LeadingReport:
    """Solve the per-component leading-stratum system of the potential.

    Roots are numeric complex vectors, deduplicated and sorted by
    (real, imaginary) parts componentwise; roots within 1e-9 of the unit
    points +-1, +-i are additionally recorded exactly.  A binomial system
    with a nonsingular exponent matrix is solved in closed form; any other
    goes to sympy.
    """
    strata = w.strata
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
                        f"{fraction_str(s.weight)} in coordinate {s.component}; its monomial "
                        "has no unit zero, so no critical brane exists here"
                    ),
                },
            )

    values = _binomial_values(w.leading_system)
    if values is None:
        values, diagnosis = _sympy_values(w.leading_system, w.dim)
        if diagnosis is not None:
            return LeadingReport(strata=strata, roots=[], diagnosis=diagnosis)
    roots = _leading_roots(values)
    if not roots:
        return LeadingReport(
            strata=strata,
            roots=[],
            diagnosis={
                "reason": "no-unit-solutions",
                "note": "the leading-stratum system has no solutions with all coordinates nonzero",
            },
        )
    return LeadingReport(strata=strata, roots=roots, diagnosis=None)


def _leading_roots(values: Sequence[Tuple[complex, ...]]) -> List[LeadingRoot]:
    """Deduplicate numeric roots, sort them and snap them to unit points."""
    seen = {}
    for vals in values:
        seen.setdefault(tuple((round(z.real, 9), round(z.imag, 9)) for z in vals), vals)
    return [_snap_root(seen[k]) for k in sorted(seen)]


# A polynomial system in (C^*)^n: one list of (coefficient, exponent) pairs
# per equation sum_i a_i x^{u_i} = 0.
System = Sequence[Sequence[Tuple[int, Sequence[int]]]]

# Working precision of the closed-form roots: 80 significant digits, past the
# 61 of the 200-bit mpmath reference in the tests.  Each part is rounded to
# the nearest float once, at the end, so two evaluations within 1e-60 of the
# exact value give the same float unless it lies that close to a rounding
# boundary.  A part on an axis (4 theta an integer) is exact: one of cos and
# sin is the integer 0, so that zero is +0.0, and the other is +-1.
_ROOT_DIGITS = 80
# pi to 102 significant digits
_PI = Decimal(
    "3.14159265358979323846264338327950288419716939937510"
    "582097494459230781640628620899862803482534211706798"
)


def _binomial_values(system: System) -> Optional[List[Tuple[complex, ...]]]:
    """All unit roots of a binomial system, or None if it is not one.

    Equation j, a_j x^{u_j} + b_j x^{w_j} = 0, is x^{d_j} = c_j with
    d_j = u_j - w_j and c_j = -b_j / a_j.  When the matrix D with rows d_j
    is nonsingular, x_k = exp(z_k) solves it iff D z = log c + 2 pi i m for
    some integer vector m, and m gives the same root as m' iff m - m' lies
    in D Z^n.  So the |det D| roots are x_k = rho_k e^{2 pi i theta_k} with
    rho_k = prod_j |c_j|^{(D^-1)_kj} and theta = D^-1 (m + [c < 0] / 2)
    mod 1, one per coset m of Z^n / D Z^n.  Returns None for an equation
    without exactly two terms or a singular D.

    Radii and angles are evaluated in ``decimal`` at ``_ROOT_DIGITS``
    significant digits: rho_k by the correctly rounded ``ln`` and ``exp``,
    with ln|c_j| = ln|p| - ln q for c_j = p / q.  A root part on an axis
    (4 theta_k an integer) is exactly (+-rho_k, +0.0) or (+0.0, +-rho_k).
    """
    if any(len(eq) != 2 for eq in system):
        return None
    d = [[p - q for p, q in zip(u, v)] for (_, u), (_, v) in system]
    det, inv = rational_inverse(d)
    if not det:
        return None
    c = [Fraction(-b, a) for (a, _), (b, _) in system]
    # with the integer matrix adj = |det| D^-1, rho_k = exp(sum_j adj_kj ln|c_j| / |det|)
    # and theta_k = t_k / grid for t_k = sum_j adj_kj (2 m_j + [c_j < 0]), grid = 2 |det|
    grid = 2 * abs(det)
    adj = [[int(e * abs(det)) for e in row] for row in inv]
    neg = [int(cj < 0) for cj in c]

    out = []
    with localcontext() as ctx:
        ctx.prec = _ROOT_DIGITS
        logs = [Decimal(abs(cj.numerator)).ln() - Decimal(cj.denominator).ln() for cj in c]
        radii = [
            (sum((a * lj for a, lj in zip(row, logs)), Decimal(0)) / abs(det)).exp() for row in adj
        ]
        memo = {}
        for m in coset_representatives(d):
            twice = [2 * mj + nj for mj, nj in zip(m, neg)]
            root = []
            for r, row in zip(radii, adj):
                cos, sin = _unit_point(sum(a * s for a, s in zip(row, twice)), grid, memo)
                root.append(complex(float(r * cos), float(r * sin)))
            out.append(tuple(root))
    return out


def _unit_point(t: int, grid: int, memo: dict):
    """cos and sin of 2 pi t / grid in the current decimal context.  When
    4 t / grid is an integer they are the exact integers (+-1, 0) or
    (0, +-1), so that a zero part is +0.0; otherwise the angle is folded
    into (0, pi/4] and its sine is summed there once per ``memo``."""
    quarter, rest = divmod(4 * t, grid)
    if not rest:
        cos, sin = 1, 0
    else:
        # the angle past the quarter turn is (pi/2) rest / grid; beyond pi/4
        # it is pi/2 minus (pi/2)(grid - rest) / grid, so cos and sin swap
        folded = min(rest, grid - rest)
        if folded not in memo:
            memo[folded] = _cos_sin(_PI * folded / (2 * grid))
        cos, sin = memo[folded]
        if folded != rest:
            cos, sin = sin, cos
    for _ in range(quarter % 4):
        cos, sin = -sin, cos
    return cos, sin


def _cos_sin(x: Decimal) -> Tuple[Decimal, Decimal]:
    """cos x and sin x for 0 < x <= pi/4, by the Taylor series of the sine
    and cos x = sqrt(1 - sin^2 x) >= sqrt(1/2)."""
    x2 = x * x
    term = total = x
    n = 1
    while True:
        n += 2
        term = -term * x2 / (n * (n - 1))
        nxt = total + term
        if nxt == total:
            return (1 - total * total).sqrt(), total
        total = nxt


def _sympy_values(system: System, n: int):
    """Unit roots of any polynomial system by ``sympy.solve_poly_system``,
    with a saturation variable excluding the coordinate hyperplanes.
    Returns ``(values, None)``, or ``(None, diagnosis)`` when the system is
    not finite or sympy gives up."""
    import sympy

    gens = list(sympy.symbols(f"x1:{n + 1}")) if n else []
    sat = sympy.Symbol("t_sat")
    polys = []
    for eq in system:
        shift = [max(0, -min(u[k] for _, u in eq)) for k in range(n)]
        expr = sympy.Integer(0)
        for a, u in eq:
            mono = sympy.Integer(a)
            for k in range(n):
                mono *= gens[k] ** (u[k] + shift[k])
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
        return None, {
            "reason": "leading-system-not-finite",
            "note": (
                "the leading-stratum system does not cut out finitely many "
                f"points ({exc}); critical branes, if any, sit on a "
                "positive-dimensional leading variety this solver cannot lift"
            ),
        }
    if solutions is None:
        return None, {
            "reason": "leading-system-unsolved",
            "note": "the polynomial solver returned no solution set",
        }
    return [tuple(complex(sympy.N(expr, 20)) for expr in sol[:n]) for sol in solutions], None


# ---------------------------------------------------------------------------
# Lifting


def gauss_jordan(
    rows: Sequence[Sequence[Any]],
    width: int,
    key: Callable[[Any], Optional[Any]],
    invert: Callable[[Any], Any],
) -> Tuple[List[list], List[Tuple[int, Any]], int]:
    """Gauss-Jordan elimination over inexact entries with ``*`` and ``-``:
    Novikov scalars and complex floats.  Exact integer matrices go through
    the fraction-free ``polytope._reduce`` instead.

    Reduces a copy of ``rows`` over their first ``width`` columns; later
    columns (right-hand sides, identity blocks) are carried along.  In each
    column the pivot is the first remaining row whose entry has the largest
    ``key``; ``key`` is None for an entry that counts as zero, and such an
    entry is never eliminated.  Right of the pivot column, the pivot row is
    scaled to ``inv * x`` with ``inv = invert(pivot)``, and every other row
    becomes ``a - f * c``, where ``f`` is its entry in the pivot column and
    ``c`` the scaled pivot row.  A column without a pivot is skipped.
    Each column's update reads only that column and the pivot column, so
    the first ``width`` columns are left unreduced, while the pivots and
    the carried columns come out as a full reduction gives them, to the
    bit.

    Returns ``(rows, pivots, sign)``: the rows, the ``(column, pivot)``
    pairs in order (pivots as found, before scaling), and the sign of the
    row permutation, so a square matrix has determinant ``sign`` times the
    product of the pivots when every column has one, else 0.
    """
    rows = [list(row) for row in rows]
    pivots: List[Tuple[int, Any]] = []
    sign = 1
    top = 0
    for col in range(width):
        if top == len(rows):
            break
        keys = [key(row[col]) for row in rows]
        best = None
        for r in range(top, len(rows)):
            if keys[r] is not None and (best is None or keys[r] > keys[best]):
                best = r
        if best is None:
            continue
        if best != top:
            rows[top], rows[best] = rows[best], rows[top]
            keys[top], keys[best] = keys[best], keys[top]
            sign = -sign
        pivot = rows[top][col]
        inv = invert(pivot)
        tail = rows[top][col + 1:] = [inv * x for x in rows[top][col + 1:]]
        for r, row in enumerate(rows):
            if r != top and keys[r] is not None:
                f = row[col]
                row[col + 1:] = [a - f * c for a, c in zip(row[col + 1:], tail)]
        pivots.append((col, pivot))
        top += 1
    return rows, pivots, sign


def _degeneracy_failure(w: PotentialFunction, values: Sequence[complex]) -> Optional[str]:
    """Why the leading Jacobian at ``values`` is too degenerate for Newton
    to contract, or None: in floats, its determinant must exceed 1e-9 times
    the product of its row maxima."""
    n = w.dim
    jac = [[complex(0) for _ in range(n)] for _ in range(n)]
    for row, equation in zip(jac, w.leading_system):  # one per component, in order
        for vj, v in equation:
            mono = math.prod(z ** e for z, e in zip(values, v))
            for k in range(n):
                if v[k]:
                    row[k] += vj * v[k] * mono
    _, pivots, sign = gauss_jordan(jac, n, lambda z: abs(z) or None, lambda z: 1 / z)
    det = sign * math.prod(p for _, p in pivots) if len(pivots) == n else 0
    scale = math.prod(max(max(abs(z) for z in row), 1e-30) for row in jac)
    if abs(det) <= 1e-9 * max(scale, 1e-30):
        return "degenerate leading root: the leading-stratum Jacobian is singular"
    return None


def _leading_failure(w: PotentialFunction, grad: Sequence[NovikovScalar]) -> Optional[str]:
    """Why the point with gradient ``grad`` does not solve the leading
    system of ``w``, or None: each component must lie below its stratum
    weight."""
    for s in w.strata:
        yj = grad[s.component]
        if not yj.is_zero() and yj.valuation() >= s.weight:
            return (
                f"does not solve the leading system in component {s.component}: "
                f"residual valuation {floor_str(yj.valuation())} is not below the stratum weight "
                f"{fraction_str(s.weight)}"
            )
    return None


def known_failure(grad: Sequence[NovikovScalar], level, noun: str) -> Optional[str]:
    """Why the gradient ``grad`` is not known down to ``level`` (the
    ``noun`` of the check), or None: below its floor a component states
    coefficients nothing fixes."""
    known = max(y.floor for y in grad)
    if known > level:
        return (
            f"gradient is known only above {floor_str(known)}, "
            f"not down to the {noun} {floor_str(level)}"
        )
    return None


def _brane_failure(w: PotentialFunction, x, residual, order) -> Optional[str]:
    """The first condition under which brane ``x`` fails to certify a
    critical point of ``w`` above ``residual``, or None.  The lift checks
    what it returns here, and revalidation every brane it reads.

    Units whose gradient is known down to a residual at most the order and
    vanishes above it, and whose leading coefficients solve the leading
    system at a nondegenerate Jacobian, converge under Newton to a true
    critical point that agrees with x above the residual (K. Conrad, "A
    multivariable Hensel's lemma").
    """
    if any(xj.valuation() != 0 for xj in x):
        return "coordinates are not units"
    if residual == NEG_INF:
        exact = all(xj.is_monomial() for xj in x)  # only these invert exactly
        if not (exact and all(y.is_exact_zero() for y in w.gradient(x, NEG_INF))):
            return "claimed exact zero residual but gradient is nonzero"
    else:
        grad = w.gradient(x, residual)
        if not all(y.is_zero() for y in grad):
            return f"gradient has residual above {floor_str(residual)}"
        if residual > order:
            return (
                f"residual valuation {floor_str(residual)} lies above the order {floor_str(order)}"
            )
        if failure := known_failure(grad, residual, "residual"):
            return failure
        w_min = min(s.weight for s in w.strata)
        if residual >= w_min:  # read the leading system below every weight
            grad = w.gradient(x, 2 * w_min)
        if failure := _leading_failure(w, grad):
            return failure
    return _degeneracy_failure(w, [xj.lead() for xj in x])


def _pivot_key(s: NovikovScalar):
    # Largest valuation first, then largest leading magnitude.
    if s.is_zero():
        return None
    return (s.valuation(), abs(s.lead()))


def _solve_linear(
    mat: List[List[NovikovScalar]], rhs: List[NovikovScalar]
) -> List[NovikovScalar]:
    """Gaussian elimination over truncated scalars; raises on singular pivots."""
    n = len(rhs)
    rows = [[*row, b] for row, b in zip(mat, rhs)]
    reduced, pivots, _ = gauss_jordan(rows, n, _pivot_key, lambda s: s.invert(s.floor))
    if len(pivots) < n:
        raise ValueError("degenerate linear system: singular Jacobian in the lift")
    return [row[n] for row in reduced]


class BraneCertificate(Record):
    # order is a Fraction or NEG_INF, residual_valuation Fraction-like or NEG_INF
    __slots__ = ("x", "order", "residual_valuation", "central_charge", "iterations")

    def to_json(self) -> dict:
        return {
            "x": [xj.to_json() for xj in self.x],
            "order": floor_str(self.order),
            "residual_valuation": floor_str(self.residual_valuation),
            # constant schema fields, kept so that every certificate has the same keys
            "leading_residual": None,
            "residual_norm": 0.0,
            "central_charge": self.central_charge.to_json(),
            "iterations": self.iterations,
        }


def parse_order(value) -> Fraction:
    """A truncation order (a q-exponent cutoff) of a lift or a certificate;
    raises ValueError unless it is a negative rational."""
    order = parse_floor(value)
    if order == NEG_INF or order >= 0:
        raise ValueError("order must be a negative rational (a q-exponent cutoff)")
    return order


def lift_critical(
    w: PotentialFunction,
    root: LeadingRoot,
    order,
    field: CoefficientField,
) -> BraneCertificate:
    """Refine a leading root to a brane with gradient zero to the given order.

    The returned brane coordinates are unit scalars; in exact modes with a
    root that kills the gradient identically, the residual is exactly zero
    (valuation -inf) and the brane is exact with no truncation floor.
    """
    order = parse_order(order)
    constants = root.constants_for(field)

    # Reject degenerate leading roots up front: the leading Jacobian must be
    # invertible for Newton contraction.
    if failure := _degeneracy_failure(w, root.values):
        raise ValueError(failure)

    x = brane_from_constants(field, constants)

    # Exact short-circuit: a root that solves the full gradient identically.
    if field.exact and _brane_failure(w, x, NEG_INF, order) is None:
        return BraneCertificate(
            x=x,
            order=order,
            residual_valuation=NEG_INF,
            central_charge=w.evaluate(x, NEG_INF),
            iterations=0,
        )

    w_lead = min(s.weight for s in w.strata)
    # Work strictly below the target: corrections of size below order + w_lead
    # cannot change coefficients above order, and one more w_lead of margin
    # absorbs the row normalization in the linear solves.
    floor_work = order + 3 * w_lead
    strict = order + w_lead
    # with_floor is a deliberate floor assertion here and below: Newton
    # contraction guarantees the deeper coefficients are final.
    x = [xj.with_floor(floor_work) for xj in x]

    grad = w.gradient(x, floor_work)
    if failure := _leading_failure(w, grad):
        raise ValueError(f"initial point {failure}")

    iterations = 0
    last_res = None
    one = NovikovScalar.one(field)
    while True:
        res_val = max((y.valuation() for y in grad))
        if all(y.truncate(strict).is_zero() for y in grad):
            break
        if last_res is not None and res_val >= last_res:
            raise ValueError(
                f"lift failed to contract: residual valuation stalled at {floor_str(res_val)}"
            )
        last_res = res_val
        if iterations >= NEWTON_CAP:
            raise ValueError("lift exceeded the iteration cap without converging")
        hess = w.hessian(x, floor_work)
        # Row-normalize by the stratum weights so pivots are unit-valuation.
        rows = []
        rhs = []
        for s in w.strata:
            rows.append([m.shift(-s.weight) for m in hess[s.component]])
            rhs.append(-grad[s.component].shift(-s.weight))
        delta = _solve_linear(rows, rhs)
        x = [(xj * (one + dj)).with_floor(floor_work) for xj, dj in zip(x, delta)]
        grad = w.gradient(x, floor_work)
        iterations += 1

    # Re-anchor at the certified order and verify the claim independently of
    # the iteration bookkeeping.
    x_final = [xj.with_floor(order) for xj in x]
    if failure := _brane_failure(w, x_final, order, order):
        raise ValueError(f"lift verification failed: {failure}")
    return BraneCertificate(
        x=x_final,
        order=order,
        residual_valuation=order,
        central_charge=w.evaluate(x_final, order),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Certificates


class FiberReport(Record):
    """What ``certify_heavy`` finds at one fiber: a heaviness certificate
    when the fiber carries lifted critical branes, otherwise the diagnosis
    of why none were found."""

    __slots__ = ("w", "order", "field", "diagnosis", "branes")

    @property
    def found(self) -> bool:
        return bool(self.branes)

    @property
    def status(self) -> str:
        return "certified" if self.branes else "none-found"

    @property
    def leading_weights(self) -> List[Fraction]:
        return [s.weight for s in self.w.strata]

    def to_json(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "field": self.field.to_json(),
            "polytope": self.w.polytope.to_json(),
            "fiber": point_str(self.w.fiber),
            "order": floor_str(self.order),
        }
        if self.branes:
            doc.update(
                kind="heaviness-certificate",
                theorem=THEOREM_TAG,
                leading_weights=[fraction_str(w) for w in self.leading_weights],
                branes=[b.to_json() for b in self.branes],
            )
        else:
            doc.update(
                kind="no-critical-branes",
                diagnosis=self.diagnosis,
                strata=[s.to_json() for s in self.w.strata],
                note=(
                    "no critical branes found at this fiber; this is a diagnosis, "
                    "not a proof of non-heaviness"
                ),
            )
        return doc

    def row_json(self) -> dict:
        """This fiber's row of a scan."""
        return {
            "fiber": point_str(self.w.fiber),
            "status": self.status,
            "branes": len(self.branes),
            "leading_weights": [fraction_str(w) for w in self.leading_weights],
            "diagnosis": self.diagnosis,
            "certificate": self.to_json() if self.branes else None,
        }


def certify_heavy(w: PotentialFunction, order, field: CoefficientField) -> FiberReport:
    """Certify the fiber of the potential ``w`` by exhibiting lifted
    critical branes.

    Every unit root of the leading system is lifted; with none, the report
    has no branes and carries the blocking diagnosis.  The order must be
    negative; callers validate the polytope of ``w``.
    """
    order = parse_order(order)
    leading = critical_points_leading(w)
    return FiberReport(
        w=w,
        order=order,
        field=field,
        diagnosis=leading.diagnosis,
        branes=[lift_critical(w, root, order, field) for root in leading.roots],
    )


# key -> (JSON types its value may have, their description)
CERTIFICATE_KEYS = {
    "field": ((str, dict), "a string or an object"),
    "polytope": (dict, "an object"),
    "fiber": (str, "a string"),
    "order": (str, "a string"),
    "branes": (list, "a list of brane objects"),
}
BRANE_KEYS = {
    "x": (list, "a list of scalar objects"),
    "residual_valuation": (str, "a string"),
    "central_charge": (dict, "an object"),
}


def _check_keys(obj: dict, keys: dict, where: str) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"{where} missing key(s) {missing}")
    for key, (types, what) in keys.items():
        if not isinstance(obj[key], types):
            raise SchemaError(f"{where} '{key}' must be {what}")


def read_certificate(doc: dict, where: str = "certificate"):
    """Parse a heaviness certificate: every key that revalidation or a
    quasimap command reads must be present, of its JSON type, and parse;
    otherwise raise a ``SchemaError`` that starts with ``where``.

    Returns the field, polytope, fiber, order and, per brane, its
    coordinates, claimed residual valuation and central charge.
    """
    _check_keys(doc, CERTIFICATE_KEYS, f"{where}:")
    field = _parse(lambda: CoefficientField.from_json(doc["field"]), f"{where}: 'field'")
    p = _parse(lambda: MomentPolytope.from_json(doc["polytope"]), f"{where}: 'polytope'")
    fiber = _parse(lambda: parse_fiber(doc["fiber"]), f"{where}: 'fiber'")
    if len(fiber) != p.dim:
        raise SchemaError(f"{where}: 'fiber' needs one coordinate per dimension ({p.dim})")
    order = _parse(lambda: parse_order(doc["order"]), f"{where}: 'order'")
    branes = []
    for idx, brane in enumerate(doc["branes"]):
        at = f"{where}: brane {idx}"
        if not isinstance(brane, dict):
            raise SchemaError(f"{at} must be an object")
        _check_keys(brane, BRANE_KEYS, at)
        if not all(isinstance(xj, dict) for xj in brane["x"]):
            raise SchemaError(f"{at} 'x' must be a list of scalar objects")
        if len(brane["x"]) != p.dim:
            raise SchemaError(f"{at} 'x' needs one scalar per dimension ({p.dim})")
        branes.append(
            _parse(
                lambda: (
                    [NovikovScalar.from_json(field, xj) for xj in brane["x"]],
                    parse_floor(brane["residual_valuation"]),
                    NovikovScalar.from_json(field, brane["central_charge"]),
                ),
                at,
            )
        )
    return field, p, fiber, order, branes


def revalidate_certificate(doc: dict, where: str = "certificate") -> dict:
    """Re-check a serialized heaviness certificate from its JSON alone.

    Re-parses the polytope, fiber and branes (``read_certificate``; a
    malformed certificate raises its ``SchemaError``), revalidates the
    polytope, checks each brane as the lift checks what it returns
    (``_brane_failure``), so that a passing brane proves a critical point of
    the potential, and re-evaluates its central charge at its residual.
    Returns {"ok": bool, "checks": [...], "failures": [...]}.
    """
    checks: List[str] = []
    failures: List[str] = []
    fail = failures.append

    if doc.get("kind") != "heaviness-certificate":
        fail(f"not a heaviness certificate: kind={doc.get('kind')!r}")
        return {"ok": False, "checks": checks, "failures": failures}
    if doc.get("theorem") != THEOREM_TAG:
        fail(f"unexpected theorem tag {doc.get('theorem')!r}")
    field, p, fiber, order, branes = read_certificate(doc, where)
    rep = polytope_validate(p)
    if rep.ok:
        checks.append("polytope validates")
    else:
        fail("polytope fails validation: " + "; ".join(rep.violations))
    try:
        w = PotentialFunction(p, fiber)
        checks.append("fiber is interior")
        w.strata  # a coordinate on no facet fails here, after the interior check
    except ValueError as exc:
        fail(str(exc))
        return {"ok": False, "checks": checks, "failures": failures}

    if not branes:
        fail("certificate carries no branes")
    for idx, (x, claimed, stated_charge) in enumerate(branes):
        if failure := _brane_failure(w, x, claimed, order):
            fail(f"brane {idx}: {failure}")
            continue
        above = "exactly" if claimed == NEG_INF else f"above order {floor_str(claimed)}"
        checks.append(f"brane {idx}: gradient vanishes {above}")
        if w.evaluate(x, claimed).isclose(stated_charge):
            checks.append(f"brane {idx}: central charge matches")
        else:
            fail(f"brane {idx}: stated central charge does not match re-evaluation")
    return {"ok": not failures, "checks": checks, "failures": failures}


# ---------------------------------------------------------------------------
# Scanning


class ScanReport(Record):
    __slots__ = ("resolution", "order", "rows")

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "fiber-scan",
            "resolution": fraction_str(self.resolution),
            "order": floor_str(self.order),
            "rows": [r.row_json() for r in self.rows],
        }

    def to_csv_rows(self) -> List[List[str]]:
        out = [["fiber", "status", "branes", "leading_weights", "diagnosis"]]
        for r in self.rows:
            diag = "" if not r.diagnosis else r.diagnosis.get("reason", "")
            weights = ";".join(map(fraction_str, r.leading_weights))
            out.append([point_str(r.w.fiber), r.status, str(len(r.branes)), weights, diag])
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
    vertices = validated(p).vertices
    order = parse_order(order)
    rows = [
        certify_heavy(PotentialFunction(p, fiber), order, field)
        for fiber in grid_fibers(p, resolution, vertices)
    ]
    return ScanReport(resolution=parse_fraction(resolution), order=order, rows=rows)
