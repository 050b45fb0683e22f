"""Moment polytopes with exact rational facet data.

A polytope is stored through its facet presentation

    Delta = { lam in R^n : <lam, v_i> - c_i >= 0 }

with primitive integer normals v_i and rational offsets c_i.  The affine
length attached to facet i at an interior point lam is

    l_i(lam) = 2*pi * (<lam, v_i> - c_i),

and every area-like quantity in this package is reported in units of 2*pi:
we only ever store the rational part r_i(lam) = <lam, v_i> - c_i and keep
the 2*pi scale symbolic, so that exact arithmetic survives end to end.

Validation is exact.  Boundedness, nonempty interior and facet redundancy
are decided with a rational simplex solver (no floating-point feasibility
tolerances); vertices are enumerated by exact linear solves, and the
smoothness test at each vertex reduces to an integer determinant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .fields import determinant, fraction_str, gauss_jordan, parse_fraction

Vector = Tuple[int, ...]
Point = Tuple[Fraction, ...]


def _parse_point(text_or_seq) -> Point:
    # Accepts "1/2,1/3" or an iterable of rationals.
    if isinstance(text_or_seq, str):
        parts = [p for p in text_or_seq.split(",") if p.strip()]
        return tuple(parse_fraction(p.strip()) for p in parts)
    return tuple(parse_fraction(p) for p in text_or_seq)


def point_str(point: Sequence[Fraction]) -> str:
    return ",".join(fraction_str(Fraction(c)) for c in point)


def _vec_gcd(vec: Iterable[int]) -> int:
    return math.gcd(*vec)


def _frac_reduce(rows: List[List[Fraction]], width: int):
    """``gauss_jordan`` over Fraction rows.  Every nonzero entry is an exact
    pivot, so the first one in each column is taken."""
    return gauss_jordan(rows, width, lambda x: True if x else None, lambda x: 1 / x)


def _frac_solve(rows: List[List[Fraction]], rhs: List[Fraction]) -> Optional[List[Fraction]]:
    # Solve a square rational system; None when singular.
    n = len(rows)
    reduced, pivots, _ = _frac_reduce([[*row, b] for row, b in zip(rows, rhs)], n)
    if len(pivots) < n:
        return None
    return [row[n] for row in reduced]


def int_det(rows: Sequence[Sequence[int]]) -> int:
    n = len(rows)
    _, pivots, sign = _frac_reduce([[Fraction(x) for x in row] for row in rows], n)
    return int(determinant(pivots, sign, n))


def unimodular_inverse_transpose(a: Sequence[Sequence[int]]) -> Tuple[Vector, ...]:
    """Exact A^{-T} for an integer matrix with det = +-1, from one
    reduction of [A | I]."""
    n = len(a)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
        for r, row in enumerate(a)
    ]
    reduced, pivots, sign = _frac_reduce(rows, n)
    det = determinant(pivots, sign, n)
    if det not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det = {det})")
    # Columns of A^{-1} are rows of A^{-T}.
    out = [[reduced[r][n + j] for r in range(n)] for j in range(n)]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("unimodular inverse produced a non-integer entry")
    return tuple(tuple(int(x) for x in row) for row in out)


def apply_matrix(a: Sequence[Sequence[int]], vec: Sequence) -> tuple:
    return tuple(sum(a[r][c] * vec[c] for c in range(len(vec))) for r in range(len(a)))


@dataclass(frozen=True)
class Facet:
    normal: Vector
    offset: Fraction

    def value(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != len(self.normal):
            raise ValueError("point dimension does not match facet normal")
        return sum((Fraction(p) * v for p, v in zip(point, self.normal)), -self.offset)

    def to_json(self) -> dict:
        return {"normal": list(self.normal), "offset": fraction_str(self.offset)}

    @staticmethod
    def from_json(obj: dict) -> "Facet":
        if not isinstance(obj, dict) or "normal" not in obj or "offset" not in obj:
            raise ValueError("facet record needs 'normal' and 'offset'")
        normal = obj["normal"]
        if not isinstance(normal, (list, tuple)) or not normal:
            raise ValueError("facet normal must be a nonempty integer list")
        aligned = []
        for entry in normal:
            if isinstance(entry, bool) or not isinstance(entry, int):
                raise ValueError("facet normals must be integers")
            aligned.append(entry)
        return Facet(tuple(aligned), parse_fraction(obj["offset"]))


@dataclass(frozen=True)
class MomentPolytope:
    dim: int
    facets: Tuple[Facet, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("polytope dimension must be >= 1")
        for f in self.facets:
            if len(f.normal) != self.dim:
                raise ValueError("facet normal length does not match dimension")

    def values(self, point: Sequence[Fraction]) -> List[Fraction]:
        pt = _parse_point(point)
        if len(pt) != self.dim:
            raise ValueError(f"point has dimension {len(pt)}, polytope has {self.dim}")
        return [f.value(pt) for f in self.facets]

    def is_interior(self, point) -> bool:
        try:
            vals = self.values(point)
        except ValueError:
            return False
        return all(v > 0 for v in vals)

    def contains(self, point) -> bool:
        return all(v >= 0 for v in self.values(point))

    def to_json(self) -> dict:
        return {"dim": self.dim, "facets": [f.to_json() for f in self.facets]}

    @staticmethod
    def from_json(obj) -> "MomentPolytope":
        if not isinstance(obj, dict):
            raise ValueError("polytope JSON must be an object")
        if "dim" not in obj or "facets" not in obj:
            raise ValueError("polytope JSON needs 'dim' and 'facets'")
        dim = obj["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise ValueError("polytope dim must be an integer")
        facets = tuple(Facet.from_json(f) for f in obj["facets"])
        return MomentPolytope(dim, facets)


def segment(a, b) -> MomentPolytope:
    """The interval [a, b] as a 1-d polytope: lam >= a and b - lam >= 0."""
    lo, hi = parse_fraction(a), parse_fraction(b)
    if lo >= hi:
        raise ValueError("segment needs a < b")
    return MomentPolytope(1, (Facet((1,), lo), Facet((-1,), -hi)))


def simplex(dim: int, size=1) -> MomentPolytope:
    """Standard simplex {lam_i >= 0, sum lam_i <= size} (projective-space polytope)."""
    s = parse_fraction(size)
    if s <= 0:
        raise ValueError("simplex size must be positive")
    facets = [Facet(tuple(1 if j == i else 0 for j in range(dim)), Fraction(0)) for i in range(dim)]
    facets.append(Facet(tuple(-1 for _ in range(dim)), -s))
    return MomentPolytope(dim, tuple(facets))


def box(bounds: Sequence[Tuple]) -> MomentPolytope:
    """Axis-aligned box given per-coordinate (lo, hi) bounds."""
    dim = len(bounds)
    facets = []
    for i, (lo, hi) in enumerate(bounds):
        lo, hi = parse_fraction(lo), parse_fraction(hi)
        if lo >= hi:
            raise ValueError("box needs lo < hi in every coordinate")
        e = tuple(1 if j == i else 0 for j in range(dim))
        facets.append(Facet(e, lo))
        facets.append(Facet(tuple(-x for x in e), -hi))
    return MomentPolytope(dim, tuple(facets))


def product(p0: MomentPolytope, p1: MomentPolytope) -> MomentPolytope:
    """Cartesian product; facet lists concatenate with zero-padded normals."""
    facets = []
    for f in p0.facets:
        facets.append(Facet(f.normal + (0,) * p1.dim, f.offset))
    for f in p1.facets:
        facets.append(Facet((0,) * p0.dim + f.normal, f.offset))
    return MomentPolytope(p0.dim + p1.dim, tuple(facets))


def transform(p: MomentPolytope, a: Sequence[Sequence[int]]) -> MomentPolytope:
    """Apply a GL(n, Z) change of torus coordinates: normals map by A.

    Moment coordinates map by A^{-T} (facet values are preserved:
    <A^{-T} lam, A v> = <lam, v>), and brane coordinates by x -> x^{A^{-T}}.
    """
    if len(a) != p.dim or any(len(row) != p.dim for row in a):
        raise ValueError("transform matrix shape does not match polytope dimension")
    if int_det(a) not in (1, -1):
        raise ValueError("transform matrix must be unimodular")
    facets = tuple(Facet(apply_matrix(a, f.normal), f.offset) for f in p.facets)
    return MomentPolytope(p.dim, facets)


def transform_point(a: Sequence[Sequence[int]], point) -> Point:
    """Image of a moment point under the coordinate change of transform(): A^{-T} lam."""
    inv_t = unimodular_inverse_transpose(a)
    pt = _parse_point(point)
    return tuple(sum(Fraction(inv_t[r][c]) * pt[c] for c in range(len(pt))) for r in range(len(inv_t)))


# ---------------------------------------------------------------------------
# Validation


@dataclass
class PolytopeReport:
    ok: bool
    dim: int
    facet_count: int
    bounded: bool
    interior_nonempty: bool
    interior_point: Optional[Point]
    redundant_facets: List[int]
    vertices: List[Point]
    simple: bool
    delzant: bool
    violations: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "dim": self.dim,
            "facet_count": self.facet_count,
            "bounded": self.bounded,
            "interior_nonempty": self.interior_nonempty,
            "interior_point": point_str(self.interior_point) if self.interior_point else None,
            "redundant_facets": self.redundant_facets,
            "vertices": [point_str(v) for v in self.vertices],
            "simple": self.simple,
            "delzant": self.delzant,
            "violations": self.violations,
        }


def _pivot(rows: List[list], obj: list, basis: List[int], r: int, col: int) -> None:
    prow = rows[r]
    inv = 1 / prow[col]
    if inv != 1:
        prow[:] = [x * inv for x in prow]
    nonzero = [j for j, x in enumerate(prow) if x]
    for row in itertools.chain(rows, (obj,)):
        factor = row[col]
        if factor and row is not prow:
            for j in nonzero:
                row[j] -= factor * prow[j]
    basis[r] = col


def _simplex(rows: List[list], obj: List, basis: List[int], allowed: List[int]) -> bool:
    """Pivot to optimality with Bland's rule; False when unbounded below.

    ``obj`` holds the reduced costs and, last, minus the objective value.
    Only the columns in ``allowed`` (ascending) may enter the basis.
    """
    while True:
        enter = next((j for j in allowed if obj[j] < 0), None)
        if enter is None:
            return True
        leave, best = None, None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            return False
        _pivot(rows, obj, basis, leave, enter)


def _reduced_costs(rows: List[list], basis: List[int], cost: List) -> list:
    obj = list(cost) + [Fraction(0)]
    for row, b in zip(rows, basis):
        if cost[b]:
            obj = [o - cost[b] * x for o, x in zip(obj, row)]
    return obj


def _lp(objectives: Sequence[Sequence], a: Sequence[Sequence], b: Sequence):
    """Exact LP over free variables: lexicographically minimise the
    objectives over {x in Q^n : A x >= b}.

    Each later objective is minimised over the optimal set of the earlier
    ones; one that is unbounded there is skipped.  Returns ``(status, x)``
    with status "optimal", "infeasible", or "unbounded" (the first
    objective is unbounded below; x is then None).

    Dense two-phase simplex on a Fraction tableau with Bland's rule, so it
    terminates on degenerate problems.  Free x_j is split as x+_j - x-_j;
    row i reads A_i x - s_i = b_i with slack s_i >= 0, and starts from its
    slack when b_i <= 0, from an artificial variable otherwise.
    """
    m = len(a)
    n = len(a[0]) if m else len(objectives[0])
    width = 2 * n + m
    artificials = sum(1 for x in b if x > 0)
    rows, basis = [], []
    next_artificial = width
    for i, (ai, bi) in enumerate(zip(a, b)):
        sign = 1 if bi > 0 else -1
        row = [Fraction(0)] * (width + artificials + 1)
        for j, x in enumerate(ai):
            row[j] = Fraction(sign * x)
            row[n + j] = -row[j]
        row[2 * n + i] = Fraction(-sign)
        row[-1] = Fraction(sign * bi)
        if sign > 0:
            row[next_artificial] = Fraction(1)
            basis.append(next_artificial)
            next_artificial += 1
        else:
            basis.append(2 * n + i)
        rows.append(row)
    if artificials:
        obj = _reduced_costs(rows, basis, [0] * width + [1] * artificials)
        _simplex(rows, obj, basis, list(range(width)))
        if obj[-1] != 0:
            return "infeasible", None
        # Basic artificials sit at zero: pivot them out, or drop their
        # row when it is a combination of the others.
        for i in reversed(range(len(rows))):
            if basis[i] >= width:
                col = next((j for j in range(width) if rows[i][j]), None)
                if col is None:
                    del rows[i], basis[i]
                else:
                    _pivot(rows, obj, basis, i, col)
    allowed = list(range(width))
    for k, c in enumerate(objectives):
        cost = [Fraction(x) for x in c] + [-Fraction(x) for x in c]
        cost += [Fraction(0)] * (m + artificials)
        obj = _reduced_costs(rows, basis, cost)
        if not _simplex(rows, obj, basis, allowed):
            if k == 0:
                return "unbounded", None
            continue
        # Columns with a positive reduced cost are zero on the optimal set.
        allowed = [j for j in allowed if obj[j] == 0]
    value = [Fraction(0)] * width
    for row, col in zip(rows, basis):
        value[col] = row[-1]
    return "optimal", [value[j] - value[n + j] for j in range(n)]


def _bounded_exact(p: MomentPolytope) -> bool:
    # Bounded iff the recession cone {d : <v_i, d> >= 0} is {0}: the normals
    # span Q^n and sum_i <v_i, d> cannot be raised above 0 on the cone.  The
    # LP below is always optimal: d = 0 is feasible and its last row caps
    # the sum at 1.
    normals = [list(f.normal) for f in p.facets]
    _, pivots, _ = _frac_reduce([[Fraction(x) for x in row] for row in normals], p.dim)
    if len(pivots) < p.dim:
        return False
    total = [sum(col) for col in zip(*normals)]
    _, d = _lp([[-x for x in total]], normals + [[-x for x in total]], [0] * len(normals) + [-1])
    return sum(x * y for x, y in zip(total, d)) == 0


def interior_point(p: MomentPolytope) -> Optional[Point]:
    """A rational point maximizing the minimal facet value (None when empty).

    Maximizes t subject to <lam, v_i> - c_i >= t and t <= 1; when the
    optimum t* is positive, returns the lexicographically smallest lam with
    margin t* (minimize lam_0, then lam_1, ... over the optimal set), so the
    point is canonical and moves with any translation of the polytope.
    """
    n = p.dim
    a = [list(f.normal) + [-1] for f in p.facets] + [[0] * n + [-1]]
    b = [f.offset for f in p.facets] + [-1]
    objectives = [[0] * n + [-1]] + [[int(i == j) for i in range(n + 1)] for j in range(n)]
    _, sol = _lp(objectives, a, b)
    if sol[n] <= 0:
        return None
    return tuple(sol[:n])


def _facet_redundant(p: MomentPolytope, idx: int) -> bool:
    # Facet i is redundant when its value stays >= 0 over the polytope cut
    # out by the other facets alone (vacuously so when they are infeasible).
    others = [f for j, f in enumerate(p.facets) if j != idx]
    target = p.facets[idx]
    status, sol = _lp(
        [target.normal], [f.normal for f in others], [f.offset for f in others]
    )
    if status != "optimal":
        return status == "infeasible"
    return target.value(sol) >= 0


def enumerate_vertices(p: MomentPolytope) -> List[Point]:
    """All vertices, exactly: n-subsets of facets with invertible normal matrix
    whose intersection point satisfies every inequality."""
    n = p.dim
    seen = {}
    for subset in itertools.combinations(range(len(p.facets)), n):
        rows = [[Fraction(x) for x in p.facets[i].normal] for i in subset]
        rhs = [p.facets[i].offset for i in subset]
        sol = _frac_solve(rows, rhs)
        if sol is None:
            continue
        pt = tuple(sol)
        if all(f.value(pt) >= 0 for f in p.facets):
            seen[pt] = True
    return sorted(seen.keys())


def active_facets(p: MomentPolytope, vertex: Point) -> List[int]:
    return [i for i, f in enumerate(p.facets) if f.value(vertex) == 0]


def polytope_validate(p: MomentPolytope) -> PolytopeReport:
    """Exact structural validation: primitive integer normals, boundedness,
    nonempty interior, no redundant facets, and the smoothness condition
    (exactly n active facets per vertex forming a Z-basis, |det| = 1)."""
    violations: List[str] = []
    if len(p.facets) < p.dim + 1:
        violations.append(f"needs at least {p.dim + 1} facets, found {len(p.facets)}")
    for i, f in enumerate(p.facets):
        g = _vec_gcd(f.normal)
        if g == 0:
            violations.append(f"facet {i} has zero normal")
        elif g != 1:
            violations.append(f"facet {i} normal is not primitive (content {g})")

    structurally_sane = not violations
    bounded = _bounded_exact(p) if structurally_sane else False
    if structurally_sane and not bounded:
        violations.append("polytope is unbounded")

    interior = interior_point(p) if bounded else None
    interior_nonempty = interior is not None
    if bounded and not interior_nonempty:
        violations.append("polytope has empty interior")

    redundant: List[int] = []
    if interior_nonempty:
        redundant = [i for i in range(len(p.facets)) if _facet_redundant(p, i)]
        for i in redundant:
            violations.append(f"facet {i} is redundant")

    vertices: List[Point] = []
    simple = False
    delzant = False
    if interior_nonempty and not redundant:
        vertices = enumerate_vertices(p)
        simple = True
        delzant = True
        for v in vertices:
            active = active_facets(p, v)
            if len(active) != p.dim:
                simple = False
                delzant = False
                violations.append(
                    f"vertex {point_str(v)} lies on {len(active)} facets, expected {p.dim}"
                )
                continue
            det = int_det([p.facets[i].normal for i in active])
            if abs(det) != 1:
                delzant = False
                violations.append(
                    f"vertex {point_str(v)} has non-unimodular facet normals (det {det})"
                )

    ok = not violations
    return PolytopeReport(
        ok=ok,
        dim=p.dim,
        facet_count=len(p.facets),
        bounded=bounded,
        interior_nonempty=interior_nonempty,
        interior_point=interior,
        redundant_facets=redundant,
        vertices=vertices,
        simple=simple,
        delzant=delzant,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Fiber data


def facet_values(p: MomentPolytope, fiber) -> List[Fraction]:
    """Rational parts r_i = <lam, v_i> - c_i at an interior point; the affine
    lengths are l_i = 2*pi*r_i.  Errors on boundary or exterior points."""
    vals = p.values(_parse_point(fiber))
    bad = [i for i, v in enumerate(vals) if v <= 0]
    if bad:
        raise ValueError(
            f"fiber is not interior: nonpositive value on facet(s) {bad}"
        )
    return vals


@dataclass(frozen=True)
class FiberRadius:
    facet: int
    radius_sq: Fraction  # exact: radius^2 = l_i / pi = 2 r_i
    radius: float

    def to_json(self) -> dict:
        return {
            "facet": self.facet,
            "radius_sq": fraction_str(self.radius_sq),
            "radius": self.radius,
        }


def fiber_radii(p: MomentPolytope, fiber) -> List[FiberRadius]:
    """Boundary-circle radii of the basic holomorphic disks through each facet:
    radius_i = sqrt(l_i / pi), kept exact as radius^2 = 2 r_i."""
    out = []
    for i, r in enumerate(facet_values(p, fiber)):
        sq = 2 * r
        out.append(FiberRadius(i, sq, float(sq) ** 0.5))
    return out


@dataclass(frozen=True)
class BlaschkeDisk:
    degrees: Tuple[int, ...]
    zeros: Tuple[Tuple[complex, ...], ...]
    winding: Vector  # total boundary class in H_1 of the torus fiber
    maslov: int
    area_weights: Tuple[Fraction, ...]  # d_i * r_i per facet, in 2*pi units
    area: Fraction
    radii: Tuple[FiberRadius, ...]

    def evaluate(self, z: complex) -> List[complex]:
        """Component value through each facet coordinate; boundary points
        (|z| = 1) land on the circle of the fiber radius."""
        if abs(z) > 1 + 1e-12:
            raise ValueError("Blaschke products are defined on the closed unit disk")
        out = []
        for i in range(len(self.degrees)):
            value = complex(self.radii[i].radius)
            for alpha in self.zeros[i]:
                value *= (z - alpha) / (1 - alpha.conjugate() * z)
            out.append(value)
        return out

    def to_json(self) -> dict:
        return {
            "degrees": list(self.degrees),
            "winding": list(self.winding),
            "maslov": self.maslov,
            "area_weights": [fraction_str(w) for w in self.area_weights],
            "area": fraction_str(self.area),
        }


def blaschke_disk(
    p: MomentPolytope,
    fiber,
    degrees: Sequence[int],
    zeros: Sequence[Sequence[complex]],
) -> BlaschkeDisk:
    """Disk class record for the product-of-Blaschke-factors disk with the
    given per-facet degree vector and interior zeros.

    Maslov index is 2 * sum(degrees) and the (2*pi-normalized) area is
    sum_i d_i * r_i(fiber); both are exact integers/rationals.
    """
    if len(degrees) != len(p.facets):
        raise ValueError("need one degree per facet")
    clean_degrees = []
    for d in degrees:
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise ValueError("degrees must be nonnegative integers")
        clean_degrees.append(d)
    if len(zeros) != len(p.facets):
        raise ValueError("need one zero list per facet")
    clean_zeros = []
    for i, zs in enumerate(zeros):
        if len(zs) != clean_degrees[i]:
            raise ValueError(
                f"facet {i}: got {len(zs)} zeros for degree {clean_degrees[i]}"
            )
        row = []
        for alpha in zs:
            alpha = complex(alpha)
            if abs(alpha) >= 1:
                raise ValueError("Blaschke zeros must lie strictly inside the unit disk")
            row.append(alpha)
        clean_zeros.append(tuple(row))
    values = facet_values(p, fiber)
    radii = tuple(fiber_radii(p, fiber))
    winding = tuple(
        sum(d * f.normal[j] for d, f in zip(clean_degrees, p.facets))
        for j in range(p.dim)
    )
    weights = tuple(d * r for d, r in zip(clean_degrees, values))
    return BlaschkeDisk(
        degrees=tuple(clean_degrees),
        zeros=tuple(clean_zeros),
        winding=winding,
        maslov=2 * sum(clean_degrees),
        area_weights=weights,
        area=sum(weights, Fraction(0)),
        radii=radii,
    )


def parse_fiber(text_or_seq) -> Point:
    return _parse_point(text_or_seq)
