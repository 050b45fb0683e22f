"""Moment polytopes with exact rational facet data.

A polytope is stored through its facet presentation

    Delta = { lam in R^n : <lam, v_i> - c_i >= 0 }

with primitive integer normals v_i and rational offsets c_i.  The affine
length attached to facet i at an interior point lam is

    l_i(lam) = 2*pi * (<lam, v_i> - c_i),

and every area-like quantity in this package is reported in units of 2*pi:
we only ever store the rational part r_i(lam) = <lam, v_i> - c_i and keep
the 2*pi scale symbolic, so that exact arithmetic survives end to end.

Validation is exact and runs on integer rows: an LP simplex decides
boundedness, interior and redundancy (no floating-point tolerances); one
fraction-free elimination, ``_reduce``, gives ranks, vertices and the
integer determinants of the smoothness test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .records import Frozen, Record, _set, fraction_str, parse_fraction, ratio_str

Vector = Tuple[int, ...]
Point = Tuple[Fraction, ...]


def parse_fiber(text_or_seq) -> Point:
    # Accepts "1/2,1/3" or an iterable of rationals.
    if isinstance(text_or_seq, str):
        parts = [p for p in text_or_seq.split(",") if p.strip()]
        return tuple(parse_fraction(p.strip()) for p in parts)
    return tuple(p if isinstance(p, Fraction) else parse_fraction(p) for p in text_or_seq)


def point_str(point: Sequence[Fraction]) -> str:
    return ",".join(map(fraction_str, point))


def _over_lcm(point: Sequence[Fraction]) -> Tuple[List[int], int]:
    """The integer numerators of a rational point over the lcm ``den`` of
    its denominators, and ``den``."""
    den = math.lcm(*(x.denominator for x in point))
    return [x.numerator * (den // x.denominator) for x in point], den


def _reduce(rows: Sequence[Sequence[int]], width: int) -> Tuple[List[List[int]], List[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows
    over their first ``width`` columns; later columns are carried along.
    A column's first nonzero entry p below the earlier pivots pivots; every
    other row becomes ``(p*row - row[col]*prow) // prev``, ``prev`` the pivot
    before p: the division is exact, as every entry stays a minor of the
    input.  A pivot row ends as the final pivot times the rational row.
    Returns ``(rows, pivot columns, det)``, det for a square matrix."""
    rows = [list(row) for row in rows]
    cols: List[int] = []
    prev, sign = 1, 1
    for col in range(width):
        top = len(cols)
        best = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if best is None:
            continue
        if best != top:
            rows[top], rows[best] = rows[best], rows[top]
            sign = -sign
        prow = rows[top]
        p = prow[col]
        for i, row in enumerate(rows):
            if i != top:
                f = row[col]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        cols.append(col)
        prev = p
    return rows, cols, sign * prev if len(cols) == width else 0


def int_det(rows: Sequence[Sequence[int]]) -> int:
    return _reduce(rows, len(rows))[2]


def rational_inverse(a: Sequence[Sequence[int]]):
    """``(det A, A^{-1})`` exactly, from one reduction of [A | I]; the
    inverse is None when det A = 0."""
    n = len(a)
    rows = [[*row] + [int(r == c) for c in range(n)] for r, row in enumerate(a)]
    reduced, _, det = _reduce(rows, n)
    if not det:
        return det, None
    return det, [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(reduced)]


def coset_representatives(a: Sequence[Sequence[int]]) -> List[Vector]:
    """One vector from each coset of Z^n / A Z^n, |det A| of them, for a
    nonsingular integer matrix A.

    Integer column operations bring A to a lower-triangular basis H of the
    same lattice A Z^n with H_ii > 0 (a Hermite normal form, left without
    reducing the entries below the diagonal).  Column i of H is zero above
    row i, so subtracting multiples of the columns in order reduces any m
    to 0 <= m_i < H_ii, and two vectors of that box differ by a lattice
    vector only when they are equal: the box is a set of representatives.
    """
    n = len(a)
    cols = [[a[r][c] for r in range(n)] for c in range(n)]
    for i in range(n):
        while True:
            live = [c for c in range(i, n) if cols[c][i]]
            if not live:
                raise ValueError("matrix is singular")
            best = min(live, key=lambda c: abs(cols[c][i]))
            cols[i], cols[best] = cols[best], cols[i]
            if len(live) == 1:
                break
            # Euclid on row i: every other entry drops below the pivot.
            for c in range(i + 1, n):
                f = cols[c][i] // cols[i][i]
                if f:
                    cols[c] = [x - f * y for x, y in zip(cols[c], cols[i])]
        if cols[i][i] < 0:
            cols[i] = [-x for x in cols[i]]
    return list(itertools.product(*(range(cols[i][i]) for i in range(n))))


class Facet(Frozen):
    __slots__ = ("normal", "offset")

    def _ratio(self, nums: Sequence[int], den: int) -> Tuple[int, int]:
        """``(num, d)``, ``d > 0``, with ``num / d`` the value at the point
        ``nums / den`` (``_over_lcm`` form)."""
        c = self.offset
        dot = sum(x * v for x, v in zip(nums, self.normal))
        return dot * c.denominator - c.numerator * den, den * c.denominator

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


class MomentPolytope(Frozen):
    __slots__ = ("dim", "facets")

    def __init__(self, dim: int, facets: Tuple[Facet, ...]):
        if dim < 1:
            raise ValueError("polytope dimension must be >= 1")
        for f in facets:
            if len(f.normal) != dim:
                raise ValueError("facet normal length does not match dimension")
        _set(self, "dim", dim)
        _set(self, "facets", facets)

    def _point(self, point) -> Point:
        pt = parse_fiber(point)
        if len(pt) != self.dim:
            raise ValueError(f"point has dimension {len(pt)}, polytope has {self.dim}")
        return pt

    def values(self, point: Sequence[Fraction]) -> List[Fraction]:
        nums, den = _over_lcm(self._point(point))
        return [Fraction(*f._ratio(nums, den)) for f in self.facets]

    def _value_numerators(self, pt: Point) -> Iterator[int]:
        """Numerators of the facet values at ``pt`` over positive
        denominators, in facet order: the signs of the values, without
        building them."""
        nums, den = _over_lcm(pt)
        return (f._ratio(nums, den)[0] for f in self.facets)

    def is_interior(self, point) -> bool:
        try:
            pt = self._point(point)
        except ValueError:
            return False
        return all(x > 0 for x in self._value_numerators(pt))

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
        if not isinstance(obj["facets"], list):
            raise ValueError("polytope facets must be a list")
        facets = tuple(Facet.from_json(f) for f in obj["facets"])
        return MomentPolytope(dim, facets)


def segment(a, b) -> MomentPolytope:
    """The interval [a, b] as a 1-d polytope: lam >= a and b - lam >= 0."""
    lo, hi = parse_fraction(a), parse_fraction(b)
    if lo >= hi:
        raise ValueError("segment needs a < b")
    return MomentPolytope(1, (Facet((1,), lo), Facet((-1,), -hi)))


def simplex(dim: int) -> MomentPolytope:
    """Standard simplex {lam_i >= 0, sum lam_i <= 1} (projective-space polytope)."""
    facets = [Facet(tuple(1 if j == i else 0 for j in range(dim)), Fraction(0)) for i in range(dim)]
    facets.append(Facet(tuple(-1 for _ in range(dim)), Fraction(-1)))
    return MomentPolytope(dim, tuple(facets))


# ---------------------------------------------------------------------------
# Validation


class PolytopeReport(Record):
    __slots__ = ("ok", "dim", "facet_count", "bounded", "interior_nonempty", "interior_point",
                 "redundant_facets", "vertices", "simple", "delzant", "violations")

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


def _eliminate(row: List[int], prow: List[int], col: int) -> List[int]:
    """``p*row - row[col]*prow`` with ``p = prow[col] > 0``, divided by its
    gcd: a positive multiple of the row with its ``col`` entry cleared."""
    p, f = prow[col], row[col]
    out = [p * x - f * y for x, y in zip(row, prow)]
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _pivot(rows: List[List[int]], obj: List[int], basis: List[int], r: int, col: int) -> None:
    if rows[r][col] < 0:
        rows[r] = [-x for x in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if row[col] and i != r:
            rows[i] = _eliminate(row, prow, col)
    if obj[col]:
        obj[:] = _eliminate(obj, prow, col)
    basis[r] = col


def _simplex(rows: List[List[int]], obj: List[int], basis: List[int], allowed: List[int]) -> bool:
    """Pivot to optimality with Bland's rule; False when unbounded below.

    ``obj`` holds the reduced costs and, last, minus the objective value.
    Only the columns in ``allowed`` (ascending) may enter the basis.
    """
    while True:
        enter = next((j for j in allowed if obj[j] < 0), None)
        if enter is None:
            return True
        leave = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                if leave is None:
                    leave = i
                    continue
                # row[-1] / row[enter] against the best ratio, cross-multiplied
                best = rows[leave]
                lhs, rhs = row[-1] * best[enter], best[-1] * row[enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return False
        _pivot(rows, obj, basis, leave, enter)


def _reduced_costs(rows: List[List[int]], basis: List[int], cost: List[int]) -> List[int]:
    obj = list(cost) + [0]
    for row, b in zip(rows, basis):
        if obj[b]:
            obj = _eliminate(obj, row, b)
    return obj


def _lp(objectives: Sequence[Sequence[int]], a: Sequence[Sequence[int]], b: Sequence):
    """Exact LP over free variables: lexicographically minimise the integer
    objectives over {x in Q^n : A x >= b}, for integer A and rational b.

    Each later objective is minimised over the optimal set of the earlier
    ones; one that is unbounded there is skipped.  Returns ``(status, x)``
    with status "optimal", "infeasible", or "unbounded" (the first
    objective is unbounded below; x is then None).

    Dense two-phase simplex with Bland's rule, so it terminates on
    degenerate problems.  Free x_j is split as x+_j - x-_j; row i reads
    A_i x - s_i = b_i with slack s_i >= 0, and starts from its slack when
    b_i <= 0, from an artificial variable otherwise.

    The tableau is fraction-free (Edmonds; Bareiss 1968).  Each row, and
    the reduced-cost row, is an integer row that is a positive multiple of
    the row a rational tableau would hold: an input row is scaled by the
    denominator of b_i, a pivot replaces each other row by ``p*row -
    row[col]*prow`` with the pivot entry p > 0 (the pivot row is negated
    first when p < 0) and divides it by its gcd.  A basic column then holds
    the row's positive scale instead of 1, and a basic value is read once,
    at the end, as the right-hand side over that scale.  Positive scaling
    keeps every sign and zero test, and the ratio test compares
    ``row[-1] / row[enter]`` by cross-multiplying positive denominators, so
    every ratio order and tie is that of the rational tableau: Bland's rule
    takes the same entering and leaving columns, reaches the same final
    basis, and returns the same point.
    """
    m = len(a)
    n = len(a[0]) if m else len(objectives[0])
    width = 2 * n + m
    artificials = sum(1 for x in b if x > 0)
    rows, basis = [], []
    next_artificial = width
    for i, (ai, bi) in enumerate(zip(a, b)):
        num, den = bi.numerator, bi.denominator
        scale = den if num > 0 else -den
        row = [0] * (width + artificials + 1)
        for j, x in enumerate(ai):
            row[j] = scale * x
            row[n + j] = -row[j]
        row[2 * n + i] = -scale
        row[-1] = abs(num)
        if num > 0:
            row[next_artificial] = den
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
        obj = _reduced_costs(rows, basis, [*c, *(-x for x in c)] + [0] * (m + artificials))
        if not _simplex(rows, obj, basis, allowed):
            if k == 0:
                return "unbounded", None
            continue
        # Columns with a positive reduced cost are zero on the optimal set.
        allowed = [j for j in allowed if obj[j] == 0]
    value = {col: Fraction(row[-1], row[col]) for row, col in zip(rows, basis) if col < 2 * n}
    zero = Fraction(0)
    return "optimal", [value.get(j, zero) - value.get(n + j, zero) for j in range(n)]


def _bounded_exact(p: MomentPolytope) -> bool:
    # Bounded iff the recession cone {d : <v_i, d> >= 0} is {0}: the normals
    # span Q^n and sum_i <v_i, d> cannot be raised above 0 on the cone.  The
    # LP below is always optimal: d = 0 is feasible and its last row caps
    # the sum at 1.
    normals = [list(f.normal) for f in p.facets]
    if len(_reduce(normals, p.dim)[1]) < p.dim:
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
    status, sol = _lp(
        [p.facets[idx].normal], [f.normal for f in others], [f.offset for f in others]
    )
    if status != "optimal":
        return status == "infeasible"
    return p.values(sol)[idx] >= 0


def enumerate_vertices(p: MomentPolytope) -> List[Point]:
    """All vertices, exactly: n-subsets of facets with invertible normal matrix
    whose intersection point satisfies every inequality."""
    n = p.dim
    seen = {}
    for subset in itertools.combinations(p.facets, n):
        # <v, x> = c on each facet of the subset, times the denominator of c
        rows = [[f.offset.denominator * v for v in f.normal] + [f.offset.numerator] for f in subset]
        reduced, cols, _ = _reduce(rows, n)
        if len(cols) < n:
            continue
        pt = tuple(Fraction(row[n], row[i]) for i, row in enumerate(reduced))
        if all(x >= 0 for x in p._value_numerators(pt)):
            seen[pt] = True
    return sorted(seen.keys())


def active_facets(p: MomentPolytope, vertex: Point) -> List[int]:
    return [i for i, x in enumerate(p._value_numerators(vertex)) if x == 0]


def polytope_validate(p: MomentPolytope) -> PolytopeReport:
    """Exact structural validation: primitive integer normals, boundedness,
    nonempty interior, no redundant facets, and the smoothness condition
    (exactly n active facets per vertex forming a Z-basis, |det| = 1)."""
    violations: List[str] = []
    if len(p.facets) < p.dim + 1:
        violations.append(f"needs at least {p.dim + 1} facets, found {len(p.facets)}")
    for i, f in enumerate(p.facets):
        g = math.gcd(*f.normal)
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
                violations.append(f"vertex {point_str(v)} has non-unimodular facet normals "
                                  f"(det {ratio_str(det, 1)})")

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


def validated(p: MomentPolytope) -> PolytopeReport:
    """The report of ``polytope_validate(p)``; raises ValueError when ``p``
    fails validation."""
    rep = polytope_validate(p)
    if not rep.ok:
        raise ValueError("polytope failed validation: " + "; ".join(rep.violations))
    return rep
