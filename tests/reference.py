"""Reference constructions that the tests check novspec against.

No command runs these, so they live with the tests: products and
unimodular coordinate changes of moment polytopes, the area homomorphism
of a period lattice, the gcd of two rationals, the recursive extended gcd,
the level of a chain, the Kushnirenko count of a toric potential's
critical points, the potential's monomials, gradient and Hessian built
one scaled scalar per term and summed by a left fold of scalar sums, the
floor rules of scalar operations stated with ``max`` on Fractions, the
coefficient maps that ``CoefficientField.parts`` replaced: ``coerce`` into
a value of the field, then ``to_parts``, with ``is_zero`` on the value, and
the two loops that ``spectral._reduced`` replaced: structural reduction of
an echelon column and the rebasing of the image by lead coordinates.
"""

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence, Tuple

from novspec.complexes import Chain, FilteredComplex, PeriodLattice
from novspec.fields import COMPLEX, GAUSSIAN, RATIONAL, GaussianRational
from novspec.novikov import FloorValue, NovikovScalar
from novspec.polytope import (
    Facet,
    MomentPolytope,
    Point,
    Vector,
    active_facets,
    enumerate_vertices,
    int_det,
    parse_fiber,
    rational_inverse,
)
from novspec.records import NEG_INF
from novspec.spectral import STEP_BUDGET, _lead, _to_vec, _vec_cross, _vec_normalize


def unimodular_inverse_transpose(a: Sequence[Sequence[int]]) -> Tuple[Vector, ...]:
    """Exact A^{-T} for an integer matrix with det = +-1: adj(A)/det is integral."""
    det, inv = rational_inverse(a)
    if det not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det = {det})")
    return tuple(tuple(int(x) for x in col) for col in zip(*inv))


def apply_matrix(a: Sequence[Sequence[int]], vec: Sequence) -> tuple:
    return tuple(sum(a[r][c] * vec[c] for c in range(len(vec))) for r in range(len(a)))


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
    return apply_matrix(unimodular_inverse_transpose(a), parse_fiber(point))


def omega(lattice: PeriodLattice, vec: Iterable[int]) -> Fraction:
    """The area of the lattice vector ``vec``: its dot product with the periods."""
    vec = tuple(vec)
    if len(vec) != lattice.rank:
        raise ValueError("lattice vector has wrong length")
    return sum(
        (Fraction(n) * p for n, p in zip(vec, lattice.periods)), Fraction(0)
    )


def rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Positive generator of the group Z*a + Z*b inside Q."""
    a, b = abs(Fraction(a)), abs(Fraction(b))
    if a == 0:
        return b
    if b == 0:
        return a
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with a*x + b*y == g == gcd(a, b), g >= 0, by Euclid's
    recursion, one call per step: the values ``complexes._xgcd`` keeps."""
    if a == 0:
        if b == 0:
            return 0, 0, 0
        return (abs(b), 0, 1 if b > 0 else -1)
    g, x1, y1 = xgcd(b % a, a)
    return g, y1 - (b // a) * x1, x1


def level(chain: Chain, cx: FilteredComplex) -> FloorValue:
    """max over the support of valuation(coefficient) + action."""
    best = NEG_INF
    for gid, coeff in chain.items():
        if gid not in cx.index:
            raise KeyError(f"unknown generator id {gid!r}")
        v = coeff.valuation()
        if v == NEG_INF:
            continue
        cand = v + cx.generator(gid).action
        if cand > best:
            best = cand
    return best


def kushnirenko_bound(p: MomentPolytope) -> int:
    """n!·Vol(conv{v_j}) over the facet normals v_j of ``p``: the most
    isolated critical points its potential can have in the torus
    (Kushnirenko), so a search that certifies this many branes is complete.

    Each vertex of the polar {u : <u, v_j> >= -1} is a facet of conv{v_j},
    and ``active_facets`` names the normals on it.  A face's faces one
    dimension down are the inclusion-maximal proper intersections with
    facets.  Coned from the origin, the barycentric subdivision of the
    boundary triangulates conv{v_j}: one simplex per flag facet ⊃ … ⊃
    vertex, spanned by the faces' centroids, of volume |det| / n!.
    """
    normals = [f.normal for f in p.facets]
    polar = MomentPolytope(p.dim, tuple(Facet(v, Fraction(-1)) for v in normals))
    facets = [frozenset(active_facets(polar, w)) for w in enumerate_vertices(polar)]

    def flags(face):
        below = {face & g for g in facets} - {face, frozenset()}
        tops = [g for g in below if not any(g < h for h in below)]
        if not tops:
            return [[face]]
        return [[face, *rest] for g in tops for rest in flags(g)]

    total = Fraction(0)
    for facet in facets:
        for flag in flags(facet):
            # each centroid times its face's size, so that the rows are integers
            rows = [[sum(normals[j][i] for j in face) for i in range(p.dim)] for face in flag]
            total += Fraction(abs(int_det(rows)), math.prod(len(face) for face in flag))
    if total.denominator != 1:
        raise ValueError(f"normalized volume {total} is not an integer")
    return int(total)


def potential_monomials(w, x, floor) -> tuple:
    """x^{v_i} q^{w_i} for every facet term of the potential ``w``, cut at
    ``floor``: each power chain and each monomial starts from ``scale(1)``
    of its first factor, and each monomial is shifted, then truncated."""
    powers = {}
    for j, xj in enumerate(x):
        needed = {t.exponent[j] for t in w.terms if t.exponent[j]}
        for sign in (1, -1):
            top = max((sign * k for k in needed), default=0)
            if top <= 0:
                continue
            base = xj if sign > 0 else xj.invert(floor)
            out = base.scale(1)
            for k in range(1, top + 1):
                if k > 1:
                    out = out * base
                if sign * k in needed:
                    powers[j, sign * k] = out if floor == NEG_INF else out.truncate(floor)
    monos = []
    for term in w.terms:
        factors = [powers[j, k] for j, k in enumerate(term.exponent) if k]
        out = factors[0].scale(1) if factors else NovikovScalar.one(x[0].field)
        for factor in factors[1:]:
            out = out * factor
        out = out.shift(term.weight)
        monos.append(out if floor == NEG_INF else out.truncate(floor))
    return tuple(monos)


def fold_sum(field, terms, floor) -> NovikovScalar:
    """``zero(field, floor)`` plus the terms in order, one scalar sum at a time."""
    return sum(terms[1:], terms[0].truncate(floor)) if terms else NovikovScalar.zero(field, floor)


def potential_gradient(w, x, floor=NEG_INF) -> list:
    """y_j = sum_i v_ij x^{v_i} q^{w_i}: ``mono.scale(v_ij)`` per term, folded."""
    out = [[] for _ in range(w.dim)]
    for term, mono in zip(w.terms, potential_monomials(w, x, floor)):
        for j, vij in enumerate(term.exponent):
            if vij:
                out[j].append(mono.scale(vij))
    return [fold_sum(x[0].field, terms, floor) for terms in out]


def potential_hessian(w, x, floor=NEG_INF) -> list:
    """M_jk = sum_i v_ij v_ik x^{v_i} q^{w_i}, every entry scaled and folded."""
    mat = [[[] for _ in range(w.dim)] for _ in range(w.dim)]
    for term, mono in zip(w.terms, potential_monomials(w, x, floor)):
        for j, vij in enumerate(term.exponent):
            for k, vik in enumerate(term.exponent):
                if vij and vik:
                    mat[j][k].append(mono.scale(vij * vik))
    return [[fold_sum(x[0].field, terms, floor) for terms in row] for row in mat]


# -- floor rules: ``max`` of Fraction floors, first argument kept on a tie ----


def floor_bound(x: NovikovScalar) -> FloorValue:
    """Exponent every term of the true element lies at or below: the
    valuation, or the floor when nothing is known above it."""
    return x.valuation() if x.rows else x.floor


def product_floor(x: NovikovScalar, y: NovikovScalar) -> FloorValue:
    """max(floor_x + bound_y, floor_y + bound_x) over the finite sums."""
    floor = NEG_INF
    for a, b in ((x, y), (y, x)):
        if a.floor is not NEG_INF and (bound := floor_bound(b)) is not NEG_INF:
            floor = max(floor, a.floor + bound)
    return floor


def sum_floor(x: NovikovScalar, y: NovikovScalar) -> FloorValue:
    return max(x.floor, y.floor)


def truncate_floor(x: NovikovScalar, floor: FloorValue) -> FloorValue:
    return max(x.floor, floor)


def inverse_floor(x: NovikovScalar, floor: FloorValue) -> FloorValue:
    """max(f - 2*w0, floor) for a scalar of floor f and valuation w0."""
    implied = NEG_INF if x.floor is NEG_INF else x.floor - 2 * x.valuation()
    return max(implied, floor)


def shifted_floor(m: NovikovScalar, exp: Fraction, floor: FloorValue) -> FloorValue:
    """The floor of ``m.shift(exp).truncate(floor)``."""
    return max(m.floor if m.floor is NEG_INF else m.floor + exp, floor)


def weighted_sum_floor(pairs: list, floor: FloorValue) -> FloorValue:
    """The largest of ``floor`` and the floors of the (c, scalar) ``pairs``."""
    return max([floor, *(m.floor for _, m in pairs)])


# -- coefficient values, as ``coerce``, ``to_parts`` and ``is_zero`` took them --


def coerce(field, value):
    """Bring an int/Fraction/GaussianRational/complex into ``field``."""
    if field.mode == RATIONAL:
        if isinstance(value, (int, Rational)):
            return Fraction(value)
        raise ValueError(f"{value!r} is not rational")
    if field.mode == GAUSSIAN:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Rational)):
            return GaussianRational(value, 0)
        raise ValueError(f"{value!r} is not Gaussian rational")
    if isinstance(value, GaussianRational):
        return complex(value)
    if isinstance(value, (int, float, Rational)):
        return complex(float(value), 0.0)
    if isinstance(value, complex):
        return value
    raise ValueError(f"{value!r} is not a complex coefficient")


def is_zero(field, a) -> bool:
    if field.mode == COMPLEX:
        return abs(a) < field.eps
    return not a


def to_parts(field, a) -> tuple:
    """``(re, im, den)`` with ``a == (re + i*im) / den``."""
    if field.mode == RATIONAL:
        return a.numerator, 0, a.denominator
    if field.mode == GAUSSIAN:
        re, im = a.re, a.im
        den = math.lcm(re.denominator, im.denominator)
        return (re.numerator * (den // re.denominator),
                im.numerator * (den // im.denominator), den)
    return a.real, a.imag, 1


# -- the reduction loops, as ``Echelon.reduce`` and ``_lead_basis`` ran them --


def echelon_reduce(pivots: dict, v: dict, field) -> dict:
    """Cross-reduce ``v`` at its smallest coordinate while a pivot sits there."""
    v = dict(v)
    while v:
        p = min(v)
        if p not in pivots:
            return v
        v = _vec_normalize(_vec_cross(v, pivots[p], p), field)
    return v


def echelon_pivots(cx: FilteredComplex, sources: Sequence[str]) -> dict:
    """Pivot coordinate -> vector of the image of the columns of ``sources``."""
    pivots = {}
    for gid in sources:
        col = cx.column(gid)
        if col:
            v = echelon_reduce(pivots, _to_vec(cx, col), cx.field)
            if v:
                pivots[min(v)] = v
    return pivots


def lead_basis(pivots: dict, cx: FilteredComplex) -> dict:
    """Rebase the image so that lead coordinates are pairwise distinct."""
    basis = {}
    for p in sorted(pivots):
        v = pivots[p]
        steps = 0
        while v:
            coord, _ = _lead(v, cx)
            if coord not in basis:
                basis[coord] = v
                break
            v = _vec_normalize(_vec_cross(v, basis[coord], coord), cx.field)
            steps += 1
            if steps > STEP_BUDGET:
                raise RuntimeError("lead disambiguation exceeded step budget")
    return basis
