"""Reference constructions that the tests check novspec against.

No command runs these, so they live with the tests: products and
unimodular coordinate changes of moment polytopes, the area homomorphism
of a period lattice, the recursive extended gcd and the level of a chain.
"""

from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from novspec.complexes import Chain, FilteredComplex, PeriodLattice
from novspec.fields import NEG_INF
from novspec.novikov import FloorValue
from novspec.polytope import (
    Facet,
    MomentPolytope,
    Point,
    Vector,
    int_det,
    parse_fiber,
    rational_inverse,
)


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
