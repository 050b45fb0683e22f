"""Superpotential of a toric fiber over the Novikov field.

For a moment polytope with facets (v_i, c_i) and an interior fiber lam, the
potential is the finite sum

    W(x) = sum_i x^{v_i} * q^{w_i},        w_i = -r_i(lam) = -( <lam, v_i> - c_i ),

in brane coordinates x = (x_1, ..., x_n), each x_j a unit (valuation-zero)
Novikov scalar.  Exponents are in units of 2*pi (the symbolic scale of the
affine lengths), so every weight w_i is an exact negative rational on the
interior.

The logarithmic gradient y_j = x_j dW/dx_j = sum_i v_ij x^{v_i} q^{w_i} and
its logarithmic Hessian M_jk = sum_i v_ij v_ik x^{v_i} q^{w_i} drive the
critical-point machinery; the per-component leading strata (facets whose
weight attains the componentwise maximum) determine whether critical branes
can exist at the fiber at all.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .fields import CoefficientField
from .novikov import NovikovScalar, _above, _cut, _floor, _nonzero, _scalar, _top
from .polytope import MomentPolytope, Point, Vector, parse_fiber, point_str
from .records import NEG_INF, Frozen, floor_str, fraction_str


class PotentialTerm(Frozen):
    __slots__ = ("facet", "exponent", "weight")

    def to_json(self) -> dict:
        return {
            "facet": self.facet,
            "exponent": list(self.exponent),
            "weight": fraction_str(self.weight),
        }


class ComponentStratum(Frozen):
    __slots__ = ("component", "weight", "facets")

    @property
    def dominating(self) -> Optional[int]:
        # A single facet dominating one component forces y_j = unit * x^{v} + lower,
        # which has no unit zero: no critical branes at this fiber.
        return self.facets[0] if len(self.facets) == 1 else None

    def to_json(self) -> dict:
        return {
            "component": self.component,
            "weight": fraction_str(self.weight),
            "facets": list(self.facets),
        }


def _sum(field: CoefficientField, terms: Sequence[NovikovScalar], floor) -> NovikovScalar:
    """``zero(field, floor)`` plus the terms in order, as stored, without the zero."""
    return sum(terms[1:], terms[0].truncate(floor)) if terms else NovikovScalar.zero(field, floor)


def _shifted(m: NovikovScalar, exp: Fraction, floor) -> NovikovScalar:
    """``m.shift(exp).truncate(floor)``, shifted and cut in one pass."""
    grid = lcm(m.grid, exp.denominator)
    step, s = grid // m.grid, exp.numerator * (grid // exp.denominator)
    floor = _top(m.floor if m.floor is NEG_INF else m.floor + exp, _floor(floor))
    rows = [(e * step + s, re, im) for e, re, im in m.rows]
    return _scalar(m.field, floor, grid, m.den, _above(rows, _cut(floor, grid)))


def _weighted_sum(field: CoefficientField, pairs: list, floor) -> NovikovScalar:
    """The sum of ``c * m`` over the (nonzero int c, scalar m) ``pairs``, in
    one pass on the rows, stored as ``_sum`` of the scalars ``m.scale(c)``.

    Each row (a, b) scales to (a*c - b*0.0, a*0.0 + b*c) under the field's
    nonzero test, parts add in pair order, a sum that falls to zero drops
    its exponent so that a later term restarts it, and the floor is the
    largest of the terms' floors and ``floor``; so complex results keep
    every bit, signed zeros included.  The exact modes sum over the lcm of
    the denominators, and ``_scalar`` divides the content out.
    """
    if not pairs:
        return NovikovScalar.zero(field, floor)
    floor = _floor(floor)
    for _, m in pairs:
        floor = _top(floor, m.floor)
    grid = lcm(*(m.grid for _, m in pairs))
    den = lcm(*(m.den for _, m in pairs))
    exact, nonzero, acc = field.exact, _nonzero(field), {}
    for c, m in pairs:
        step = grid // m.grid
        if exact:
            c *= den // m.den
            rows = [(e * step, a * c, b * c) for e, a, b in m.rows]
        else:
            c = float(c)
            rows = [(e * step, re, im) for e, a, b in m.rows
                    if nonzero(re := a * c - b * 0.0, im := a * 0.0 + b * c)]
        for e, re, im in rows:
            if e in acc:
                s = acc[e]
                s[0] += re
                s[1] += im
                if not nonzero(s[0], s[1]):
                    del acc[e]
            else:
                acc[e] = [re, im]
    rows = [(e, re, im) for e, (re, im) in sorted(acc.items(), reverse=True)]
    return _scalar(field, floor, grid, den, _above(rows, _cut(floor, grid)))


class PotentialFunction:
    """The potential at one fiber, with exact weights and integer exponents."""

    def __init__(self, polytope: MomentPolytope, fiber) -> None:
        self.polytope = polytope
        self.fiber: Point = parse_fiber(fiber)
        values = polytope.values(self.fiber)  # r_i = <lam, v_i> - c_i
        bad = [i for i, v in enumerate(values) if v <= 0]
        if bad:
            raise ValueError(f"fiber is not interior: nonpositive value on facet(s) {bad}")
        self.dim = polytope.dim
        self.terms: Tuple[PotentialTerm, ...] = tuple(
            PotentialTerm(i, f.normal, -values[i]) for i, f in enumerate(polytope.facets)
        )
        self._memo = None  # ((x, floor), monomials) of the last point

    # -- scalar evaluation ---------------------------------------------------

    def _monomials(self, x: Sequence[NovikovScalar], floor) -> Tuple[NovikovScalar, ...]:
        """x^{v_i} q^{w_i} for every facet term, truncated at the working floor.

        Each x_j is inverted at most once and each needed power of x_j or
        x_j^{-1} is built once.  The last point's monomials are kept: the
        Hessian after a gradient at the same point reuses them.  The memo
        matches coordinates by identity, since equal floating scalars can
        still differ in the sign of a zero part.
        """
        key = (tuple(x), floor)
        if self._memo is not None:
            (last_x, last_floor), monos = self._memo
            if last_floor == floor and len(last_x) == len(x) and all(
                a is b for a, b in zip(last_x, x)
            ):
                return monos
        field = x[0].field
        exact, one = field.exact, field.one()
        powers = {}  # (j, k) -> x_j^k truncated at the floor
        for j, xj in enumerate(x):
            needed = {t.exponent[j] for t in self.terms if t.exponent[j]}
            for sign in (1, -1):
                top = max((sign * k for k in needed), default=0)
                if top <= 0:
                    continue
                base = xj if sign > 0 else xj.invert(floor)
                # 1 * base as a product stores it, signed zeros included; a copy when exact
                out = base if exact else base.scale(one)
                for k in range(1, top + 1):
                    if k > 1:
                        out = out * base
                    if sign * k in needed:
                        powers[j, sign * k] = out.truncate(floor)
        monos = []
        for term in self.terms:
            factors = [(k, powers[j, k]) for j, k in enumerate(term.exponent) if k]
            if not factors:
                out = NovikovScalar.one(field)
            else:  # x_j^{+-1} is already 1 * x_j^{+-1}, and scaling by one is idempotent
                k, out = factors[0]
                out = out if exact or abs(k) == 1 else out.scale(one)
            for _, factor in factors[1:]:
                out = out * factor
            monos.append(_shifted(out, term.weight, floor))
        monos = tuple(monos)
        self._memo = (key, monos)
        return monos

    def evaluate(self, x: Sequence[NovikovScalar], floor=NEG_INF) -> NovikovScalar:
        """W(x) = sum of x^{v_i} q^{w_i}; requires unit coordinates."""
        self._check_x(x)
        return _sum(x[0].field, self._monomials(x, floor), floor)

    def gradient(self, x: Sequence[NovikovScalar], floor=NEG_INF) -> List[NovikovScalar]:
        """Logarithmic gradient y_j = sum_i v_ij x^{v_i} q^{w_i}."""
        self._check_x(x)
        monos = list(zip(self.terms, self._monomials(x, floor)))
        return [_weighted_sum(x[0].field, [(t.exponent[j], m) for t, m in monos if t.exponent[j]],
                              floor) for j in range(self.dim)]

    def hessian(self, x: Sequence[NovikovScalar], floor=NEG_INF) -> List[List[NovikovScalar]]:
        """Logarithmic Hessian M_jk = sum_i v_ij v_ik x^{v_i} q^{w_i}."""
        self._check_x(x)
        monos = list(zip(self.terms, self._monomials(x, floor)))
        mat = [[None] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for k in range(j, self.dim):  # M_kj is M_jk, as one object
                pairs = [(t.exponent[j] * t.exponent[k], m) for t, m in monos
                         if t.exponent[j] and t.exponent[k]]
                mat[j][k] = mat[k][j] = _weighted_sum(x[0].field, pairs, floor)
        return mat

    def _check_x(self, x: Sequence[NovikovScalar]) -> None:
        if len(x) != self.dim:
            raise ValueError(f"expected {self.dim} brane coordinates, got {len(x)}")
        for j, xj in enumerate(x):
            if not (xj.rows and xj.rows[0][0] == 0):  # a unit leads at q^0
                raise ValueError(
                    f"brane coordinate {j} is not a unit (valuation {floor_str(xj.valuation())})"
                )

    # -- leading data ----------------------------------------------------

    @cached_property
    def strata(self) -> Tuple[ComponentStratum, ...]:
        """Per component j: the facets with v_ij != 0 attaining the maximal
        weight.  These terms dominate y_j; solving the system they cut out
        is the first-order critical-point condition."""
        out = []
        for j in range(self.dim):
            touching = [t for t in self.terms if t.exponent[j] != 0]
            if not touching:
                raise ValueError(f"no facet involves coordinate {j}; polytope is degenerate")
            top = max(t.weight for t in touching)
            facets = tuple(t.facet for t in touching if t.weight == top)
            out.append(ComponentStratum(j, top, facets))
        return tuple(out)

    @cached_property
    def leading_system(self) -> Tuple[Tuple[Tuple[int, Vector], ...], ...]:
        """The leading system, one equation sum_{i in I_j} v_ij x^{v_i} = 0
        per stratum j, as its ``(v_ij, v_i)`` pairs in facet order."""
        return tuple(
            tuple((self.terms[i].exponent[s.component], self.terms[i].exponent) for i in s.facets)
            for s in self.strata
        )

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "fiber": point_str(self.fiber),
            "polytope": self.polytope.to_json(),
            "terms": [t.to_json() for t in self.terms],
        }


def brane_from_constants(field: CoefficientField, values: Sequence) -> List[NovikovScalar]:
    """Constant (q-independent) unit brane coordinates from raw coefficients."""
    out = []
    for v in values:
        coeff = field.coerce(v)
        if field.is_zero(coeff):
            raise ValueError("brane coordinates must be nonzero")
        out.append(NovikovScalar.monomial(field, coeff, Fraction(0)))
    return out
