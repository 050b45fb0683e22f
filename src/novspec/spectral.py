"""Exact homological algebra over the Novikov field.

Everything here is elimination on sparse columns whose entries are
finite Novikov sums.  Two reduction notions coexist:

* structural reduction (smallest nonzero coordinate first), used for
  ranks and membership in the image of the differential, and
* lead reduction, where the lead of a vector is the coordinate
  realizing the largest level (valuation plus action), ties broken by
  the order generators are listed.

Both use cross-multiplication only, so exact modes never leave the
group algebra of finite sums; pivot divisions happen once at the end,
when a witness representative is produced.

The spectral number of a nonzero class is computed by reducing a
representative against an image basis whose leads are pairwise
distinct.  For such a basis the level of any combination splits as
max(valuation of coefficient + level of basis vector), which makes the
terminal level of the reduction the infimum over the class, and the
reduced vector a representative attaining it.  Exact cycles (class
zero) are detected first by structural membership, since lead
reduction need not terminate on them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from .complexes import Chain, FilteredComplex, chain_to_json
from .fields import CoefficientField
from .novikov import NovikovScalar, _by_term, _nonzero, _regrid, _scalar
from .records import NEG_INF, Frozen, Record, floor_str, fraction_str

Vec = Dict[int, NovikovScalar]

STEP_BUDGET = 200_000
WITNESS_DEPTH = Fraction(16)


# -- vector helpers ------------------------------------------------------


def _to_vec(cx: FilteredComplex, chain: Chain) -> Vec:
    out: Vec = {}
    for gid, coeff in chain.items():
        if gid not in cx.index:
            raise ValueError(f"unknown generator id {gid!r}")
        if not coeff.is_zero():
            out[cx.index[gid]] = coeff
    return out

def _to_chain(cx: FilteredComplex, vec: Vec) -> Chain:
    return {cx.generators[i].id: c for i, c in vec.items() if not c.is_zero()}


def _vec_sub_scaled(v: Vec, b: Vec, s: NovikovScalar, drop: int) -> Vec:
    """v - s*b with coordinate ``drop`` removed explicitly."""
    out = dict(v)
    for i, c in b.items():
        term = c * s
        out[i] = out[i] - term if i in out else -term
    out.pop(drop, None)
    return {i: c for i, c in out.items() if not c.is_zero()}


def _vec_cross(v: Vec, b: Vec, coord: int) -> Vec:
    """b[coord]*v - v[coord]*b; kills coordinate coord, no division."""
    bc = b[coord]
    return _vec_sub_scaled({i: c * bc for i, c in v.items()}, b, v[coord], coord)


def _vec_normalize(v: Vec, field: CoefficientField) -> Vec:
    """Divide by a unit (content times a monomial); spans are unchanged.

    Each coordinate is ``s.scale(factor).shift(-e/grid)``, for the factor
    split once into parts and the shift folded into the row exponents; an
    exact vector whose unit is 1 comes back as it is."""
    e, grid = 0, 0  # the largest valuation e/grid, by cross-multiplication
    for s in v.values():
        if s.rows and (not grid or s.rows[0][0] * grid > e * s.grid):
            e, grid = s.rows[0][0], s.grid
    if not grid:  # every coordinate is zero
        return v
    if field.exact:
        # The content of a canonical scalar is gcd(numerators) / den, so the
        # factor den / num of the canonical coordinates is in lowest terms.
        num = gcd(*[x for s in v.values() for _, re, im in s.rows for x in (re, im)])
        den = lcm(*[s.den for s in v.values()])
        if num == den and not e:
            return v
        c, d, cden = den, 0, num
    else:
        c, d, cden = 1.0 / max(m for s in v.values() for m in s.magnitudes()), 0.0, 1
    g = gcd(e, grid)
    e, grid = e // g, grid // g
    nonzero, out = _nonzero(field), {}
    for i, s in v.items():
        fine = lcm(s.grid, grid)
        rows = _by_term(_regrid(s.rows, fine // s.grid), (-e * (fine // grid), c, d), None, nonzero)
        floor = s.floor if s.floor is NEG_INF else s.floor - Fraction(e, grid)
        out[i] = _scalar(field, floor, fine, s.den * cden, rows)
    return out


# -- structural echelon ----------------------------------------------------


class Echelon(Record):
    """Column echelon data: pivot coordinate -> vector."""

    __slots__ = ("field", "pivots", "audit")

    def __init__(self, field: CoefficientField):
        self.field = field
        self.pivots: Dict[int, Vec] = {}
        self.audit: List[dict] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, v: Vec) -> Vec:
        """Structural reduction; result empty iff v lies in the span."""
        v = dict(v)
        while v:
            p = min(v)
            if p not in self.pivots:
                return v
            v = _vec_normalize(_vec_cross(v, self.pivots[p], p), self.field)
        return v

    def insert(self, v: Vec, label: Optional[str] = None) -> bool:
        """Add a column; returns True if it enlarged the span."""
        v = self.reduce(v)
        if not v:
            return False
        p = min(v)
        if self.field.mode == "complex":
            mag = abs(v[p].lead())
            scale = max(m for s in v.values() for m in s.magnitudes())
            if mag < 10 * self.field.eps * scale:
                self.audit.append(
                    {
                        "coordinate": p,
                        "label": label,
                        "pivot_magnitude": mag,
                        "threshold": 10 * self.field.eps * scale,
                    }
                )
        self.pivots[p] = v
        return True


def echelon_from_columns(
    cx: FilteredComplex, sources: Optional[List[str]] = None
) -> Echelon:
    """Echelon of the differential image restricted to given sources."""
    ech = Echelon(cx.field)
    if sources is None:
        sources = [g.id for g in cx.generators]
    for gid in sources:
        col = cx.column(gid)
        if col:
            ech.insert(_to_vec(cx, col), label=gid)
    return ech


# -- homology ranks ---------------------------------------------------------


def homology_report(cx: FilteredComplex) -> dict:
    """Ranks of homology over the Novikov field, by degree.

    When every differential entry drops degree by exactly one the
    report is integer graded; otherwise degrees only make sense mod 2.
    rank H_k = dim C_k - rank D_k - rank D_{k+1}.
    """
    integer = cx.degrees_strictly_graded()

    def grade(degree: int) -> int:
        return degree if integer else degree % 2

    grades = sorted({g.degree for g in cx.generators}) if integer else [0, 1]
    audit: List[dict] = []
    rank_d = {}
    for k in grades:
        ech = echelon_from_columns(
            cx, [g.id for g in cx.generators if grade(g.degree) == k]
        )
        rank_d[k] = ech.rank
        audit.extend(ech.audit)
    dims = Counter(grade(g.degree) for g in cx.generators)
    names = {k: str(k) for k in grades} if integer else {0: "even", 1: "odd"}
    ranks = {names[k]: dims[k] - rank_d[k] - rank_d.get(grade(k + 1), 0) for k in grades}
    return {
        "graded": "integer" if integer else "mod2",
        "ranks": ranks,
        "total": sum(ranks.values()),
        "pivot_audit": audit,
    }


def homology_rank(cx: FilteredComplex) -> dict:
    """Degree -> rank mapping (keys are ints or 'even'/'odd')."""
    report = homology_report(cx)
    if report["graded"] == "integer":
        return {int(k): v for k, v in report["ranks"].items()}
    return dict(report["ranks"])


# -- spectrum ----------------------------------------------------------------


class Spectrum(Frozen):
    """Action spectrum: base action values plus the period group."""

    __slots__ = ("base_actions", "generator")  # generator of omega(Gamma): positive, 0 if trivial

    def contains(self, value) -> bool:
        if value == NEG_INF:
            return False
        value = Fraction(value)
        for base in self.base_actions:
            diff = value - base
            if self.generator == 0:
                if diff == 0:
                    return True
            elif (diff / self.generator).denominator == 1:
                return True
        return False

    def to_json(self) -> dict:
        return {
            "base_actions": [fraction_str(a) for a in self.base_actions],
            "period_group_generator": fraction_str(self.generator),
        }


def spectrum(cx: FilteredComplex) -> Spectrum:
    den = cx.action_den
    actions = tuple(Fraction(n, den) for n in sorted(set(cx.action_nums)))
    return Spectrum(actions, cx.lattice.group_generator())


# -- spectral numbers ---------------------------------------------------------


class SpectralResult(Record):
    """Outcome of a spectral number computation.

    value is the minimal level over representatives of the class, or
    -inf when the class vanishes (an exact cycle); witness_cycle is a
    representative attaining the value; spectrality names a generator
    and lattice vector with action(generator) - omega(vector) == value.
    """

    __slots__ = ("value", "witness_cycle", "spectrality")

    @property
    def is_boundary(self) -> bool:
        return self.value == NEG_INF

    def to_json(self) -> dict:
        return {
            "value": floor_str(self.value),
            "witness_cycle": None
            if self.witness_cycle is None
            else chain_to_json(self.witness_cycle),
            "spectrality": None
            if self.spectrality is None
            else {
                "generator": self.spectrality[0],
                "lattice_vector": list(self.spectrality[1]),
            },
        }


def _lead(vec: Vec, cx: FilteredComplex) -> Tuple[int, Tuple[int, int]]:
    """Coordinate realizing the level, smallest index among the argmax, and
    that level as (numerator, denominator); levels compare on integers."""
    nums, den = cx.action_nums, cx.action_den
    best_coord, best_num, best_grid = -1, 0, 1
    for i in sorted(vec):
        rows, grid = vec[i].rows, vec[i].grid
        if not rows:
            continue
        # e/grid + action = num / (grid*den), and den is common
        num = rows[0][0] * den + nums[i] * grid
        if best_coord < 0 or num * best_grid > best_num * grid:
            best_coord, best_num, best_grid = i, num, grid
    if best_coord < 0:
        raise ValueError("zero vector has no lead")
    return best_coord, (best_num, best_grid * den)


def _lead_basis(ech: Echelon, cx: FilteredComplex) -> Dict[int, Vec]:
    """Rebase the image so that lead coordinates are pairwise distinct."""
    basis: Dict[int, Vec] = {}
    for p in sorted(ech.pivots):
        v = ech.pivots[p]
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
        # v empty cannot happen: echelon vectors stay independent
    return basis


def spectral_number(cx: FilteredComplex, chain: Chain) -> SpectralResult:
    """Minimal level over all representatives of the class of ``chain``.

    The chain must be closed (differential zero down to the floor).
    Boundaries report value -inf.  In exact modes the value, witness
    and spectrality data are exact.
    """
    boundary = cx.apply_differential(chain)
    if boundary:
        raise ValueError(
            f"chain is not closed: differential hits {sorted(boundary)}"
        )
    z = _to_vec(cx, chain)
    ech = echelon_from_columns(cx)
    if not ech.reduce(z):
        return SpectralResult(NEG_INF, None, None)

    basis = _lead_basis(ech, cx)

    field = cx.field
    v = dict(z)
    multiplier = NovikovScalar.one(field)
    steps = 0
    while True:
        coord, _ = _lead(v, cx)
        if coord not in basis:
            break
        b = basis[coord]
        bc = b[coord]
        if bc.is_monomial():
            ratio = v[coord] * bc.invert()
            v = _vec_sub_scaled(v, b, ratio, coord)
        else:
            v = _vec_cross(v, b, coord)
            multiplier = multiplier * bc
            if multiplier.is_monomial():
                inv = multiplier.invert()
                v = {i: c * inv for i, c in v.items()}
                multiplier = NovikovScalar.one(field)
        if not v:
            raise RuntimeError(
                "membership said nonzero class but reduction emptied the "
                "representative; complex data is inconsistent"
            )
        steps += 1
        if steps > STEP_BUDGET:
            raise RuntimeError("spectral reduction exceeded step budget")

    mult_val = multiplier.valuation()
    value = Fraction(*_lead(v, cx)[1]) - mult_val

    # The multiplier is still one when every pivot was a monomial.
    inv = None if multiplier.is_monomial() else multiplier.invert(-mult_val - WITNESS_DEPTH)
    scaled = {i: c.scale(field.one()) if inv is None else c * inv for i, c in v.items()}
    witness = _to_chain(cx, scaled)

    spectrality = None
    for g in cx.generators:
        sol = cx.lattice.solve(g.action - value)
        if sol is not None:
            spectrality = (g.id, sol)
            break

    return SpectralResult(value, witness, spectrality)
