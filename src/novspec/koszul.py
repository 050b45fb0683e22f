"""Koszul model of the quasimap Floer complex of a toric brane.

The chain group is the exterior algebra on n generators, with basis e_S
indexed by subsets S of {1..n}; the differential is contraction by the
logarithmic gradient y of the potential at the brane:

    m1(e_S) = sum_{t} (-1)^{t-1} * y_{s_t} * e_{S - s_t},    S = {s_1 < ... < s_k}.

Contraction squares to zero for any y, the generator e_ (empty set, the
analog of the unique maximum point of the torus) is always closed and
represents the unit class, and homology obeys a dichotomy over the Novikov
field: rank 2^n when every y_j vanishes to the working floor, rank 0 as
soon as some y_j is nonzero (any nonzero scalar is invertible).  The rank
is nevertheless computed honestly, by exporting the complex in the filtered
format and running the general homology engine; the dichotomy is asserted
against it.

This is an algebraic model: the differential here replaces holomorphic-disk
counts, and rank statements are claims about this model only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence

from .complexes import Chain, FilteredComplex, OrbitGenerator, PeriodLattice
from .fields import NEG_INF, CoefficientField, floor_str
from .novikov import NovikovScalar
from .potential import PotentialFunction
from .spectral import echelon_from_columns, homology_rank


def _subset_name(mask: int) -> str:
    if mask == 0:
        return "e"
    parts = [str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1]
    return "e_" + "_".join(parts)


class QuasimapComplex:
    """Exterior algebra on n generators with contraction differential."""

    def __init__(
        self,
        field: CoefficientField,
        y: Sequence[NovikovScalar],
        floor=NEG_INF,
    ) -> None:
        self.field = field
        self.n = len(y)
        self.floor = floor
        self.y = [yj.truncate(floor) for yj in y]
        self.names = [_subset_name(mask) for mask in range(1 << self.n)]

    def m1(self, chain: Chain) -> Chain:
        """Contraction differential on a chain keyed by subset names."""
        name_to_mask = {name: mask for mask, name in enumerate(self.names)}
        out: Dict[str, NovikovScalar] = {}
        for name, coeff in chain.items():
            mask = name_to_mask[name]
            position = 0
            for j in range(self.n):
                if not mask >> j & 1:
                    continue
                position += 1
                if self.y[j].is_zero():
                    continue
                entry = self.y[j] if position % 2 else -self.y[j]
                target = self.names[mask & ~(1 << j)]
                term = coeff * entry
                if target in out:
                    term = out[target] + term
                if term.is_zero():
                    out.pop(target, None)
                else:
                    out[target] = term
        return out

    def export_complex(self) -> FilteredComplex:
        """The same data in the general filtered format: every generator has
        action 0 and degree |S|, and periods are the exponents of y."""
        periods = []
        for yj in self.y:
            for e, _, _ in yj.rows:
                exp = Fraction(e, yj.grid)
                if exp != 0 and exp not in periods:
                    periods.append(exp)
        lattice = PeriodLattice(tuple(sorted(periods)))
        gens = [
            OrbitGenerator(self.names[mask], Fraction(0), bin(mask).count("1"))
            for mask in range(1 << self.n)
        ]
        differential = {}
        for mask in range(1 << self.n):
            src = self.names[mask]
            column = self.m1({src: NovikovScalar.one(self.field)})
            for dst, coeff in column.items():
                differential[(src, dst)] = coeff
        return FilteredComplex(self.field, lattice, gens, differential, self.floor)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "floor": floor_str(self.floor),
            "field": self.field.to_json(),
            "y": [yj.to_json() for yj in self.y],
        }


def build_cqf(
    w: PotentialFunction,
    x: Sequence[NovikovScalar],
    floor,
) -> QuasimapComplex:
    """Quasimap complex of the brane x at the potential's fiber.

    y_j = x_j dW/dx_j evaluated at x; unit coordinates required.
    """
    field = x[0].field
    y = w.gradient(x, floor)
    return QuasimapComplex(field, y, floor)


def hqf_report(c: QuasimapComplex) -> dict:
    """Homology rank plus the leading data of the gradient ideal.

    The rank is computed by the general homology engine on the exported
    filtered complex and cross-checked against the Koszul dichotomy:
    2^n when all y_j vanish to the floor, 0 otherwise.
    """
    exported = c.export_complex()
    ranks = homology_rank(exported)
    total = sum(ranks.values())
    expected = (1 << c.n) if all(yj.is_zero() for yj in c.y) else 0
    if total != expected:
        raise AssertionError(
            f"Koszul dichotomy violated: computed rank {total}, expected {expected}"
        )
    ideal = []
    for j, yj in enumerate(c.y):
        leading = None
        if yj.rows:
            _, re, im = yj.rows[0]
            leading = c.field.parts_to_json(re, im, yj.den)
        ideal.append({"component": j, "valuation": floor_str(yj.valuation()), "leading": leading})
    return {
        "rank": total,
        "ranks_by_degree": {str(k): v for k, v in sorted(ranks.items())},
        "ideal": ideal,
        "floor": floor_str(c.floor),
    }


def hqf_rank(c: QuasimapComplex) -> int:
    return hqf_report(c)["rank"]


def unit_in_homology(c: QuasimapComplex) -> bool:
    """Whether the unit class is nonzero in homology, decided by an image
    membership test in the exported complex."""
    exported = c.export_complex()
    ech = echelon_from_columns(exported)
    unit_vec = {exported.index["e"]: NovikovScalar.one(c.field)}
    return bool(ech.reduce(unit_vec))


def central_charge(w: PotentialFunction, x: Sequence[NovikovScalar], floor=NEG_INF) -> NovikovScalar:
    """W evaluated at the brane (the curvature scalar of the model)."""
    return w.evaluate(x, floor)
