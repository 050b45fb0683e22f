"""Koszul model of the quasimap Floer complex of a toric brane.

The chain group is the exterior algebra on n generators, with basis e_S
indexed by subsets S of {1..n}; the differential is contraction by the
logarithmic gradient y of the potential at the brane:

    m1(e_S) = sum_{t} (-1)^{t-1} * y_{s_t} * e_{S - s_t},    S = {s_1 < ... < s_k}.

Contraction squares to zero for any y, the generator e_ (empty set, the
analog of the unique maximum point of the torus) is always closed and
represents the unit class, and homology obeys a dichotomy over the Novikov
field: rank 2^n when every y_j vanishes to the working floor, rank 0 as
soon as some y_j is nonzero (any nonzero scalar is invertible).  The model
is built once as a filtered complex and its rank is computed honestly by
the general homology engine; the dichotomy is asserted against it.

This is an algebraic model: the differential here replaces holomorphic-disk
counts, and rank statements are claims about this model only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .complexes import FilteredComplex, OrbitGenerator, PeriodLattice
from .fields import CoefficientField
from .novikov import NovikovScalar
from .potential import PotentialFunction
from .records import NEG_INF, floor_str
from .spectral import echelon_from_columns, homology_rank


def _subset_name(mask: int) -> str:
    if mask == 0:
        return "e"
    parts = [str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1]
    return "e_" + "_".join(parts)


def koszul_complex(
    field: CoefficientField, y: Sequence[NovikovScalar], floor=NEG_INF
) -> FilteredComplex:
    """Contraction by y as a filtered complex: e_S has action 0 and degree
    |S|, and the periods are the exponents of y truncated at the floor."""
    y = [yj.truncate(floor) for yj in y]
    periods = {Fraction(e, yj.grid) for yj in y for e, _, _ in yj.rows} - {0}
    names = [_subset_name(mask) for mask in range(1 << len(y))]
    gens = [
        OrbitGenerator(name, Fraction(0), bin(mask).count("1"))
        for mask, name in enumerate(names)
    ]
    differential = {}
    for mask, name in enumerate(names):
        position = 0
        for j, yj in enumerate(y):
            if not mask >> j & 1:
                continue
            position += 1
            if not yj.is_zero():
                differential[(name, names[mask & ~(1 << j)])] = yj if position % 2 else -yj
    lattice = PeriodLattice(tuple(sorted(periods)))
    return FilteredComplex(field, lattice, gens, differential, floor)


def build_cqf(
    w: PotentialFunction,
    x: Sequence[NovikovScalar],
    floor,
) -> FilteredComplex:
    """Quasimap complex of the brane x at the potential's fiber.

    y_j = x_j dW/dx_j evaluated at x; unit coordinates required.
    """
    return koszul_complex(x[0].field, w.gradient(x, floor), floor)


def hqf_report(cx: FilteredComplex) -> dict:
    """Homology rank plus the leading data of the gradient ideal.

    The rank is computed by the general homology engine and cross-checked
    against the Koszul dichotomy: 2^n when all y_j vanish to the floor, 0
    otherwise.  y_j is read back as the coefficient of e in d(e_j).
    """
    n = len(cx.generators).bit_length() - 1
    zero = NovikovScalar.zero(cx.field)
    y = [cx.column(_subset_name(1 << j)).get("e", zero) for j in range(n)]
    ranks = homology_rank(cx)
    total = sum(ranks.values())
    expected = (1 << n) if all(yj.is_zero() for yj in y) else 0
    if total != expected:
        raise AssertionError(
            f"Koszul dichotomy violated: computed rank {total}, expected {expected}"
        )
    ideal = []
    for j, yj in enumerate(y):
        leading = None
        if yj.rows:
            _, re, im = yj.rows[0]
            leading = cx.field.parts_to_json(re, im, yj.den)
        ideal.append({"component": j, "valuation": floor_str(yj.valuation()), "leading": leading})
    return {
        "rank": total,
        "ranks_by_degree": {str(k): v for k, v in sorted(ranks.items())},
        "ideal": ideal,
        "floor": floor_str(cx.floor),
    }


def unit_in_homology(cx: FilteredComplex) -> bool:
    """Whether the unit class is nonzero in homology, decided by an image
    membership test."""
    unit_vec = {cx.index["e"]: NovikovScalar.one(cx.field)}
    return bool(echelon_from_columns(cx).reduce(unit_vec))
