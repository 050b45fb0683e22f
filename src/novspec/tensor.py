"""Tensor products of filtered complexes and Kunneth rank convolution.

Actions add, degrees add, and the differential follows the Koszul rule
d(x (x) y) = dx (x) y + (-1)^{deg x} x (x) dy.  The period lattice of
the product is the direct sum, so spectrality survives on both sides.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .complexes import Chain, FilteredComplex, OrbitGenerator, PeriodLattice
from .novikov import NovikovScalar


def pair_id(id0: str, id1: str) -> str:
    return f"({id0},{id1})"


def tensor_product(c0: FilteredComplex, c1: FilteredComplex) -> FilteredComplex:
    c0.field.check_compatible(c1.field)
    field = c0.field
    lattice = PeriodLattice(c0.lattice.periods + c1.lattice.periods)
    generators = []
    for g0 in c0.generators:
        for g1 in c1.generators:
            generators.append(
                OrbitGenerator(
                    pair_id(g0.id, g1.id),
                    g0.action + g1.action,
                    g0.degree + g1.degree,
                )
            )
    differential: Dict[Tuple[str, str], NovikovScalar] = {}
    for (src, dst), coeff in c0.entries.items():
        for g1 in c1.generators:
            differential[(pair_id(src, g1.id), pair_id(dst, g1.id))] = coeff
    for (src, dst), coeff in c1.entries.items():
        for g0 in c0.generators:
            signed = coeff if g0.degree % 2 == 0 else coeff.scale(-1)
            differential[(pair_id(g0.id, src), pair_id(g0.id, dst))] = signed
    floor = max(c0.floor, c1.floor)
    return FilteredComplex(field, lattice, generators, differential, floor)


def tensor_chain(z0: Chain, z1: Chain) -> Chain:
    out: Chain = {}
    for id0, a0 in z0.items():
        for id1, a1 in z1.items():
            prod = a0 * a1
            if not prod.is_zero():
                out[pair_id(id0, id1)] = prod
    return out


def kunneth_ranks(r0: Dict[int, int], r1: Dict[int, int]) -> Dict[int, int]:
    """Graded convolution of integer-graded rank tables."""
    out: Dict[int, int] = {}
    for i, a in r0.items():
        for j, b in r1.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return {k: v for k, v in out.items() if v}
