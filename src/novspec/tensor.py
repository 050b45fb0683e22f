"""Tensor products of filtered complexes and the spectral axiom checks.

Actions add, degrees add, and the differential follows the Koszul rule
d(x (x) y) = dx (x) y + (-1)^{deg x} x (x) dy.  The period lattice of
the product is the direct sum, so spectrality survives on both sides.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .complexes import (
    Chain,
    FilteredComplex,
    OrbitGenerator,
    PeriodLattice,
    level,
)
from .fields import NEG_INF, floor_str
from .novikov import NovikovScalar
from .spectral import homology_rank, spectral_number, spectrum


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
    minus_one = field.coerce(-1)
    differential: Dict[Tuple[str, str], NovikovScalar] = {}
    for (src, dst), coeff in c0.entries.items():
        for g1 in c1.generators:
            differential[(pair_id(src, g1.id), pair_id(dst, g1.id))] = coeff
    for (src, dst), coeff in c1.entries.items():
        for g0 in c0.generators:
            signed = coeff if g0.degree % 2 == 0 else coeff.scale(minus_one)
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


def verify_spectral_axioms(
    c0: FilteredComplex,
    c1: FilteredComplex,
    classes0: Iterable[Chain],
    classes1: Iterable[Chain],
    shifts: Iterable[NovikovScalar] = (),
) -> dict:
    """Spectrality, shift, tensor additivity and Kunneth rank checks on
    given cycles.

    Returns a report dict with one entry per check and an ``all_pass``
    flag.  Cycles whose class vanishes are exercised through the
    additivity law only (a boundary tensor anything stays a boundary).
    """
    classes0 = list(classes0)
    classes1 = list(classes1)
    shifts = list(shifts)
    report: dict = {"spectrality": [], "shift": [], "additivity": []}
    ok = True

    results = []
    for tag, cx, classes in (("c0", c0, classes0), ("c1", c1, classes1)):
        spec = spectrum(cx)
        per_cx = []
        for k, z in enumerate(classes):
            res = spectral_number(cx, z)
            per_cx.append(res)
            if not res.is_boundary:
                member = spec.contains(res.value) and res.spectrality is not None
                witness_ok = res.witness_cycle is not None and level(
                    res.witness_cycle, cx
                ) == res.value
                report["spectrality"].append(
                    {
                        "complex": tag,
                        "class": k,
                        "value": floor_str(res.value),
                        "in_spectrum": member,
                        "witness_attains": witness_ok,
                    }
                )
                ok = ok and member and witness_ok
            for s, lam in enumerate(shifts):
                if lam.is_zero():
                    continue
                shifted = {gid: coeff * lam for gid, coeff in z.items()}
                res_l = spectral_number(cx, shifted)
                if res.is_boundary:
                    good = res_l.is_boundary
                else:
                    good = res_l.value == res.value + lam.valuation()
                report["shift"].append(
                    {
                        "complex": tag,
                        "class": k,
                        "shift": s,
                        "holds": good,
                    }
                )
                ok = ok and good
        results.append(per_cx)

    product = tensor_product(c0, c1)
    for i, z0 in enumerate(classes0):
        for j, z1 in enumerate(classes1):
            z01 = tensor_chain(z0, z1)
            res01 = spectral_number(product, z01)
            v0 = results[0][i].value
            v1 = results[1][j].value
            if v0 == NEG_INF or v1 == NEG_INF:
                expected = NEG_INF
            else:
                expected = v0 + v1
            good = res01.value == expected
            report["additivity"].append(
                {
                    "pair": [i, j],
                    "value": floor_str(res01.value),
                    "expected": floor_str(expected),
                    "holds": good,
                }
            )
            ok = ok and good

    r0 = homology_rank(c0)
    r1 = homology_rank(c1)
    if all(isinstance(k, int) for k in r0) and all(
        isinstance(k, int) for k in r1
    ):
        expected_ranks = kunneth_ranks(r0, r1)
        got = {k: v for k, v in homology_rank(product).items() if v}
        good = got == expected_ranks
        report["kunneth"] = {
            "expected": {str(k): v for k, v in sorted(expected_ranks.items())},
            "got": {str(k): v for k, v in sorted(got.items())},
            "holds": good,
        }
        ok = ok and good
    else:
        report["kunneth"] = {"skipped": "complex is not integer graded"}

    report["all_pass"] = ok
    return report
