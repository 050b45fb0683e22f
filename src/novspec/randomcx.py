"""Seeded generators of valid filtered complexes and cycles.

A random complex is a direct sum of elementary pairs (one arrow x -> y
dropping degree and action) and free generators, conjugated by a random
unipotent filtered automorphism.  This keeps delta^2 = 0 exact, keeps
every differential exponent inside the period group, and leaves the
homology ranks readable off the construction (one class per free
generator).
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .complexes import (
    Chain,
    FilteredComplex,
    OrbitGenerator,
    PeriodLattice,
    chain_add,
    chain_scale,
)
from .fields import CoefficientField, GaussianRational
from .novikov import NovikovScalar
from .records import Record


def random_coefficient(rng: random.Random, field: CoefficientField):
    def frac():
        value = Fraction(rng.randint(1, 5), rng.choice([1, 2, 3]))
        return value if rng.random() < 0.5 else -value

    if field.mode == "rational":
        return frac()
    if field.mode == "gaussian":
        if rng.random() < 0.3:
            return GaussianRational(frac(), frac())
        return GaussianRational(frac(), 0)
    return complex(rng.uniform(-2, 2) or 1.0, rng.uniform(-2, 2))


def random_scalar(
    rng: random.Random,
    field: CoefficientField,
    lattice: PeriodLattice,
) -> NovikovScalar:
    """Nonzero scalar of one or two terms whose exponents lie in the period
    group, at most six steps of its generator from 0."""
    g = lattice.group_generator()
    terms = []
    seen = set()
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(-6, 6)
        exp = g * k if g else Fraction(0)
        if exp in seen:
            continue
        seen.add(exp)
        terms.append((exp, random_coefficient(rng, field)))
    return NovikovScalar(field, terms)


def _period_exponent_below(
    rng: random.Random, gen: Fraction, bound: Fraction
) -> Optional[Fraction]:
    """Random element of the period group strictly below ``bound``."""
    if gen == 0:
        return Fraction(0) if bound > 0 else None
    top = bound / gen
    k_max = -(-top.numerator // top.denominator) - 1  # ceil - 1
    k = rng.randint(k_max - 4, k_max)
    return gen * k


def _apply(columns: Dict[str, Chain], chain: Chain) -> Chain:
    """The chain a linear map sends ``chain`` to, the map given by the image
    of each generator."""
    out: Chain = {}
    for gid, coeff in chain.items():
        out = chain_add(out, chain_scale(columns[gid], coeff))
    return out


class RandomComplexData(Record):
    """A generated complex plus the bookkeeping the suites read: the ids of
    its free generators (one homology class each), the (source, target)
    arrows of its elementary pairs, and the unipotent automorphism that
    conjugated the direct sum into it (the image of each generator)."""

    __slots__ = ("complex", "free_ids", "matched", "automorphism")

    def expected_ranks(self) -> Dict[int, int]:
        return dict(Counter(self.complex.generator(gid).degree for gid in self.free_ids))

    def random_cycle(
        self, rng: random.Random, boundary: bool = False
    ) -> Optional[Chain]:
        """A closed chain: a conjugated free combination, or a boundary."""
        cx = self.complex
        if boundary:
            sources = [src for src, _ in self.matched]
            if not sources:
                return None
            chain: Chain = {}
            for src in sources:
                if rng.random() < 0.6:
                    lam = random_scalar(rng, cx.field, cx.lattice)
                    chain = chain_add(chain, chain_scale(cx.column(src), lam))
            if not chain:
                src = rng.choice(sources)
                chain = cx.column(src)
            return chain
        if not self.free_ids:
            return None
        chain = {}
        for gid in self.free_ids:
            if rng.random() < 0.7:
                chain[gid] = random_scalar(rng, cx.field, cx.lattice)
        if not chain:
            gid = rng.choice(self.free_ids)
            chain[gid] = random_scalar(rng, cx.field, cx.lattice)
        return _apply(self.automorphism, chain)


def random_complex(
    rng: random.Random,
    field: Optional[CoefficientField] = None,
    max_generators: int = 8,
    max_lattice_rank: int = 2,
    conjugate: bool = True,
) -> RandomComplexData:
    field = field or CoefficientField("rational")
    rank = rng.randint(0, max_lattice_rank)
    periods = tuple(
        Fraction(rng.randint(1, 4), rng.choice([1, 2, 4])) for _ in range(rank)
    )
    lattice = PeriodLattice(periods)
    group_gen = lattice.group_generator()

    n = rng.randint(2, max_generators)
    generators = [
        OrbitGenerator(
            f"x{i}", Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4])), rng.randint(0, 2)
        )
        for i in range(n)
    ]

    # Elementary pairing: each generator belongs to at most one arrow.
    order = list(range(n))
    rng.shuffle(order)
    matched: List[Tuple[str, str]] = []
    used = set()
    differential: Dict[Tuple[str, str], NovikovScalar] = {}
    for i in order:
        if i in used:
            continue
        src = generators[i]
        candidates = [
            j
            for j in order
            if j not in used
            and j != i
            and generators[j].degree == src.degree - 1
        ]
        rng.shuffle(candidates)
        for j in candidates:
            if rng.random() < 0.25:
                continue
            dst = generators[j]
            exp = _period_exponent_below(rng, group_gen, src.action - dst.action)
            if exp is None:
                continue
            coeff = NovikovScalar.monomial(
                field, random_coefficient(rng, field), exp
            )
            differential[(src.id, dst.id)] = coeff
            matched.append((src.id, dst.id))
            used.add(i)
            used.add(j)
            break

    free_ids = [generators[i].id for i in range(n) if i not in used]
    cx = FilteredComplex(field, lattice, generators, differential)

    # Unipotent filtered conjugation mixes the direct sum while keeping
    # delta^2 = 0, strict action drops, and exponents in the lattice.
    automorphism: Dict[str, Chain] = {
        g.id: {g.id: NovikovScalar.one(field)} for g in generators
    }
    if conjugate and n > 1:
        tri = list(range(n))
        rng.shuffle(tri)
        position = {generators[i].id: pos for pos, i in enumerate(tri)}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                x, y = generators[i], generators[j]
                if x.degree != y.degree or position[x.id] <= position[y.id]:
                    continue
                if rng.random() < 0.35:
                    exp = _period_exponent_below(
                        rng, group_gen, x.action - y.action + 1
                    )
                    if exp is None or exp + y.action > x.action:
                        continue
                    automorphism[x.id][y.id] = NovikovScalar.monomial(
                        field, random_coefficient(rng, field), exp
                    )
        cx = _conjugate(cx, automorphism)
    return RandomComplexData(cx, free_ids, matched, automorphism)


def _invert_unipotent(
    cx: FilteredComplex, t_map: Dict[str, Chain]
) -> Dict[str, Chain]:
    # T = 1 + N with N nilpotent: invert by the finite Neumann series,
    # the sum of the powers of N with the odd ones negated.
    n_map = {gid: {k: v for k, v in col.items() if k != gid} for gid, col in t_map.items()}
    inverse: Dict[str, Chain] = {}
    for g in cx.generators:
        total = power = {g.id: NovikovScalar.one(cx.field)}
        for k in range(len(cx.generators)):
            power = _apply(n_map, power)  # N^(k+1) g
            if not power:
                break
            if k % 2 == 0:
                total = chain_add(total, {h: v.scale(-1) for h, v in power.items()})
            else:
                total = chain_add(total, power)
        inverse[g.id] = total
    return inverse


def _conjugate(cx: FilteredComplex, t_map: Dict[str, Chain]) -> FilteredComplex:
    inverse = _invert_unipotent(cx, t_map)

    differential: Dict[Tuple[str, str], NovikovScalar] = {}
    for g in cx.generators:
        column = _apply(t_map, cx.apply_differential(inverse[g.id]))
        for dst, coeff in column.items():
            differential[(g.id, dst)] = coeff
    return FilteredComplex(
        cx.field, cx.lattice, cx.generators, differential, cx.floor
    )
