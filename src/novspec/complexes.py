"""Graded, filtered complexes over a Novikov field.

A complex carries a period lattice (the group of curve classes with its
area values), a finite list of generators with rational actions and
integer degrees, and a differential whose entries are Novikov scalars.
The quotient convention is downward: an entry from x to y with
valuation w asserts a strict action drop, w + action(y) < action(x),
and the differential lowers degree by one (mod 2 at minimum).

Chains are plain dicts mapping generator ids to NovikovScalar
coefficients; the level of a chain is the largest
valuation-plus-action over its support.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd as int_gcd
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .fields import (
    NEG_INF,
    CoefficientField,
    floor_str,
    fraction_str,
    parse_floor,
    parse_fraction,
    rational_gcd,
)
from .novikov import FloorValue, NovikovScalar

Chain = Dict[str, NovikovScalar]


@dataclass(frozen=True)
class PeriodLattice:
    """Free abelian group of rank len(periods) with area homomorphism."""

    periods: Tuple[Fraction, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.periods)

    def omega(self, vec: Iterable[int]) -> Fraction:
        vec = tuple(vec)
        if len(vec) != self.rank:
            raise ValueError("lattice vector has wrong length")
        return sum(
            (Fraction(n) * p for n, p in zip(vec, self.periods)), Fraction(0)
        )

    def group_generator(self) -> Fraction:
        """Positive generator of the image group omega(Gamma), 0 if trivial."""
        g = Fraction(0)
        for p in self.periods:
            g = rational_gcd(g, p)
        return g

    def contains(self, value) -> bool:
        value = Fraction(value)
        g = self.group_generator()
        if g == 0:
            return value == 0
        ratio = value / g
        return ratio.denominator == 1

    def solve(self, value) -> Optional[Tuple[int, ...]]:
        """Integer vector n with omega(n) == value, or None."""
        value = Fraction(value)
        if self.rank == 0:
            return () if value == 0 else None
        den = 1
        for p in self.periods:
            den = den * p.denominator // int_gcd(den, p.denominator)
        den = den * value.denominator // int_gcd(den, value.denominator)
        ints = [int(p * den) for p in self.periods]
        target = int(value * den)
        # iterative extended gcd across the period integers
        g = 0
        combo: List[int] = [0] * self.rank
        for i, p in enumerate(ints):
            g, x, y = _xgcd(g, p)
            combo = [c * x for c in combo]
            combo[i] += y
        if g == 0:
            return tuple([0] * self.rank) if target == 0 else None
        if target % g != 0:
            return None
        k = target // g
        return tuple(c * k for c in combo)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "periods": [fraction_str(p) for p in self.periods],
        }

    @staticmethod
    def from_json(obj: Any) -> "PeriodLattice":
        if obj is None:
            return PeriodLattice()
        periods = tuple(parse_fraction(p) for p in obj.get("periods", []))
        rank = obj.get("rank", len(periods))
        if rank != len(periods):
            raise ValueError("lattice rank disagrees with period count")
        return PeriodLattice(periods)


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    # returns (g, x, y) with a*x + b*y == g == gcd(a, b), g >= 0
    if a == 0:
        if b == 0:
            return 0, 0, 0
        return (abs(b), 0, 1 if b > 0 else -1)
    g, x1, y1 = _xgcd(b % a, a)
    return g, y1 - (b // a) * x1, x1


@dataclass(frozen=True)
class OrbitGenerator:
    id: str
    action: Fraction
    degree: int

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "action": fraction_str(self.action),
            "degree": self.degree,
        }

    @staticmethod
    def from_json(obj: dict) -> "OrbitGenerator":
        return OrbitGenerator(
            str(obj["id"]), parse_fraction(obj["action"]), int(obj["degree"])
        )


class FilteredComplex:
    """Finite filtered complex; construction enforces structural sanity.

    Duplicate or unknown generator ids raise immediately (schema
    errors); mathematical defects (action drop, degree drop, delta
    squared) are reported by validate_complex.
    """

    def __init__(
        self,
        field: CoefficientField,
        lattice: PeriodLattice,
        generators: Iterable[OrbitGenerator],
        differential: Mapping[Tuple[str, str], NovikovScalar],
        floor: FloorValue = NEG_INF,
    ):
        self.field = field
        self.lattice = lattice
        self.generators = tuple(generators)
        ids = [g.id for g in self.generators]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate generator ids")
        self.index = {gid: i for i, gid in enumerate(ids)}
        self.floor = floor if floor == NEG_INF else Fraction(floor)
        entries: Dict[Tuple[str, str], NovikovScalar] = {}
        for (src, dst), coeff in differential.items():
            if src not in self.index or dst not in self.index:
                raise ValueError(f"differential references unknown id {src!r}->{dst!r}")
            field.check_compatible(coeff.field)
            coeff = coeff.truncate(self.floor)
            if not coeff.is_zero():
                entries[(src, dst)] = coeff
        self.entries = entries
        self._columns: Dict[str, Chain] = {g.id: {} for g in self.generators}
        for (src, dst), coeff in entries.items():
            self._columns[src][dst] = coeff

    # -- access ----------------------------------------------------------

    def generator(self, gid: str) -> OrbitGenerator:
        return self.generators[self.index[gid]]

    def column(self, gid: str) -> Chain:
        """The differential of a generator as a chain."""
        return dict(self._columns[gid])

    def apply_differential(self, chain: Chain) -> Chain:
        acc: Chain = {}
        for gid, coeff in chain.items():
            if gid not in self.index:
                raise KeyError(f"unknown generator id {gid!r}")
            if coeff.is_zero():
                continue
            for dst, entry in self.column(gid).items():
                term = entry * coeff
                if dst in acc:
                    acc[dst] = acc[dst] + term
                else:
                    acc[dst] = term
        return {
            gid: c for gid, c in acc.items() if not c.truncate(self.floor).is_zero()
        }

    def degrees_strictly_graded(self) -> bool:
        return all(
            self.generator(src).degree - self.generator(dst).degree == 1
            for (src, dst) in self.entries
        )

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "lattice": self.lattice.to_json(),
            "generators": [g.to_json() for g in self.generators],
            "differential": [
                {
                    "from": src,
                    "to": dst,
                    "coeff": coeff.terms_to_json(),
                }
                for (src, dst), coeff in sorted(self.entries.items())
            ],
            "floor": floor_str(self.floor),
        }

    @staticmethod
    def from_json(obj: dict) -> "FilteredComplex":
        field = CoefficientField.from_json(obj.get("field"))
        lattice = PeriodLattice.from_json(obj.get("lattice"))
        generators = [OrbitGenerator.from_json(g) for g in obj["generators"]]
        floor = parse_floor(obj.get("floor", "-inf"))
        differential = {}
        for ent in obj.get("differential", []):
            scalar = NovikovScalar.terms_from_json(field, ent["coeff"], floor)
            differential[(str(ent["from"]), str(ent["to"]))] = scalar
        return FilteredComplex(field, lattice, generators, differential, floor)


# -- chains ------------------------------------------------------------


def chain_cleanup(chain: Chain) -> Chain:
    return {gid: c for gid, c in chain.items() if not c.is_zero()}


def chain_add(a: Chain, b: Chain) -> Chain:
    out = dict(a)
    for gid, c in b.items():
        out[gid] = out[gid] + c if gid in out else c
    return chain_cleanup(out)


def chain_scale(chain: Chain, scalar: NovikovScalar) -> Chain:
    return chain_cleanup({gid: c * scalar for gid, c in chain.items()})


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


def chain_to_json(chain: Chain) -> list:
    return [
        {"id": gid, "coeff": coeff.terms_to_json()}
        for gid, coeff in sorted(chain.items())
    ]


def chain_from_json(cx: FilteredComplex, obj: Any) -> Chain:
    entries = obj.get("coeffs") if isinstance(obj, dict) else obj
    floor = parse_floor(obj.get("floor", "-inf")) if isinstance(obj, dict) else NEG_INF
    chain: Chain = {}
    for ent in entries:
        gid = str(ent["id"])
        if gid not in cx.index:
            raise ValueError(f"chain references unknown generator {gid!r}")
        scalar = NovikovScalar.terms_from_json(cx.field, ent["coeff"], max(floor, cx.floor))
        if gid in chain:
            scalar = chain[gid] + scalar
        chain[gid] = scalar
    return chain_cleanup(chain)


# -- validation ----------------------------------------------------------


@dataclass
class ValidationReport:
    valid: bool
    violations: List[str] = dc_field(default_factory=list)
    warnings: List[str] = dc_field(default_factory=list)
    z_graded: bool = True
    exponents_in_lattice: bool = True

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "violations": list(self.violations),
            "warnings": list(self.warnings),
            "z_graded": self.z_graded,
            "exponents_in_lattice": self.exponents_in_lattice,
        }


def validate_complex(cx: FilteredComplex) -> ValidationReport:
    """Check the filtered complex axioms; never raises on math defects."""
    violations: List[str] = []
    warnings: List[str] = []

    z_graded = True
    for (src, dst), coeff in sorted(cx.entries.items()):
        gsrc, gdst = cx.generator(src), cx.generator(dst)
        drop = gsrc.degree - gdst.degree
        if drop % 2 == 0:
            violations.append(
                f"differential {src}->{dst} drops degree by {drop}, not odd"
            )
        if drop != 1:
            z_graded = False
        v = coeff.valuation()
        if v != NEG_INF and not (v + gdst.action < gsrc.action):
            violations.append(
                f"no strict action drop on {src}->{dst}: "
                f"{v} + {gdst.action} >= {gsrc.action}"
            )

    in_lattice = True
    for (src, dst), coeff in cx.entries.items():
        for exp, _ in coeff.terms:
            if not cx.lattice.contains(exp):
                in_lattice = False
                warnings.append(
                    f"exponent {exp} on {src}->{dst} lies outside the period group"
                )
                break
        if not in_lattice:
            break

    for gen in cx.generators:
        col = cx.column(gen.id)
        if not col:
            continue
        square = cx.apply_differential(col)
        for dst, coeff in square.items():
            if not coeff.truncate(cx.floor).is_zero():
                violations.append(
                    f"delta squared nonzero: {gen.id} ~> {dst} = {coeff!r}"
                )

    return ValidationReport(
        valid=not violations,
        violations=violations,
        warnings=warnings,
        z_graded=z_graded,
        exponents_in_lattice=in_lattice,
    )
