"""Seeded property suites behind ``novspec selftest``.

Each suite runs a fixed number of seeded trials of one library invariant
and reports pass counts plus counterexample dumps on failure.  Output is
deterministic for a given seed: no timestamps, sorted JSON keys, and all
randomness drawn from a single seeded generator per suite.

Mutation mode grafts a fresh sink generator onto the target of an
existing differential arrow.  The new arrow respects the degree and
action-drop rules, so the only broken axiom is delta squared = 0, which
validation must catch; the report records whether it did.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

from .complexes import (
    FilteredComplex,
    OrbitGenerator,
    PeriodLattice,
    chain_scale,
    validate_complex,
)
from .critical import certify_heavy, revalidate_certificate
from .fields import field_for_mode
from .koszul import build_cqf, hqf_report, unit_in_homology
from .novikov import NovikovScalar
from .polytope import segment, simplex
from .potential import PotentialFunction
from .quasistate import SpectralOracle, homogenize
from .randomcx import random_complex, random_scalar
from .records import NEG_INF, SCHEMA_VERSION
from .spectral import homology_report, spectral_number, spectrum
from .tensor import kunneth_ranks, tensor_chain, tensor_product


def _ring(seed: int, trials: int, failures: List[str]) -> None:
    rat = field_for_mode("rational")
    gau = field_for_mode("gaussian")
    rng = random.Random((seed, "ring").__repr__())
    lattice = PeriodLattice((Fraction(1, 2),))
    for t in range(trials):
        for field in (rat, gau):
            a = random_scalar(rng, field, lattice)
            b = random_scalar(rng, field, lattice)
            c = random_scalar(rng, field, lattice)
            if (a + b) + c != a + (b + c):
                failures.append(f"trial {t}: associativity broke on {a!r}, {b!r}, {c!r}")
            if a * (b + c) != a * b + a * c:
                failures.append(f"trial {t}: distributivity broke on {a!r}, {b!r}, {c!r}")
            if not (a * b).is_zero() and (a * b).valuation() != a.valuation() + b.valuation():
                failures.append(f"trial {t}: valuation not additive on {a!r}, {b!r}")
            # invert at -8; the product floor rises to -8 + v(a), still
            # below -4 for these generators, so compare at -4
            inv = a.invert(Fraction(-8))
            prod = (a * inv).truncate(Fraction(-4))
            one = NovikovScalar.one(field).truncate(Fraction(-4))
            if prod != one:
                failures.append(f"trial {t}: inverse failed on {a!r}")


def _validation(seed: int, trials: int, failures: List[str]) -> None:
    rng = random.Random((seed, "validation").__repr__())
    for t in range(trials):
        data = random_complex(rng)
        rep = validate_complex(data.complex)
        if not rep.valid:
            failures.append(f"trial {t}: generated complex failed validation: {rep.violations}")


def _spectral(seed: int, trials: int, failures: List[str]) -> None:
    rng = random.Random((seed, "spectral").__repr__())
    for t in range(trials):
        data = random_complex(rng)
        cx = data.complex
        spec = spectrum(cx)
        cycle = data.random_cycle(rng)
        if cycle is None:
            continue
        res = spectral_number(cx, cycle)
        if res.value != NEG_INF and not spec.contains(res.value):
            failures.append(
                f"trial {t}: spectral number {res.value} outside the action spectrum"
            )
        for s in range(2):
            lam = random_scalar(rng, cx.field, cx.lattice)
            shifted = spectral_number(cx, chain_scale(cycle, lam))
            expect = NEG_INF if res.value == NEG_INF else res.value + lam.valuation()
            if shifted.value != expect:
                failures.append(
                    f"trial {t}.{s}: shift broke: c(lam*a) = {shifted.value}, "
                    f"expected {expect}"
                )


def _tensor(seed: int, trials: int, failures: List[str]) -> None:
    rng = random.Random((seed, "tensor").__repr__())
    for t in range(trials):
        d0 = random_complex(rng, max_generators=5)
        d1 = random_complex(rng, max_generators=5, field=d0.complex.field)
        prod = tensor_product(d0.complex, d1.complex)
        expected = kunneth_ranks(d0.expected_ranks(), d1.expected_ranks())
        got = {k: v for k, v in homology_report(prod)["ranks"].items() if v}
        if got != {str(k): v for k, v in expected.items()}:
            failures.append(
                f"trial {t}: tensor ranks {got} differ from factor product {expected}"
            )
        a = d0.random_cycle(rng)
        b = d1.random_cycle(rng)
        if a is None or b is None:
            continue
        ca = spectral_number(d0.complex, a).value
        cb = spectral_number(d1.complex, b).value
        cab = spectral_number(prod, tensor_chain(a, b)).value
        expect = NEG_INF if NEG_INF in (ca, cb) else ca + cb
        if cab != expect:
            failures.append(f"trial {t}: tensor additivity broke: {cab} != {ca} + {cb}")


def _toric(seed: int, trials: int, failures: List[str]) -> None:
    rat = field_for_mode("rational")
    w = PotentialFunction(segment(Fraction(0), Fraction(1)), "1/2")
    cert = certify_heavy(w, Fraction(-6), rat)
    if not cert.found or len(cert.branes) != 2:
        failures.append("interval midpoint did not yield exactly two branes")
    else:
        reval = revalidate_certificate(cert.to_json())
        if not reval["ok"]:
            failures.append(f"interval certificate failed revalidation: {reval['failures']}")
        for idx, brane in enumerate(cert.branes):
            c = build_cqf(w, brane.x, cert.order)
            rank = hqf_report(c)["rank"]
            if rank != 2:
                failures.append(f"interval brane {idx}: quasimap rank {rank} != 2")
            doubled = [xj.scale(2) for xj in brane.x]
            rank0 = hqf_report(build_cqf(w, doubled, cert.order))["rank"]
            if rank0 != 0:
                failures.append(f"interval brane {idx} doubled: rank {rank0} != 0")
            if not unit_in_homology(c):
                failures.append(f"interval brane {idx}: unit class died")

    cpl = field_for_mode("complex")
    w2 = PotentialFunction(simplex(2), "1/3,1/3")
    cert2 = certify_heavy(w2, Fraction(-6), cpl)
    if not cert2.found or len(cert2.branes) != 3:
        failures.append("triangle barycenter did not yield exactly three branes")
    else:
        rank = hqf_report(build_cqf(w2, cert2.branes[0].x, cert2.order))["rank"]
        if rank != 4:
            failures.append(f"triangle brane 0: quasimap rank {rank} != 4")


def _homogenize(seed: int, trials: int, failures: List[str]) -> None:
    rng = random.Random((seed, "homogenize").__repr__())
    n_max = 64
    for t in range(trials):
        s = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        samples = [
            (n, s * n + Fraction(rng.randint(-1000, 1000), 1000))
            for n in range(1, n_max + 1)
        ]
        est = homogenize(SpectralOracle(samples))
        err = abs(est.value - (-s))
        if err > Fraction(2, n_max):
            failures.append(f"trial {t}: slope {s} recovered with error {err} > 2/{n_max}")
        lo, hi = est.interval
        if not (lo <= -s <= hi):
            failures.append(f"trial {t}: interval [{lo}, {hi}] misses the true value {-s}")


# (name, trials, check) in report order.  A check appends one line per
# counterexample; the toric check's two trials are its two fixed polytopes,
# every other check draws from a generator seeded by (seed, its own tag).
SUITES = (
    ("novikov-ring", 10, _ring),
    ("complex-validation", 8, _validation),
    ("spectrality-and-shift", 6, _spectral),
    ("tensor-additivity", 4, _tensor),
    ("toric-dichotomy", 2, _toric),
    ("homogenization-bound", 6, _homogenize),
)


def _mutation_report(seed: int) -> dict:
    rng = random.Random((seed, "mutation").__repr__())
    data = random_complex(rng)
    while not data.complex.entries:
        data = random_complex(rng)
    cx = data.complex
    src, dst = sorted(cx.entries)[rng.randrange(len(cx.entries))]
    target = cx.generator(dst)
    sink = OrbitGenerator("mutant-sink", target.action - 1, target.degree - 1)
    differential = dict(cx.entries)
    differential[(dst, sink.id)] = NovikovScalar.one(cx.field)
    corrupted = FilteredComplex(
        cx.field, cx.lattice, list(cx.generators) + [sink], differential, cx.floor
    )
    rep = validate_complex(corrupted)
    caught = any(v.startswith("delta squared nonzero") for v in rep.violations)
    return {
        "corrupted_arrow": [dst, sink.id],
        "through": [src, dst],
        "detected": caught,
        "violations": rep.violations,
    }


def run_selftest(seed: int = 0, mutate: bool = False) -> dict:
    suites = []
    for name, trials, check in SUITES:
        failures: List[str] = []
        check(seed, trials, failures)
        suites.append(dict(name=name, trials=trials, passed=not failures, failures=failures))
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "selftest",
        "seed": seed,
        "suites": suites,
        "ok": all(s["passed"] for s in suites),
    }
    if mutate:
        mutation = _mutation_report(seed)
        report["mutation"] = mutation
        report["ok"] = report["ok"] and mutation["detected"]
    return report
