"""Acceptance gate: the eight headline checks, one line per criterion.

Each test covers one criterion end to end and prints an
``ACCEPTANCE n (...): PASS`` line once every assertion in it has held
(run with ``-s`` to see the lines; ``-v`` shows the same verdicts as
test outcomes).  Expensive certificates are computed once and shared.
"""

import json
import random
import time
from fractions import Fraction
from functools import lru_cache

from novspec.complexes import chain_scale
from novspec.critical import certify_heavy, revalidate_certificate, scan_fibers
from novspec.fields import CoefficientField
from novspec.koszul import build_cqf, hqf_report
from novspec.polytope import segment, simplex
from novspec.potential import PotentialFunction
from novspec.quasistate import SpectralOracle, homogenize
from novspec.randomcx import random_complex, random_scalar
from novspec.records import NEG_INF
from novspec.selftest import run_selftest
from novspec.spectral import homology_rank, spectral_number, spectrum
from novspec.tensor import kunneth_ranks, tensor_chain, tensor_product

from reference import product

QQ = CoefficientField("rational")
CC = CoefficientField("complex", 1e-12)
CP1 = segment(0, 1)
CP2 = simplex(2)


def _pass(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} ({label}): PASS")


@lru_cache(maxsize=None)
def cp1_scan():
    t0 = time.perf_counter()
    report = scan_fibers(CP1, "1/8", "-6", QQ)
    return report, time.perf_counter() - t0


@lru_cache(maxsize=None)
def cp1_cert():
    (row,) = [r for r in cp1_scan()[0].rows if r.found]
    return row


@lru_cache(maxsize=None)
def cp2_block():
    t0 = time.perf_counter()
    cert = certify_heavy(PotentialFunction(CP2, "1/3,1/3"), "-10", CC)
    report = scan_fibers(CP2, "1/6", "-10", CC)
    return cert, report, time.perf_counter() - t0


@lru_cache(maxsize=None)
def product_cert():
    return certify_heavy(PotentialFunction(product(CP1, CP1), "1/2,1/2"), "-8", QQ)


def test_criterion_1_cp1_heaviness_scan():
    report, elapsed = cp1_scan()
    by_fiber = {r.w.fiber[0]: r for r in report.rows}
    assert sorted(by_fiber) == [Fraction(k, 8) for k in range(1, 8)]
    for lam, row in by_fiber.items():
        expected = "certified" if lam == Fraction(1, 2) else "none-found"
        assert row.status == expected, f"fiber {lam}: {row.status}"
    cert = by_fiber[Fraction(1, 2)]
    assert len(cert.branes) == 2
    points = sorted(brane.x[0].terms for brane in cert.branes)
    assert points == [((Fraction(0), Fraction(-1)),), ((Fraction(0), Fraction(1)),)]
    for brane in cert.branes:
        assert brane.residual_valuation is NEG_INF  # exactly zero
        assert brane.to_json()["residual_norm"] == 0.0
    assert elapsed < 1.0, f"scan took {elapsed:.3f}s"
    _pass(1, "cp1 heaviness scan")


def test_criterion_2_cp2_barycenter():
    cert, report, elapsed = cp2_block()
    assert len(cert.branes) == 3
    roots = []
    for brane in cert.branes:
        assert brane.to_json()["residual_norm"] < 1e-10
        z0 = brane.x[0].terms[0][1]
        z1 = brane.x[1].terms[0][1]
        assert abs(z0 - z1) < 1e-10  # symmetric critical point
        assert abs(z0**3 - 1) < 1e-10  # cube root of unity
        roots.append(z0)
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(roots[i] - roots[j]) > 1e-1
    barycenter = (Fraction(1, 3), Fraction(1, 3))
    assert len(report.rows) == 10
    for row in report.rows:
        expected = "certified" if row.w.fiber == barycenter else "none-found"
        assert row.status == expected, f"fiber {row.w.fiber}: {row.status}"
    assert elapsed < 5.0, f"certify+scan took {elapsed:.3f}s"
    _pass(2, "cp2 barycenter branes")


def test_criterion_3_quasimap_dichotomy():
    cases = [
        (CP1, (Fraction(1, 2),), cp1_cert()),
        (CP2, (Fraction(1, 3), Fraction(1, 3)), cp2_block()[0]),
    ]
    agreements = 0
    total = 0
    for poly, fiber, cert in cases:
        w = PotentialFunction(poly, fiber)
        full = 2**poly.dim
        two = cert.field.coerce(2)
        for brane in cert.branes:
            total += 1
            rank = hqf_report(build_cqf(w, brane.x, cert.order))["rank"]
            perturbed = [xj.scale(two) for xj in brane.x]
            off_rank = hqf_report(build_cqf(w, perturbed, cert.order))["rank"]
            if rank == full and off_rank == 0:
                agreements += 1
    assert total == 5
    assert agreements == total, f"{agreements}/{total} agree"
    _pass(3, f"quasimap rank dichotomy {agreements}/{total}")


def test_criterion_4_spectral_axioms():
    # hand-derived case: three generators, one arrow
    from novspec.complexes import FilteredComplex, OrbitGenerator, PeriodLattice
    from novspec.novikov import NovikovScalar

    cx = FilteredComplex(
        QQ,
        PeriodLattice((Fraction(1, 2),)),
        [
            OrbitGenerator("a1", Fraction(3), 0),
            OrbitGenerator("a2", Fraction(1), 0),
            OrbitGenerator("b", Fraction(2), 1),
        ],
        {
            ("b", "a1"): NovikovScalar.monomial(QQ, 1, Fraction(-2)),
            ("b", "a2"): NovikovScalar.monomial(QQ, -1, Fraction(-1, 2)),
        },
    )
    res = spectral_number(cx, {"a1": NovikovScalar.one(QQ)})
    assert res.value == Fraction(5, 2)
    assert res.witness_cycle == {"a2": NovikovScalar.monomial(QQ, 1, Fraction(3, 2))}

    rng = random.Random(408)
    checked = 0
    for _ in range(320):
        data = random_complex(rng)
        z = data.random_cycle(rng)
        if z is None:
            continue
        cx = data.complex
        res = spectral_number(cx, z)
        assert not res.is_boundary
        assert spectrum(cx).contains(res.value)  # spectrality, exact
        for _ in range(5):
            lam = random_scalar(rng, cx.field, cx.lattice)
            shifted = spectral_number(cx, chain_scale(z, lam))
            assert shifted.value == lam.valuation() + res.value  # shift, exact
        checked += 1
    assert checked >= 200, f"only {checked} complexes had usable cycles"
    _pass(4, f"spectral axioms on {checked} complexes")


def test_criterion_5_kunneth_additivity():
    rng = random.Random(409)
    checked = 0
    for _ in range(250):
        if checked >= 100:
            break
        d0 = random_complex(rng, max_generators=5)
        d1 = random_complex(rng, max_generators=5)
        prod = tensor_product(d0.complex, d1.complex)
        got = {k: v for k, v in homology_rank(prod).items() if v}
        assert got == kunneth_ranks(d0.expected_ranks(), d1.expected_ranks())
        z0 = d0.random_cycle(rng)
        z1 = d1.random_cycle(rng)
        if z0 is None or z1 is None:
            continue
        v0 = spectral_number(d0.complex, z0).value
        v1 = spectral_number(d1.complex, z1).value
        v01 = spectral_number(prod, tensor_chain(z0, z1)).value
        assert v01 == v0 + v1  # additivity, exact
        checked += 1
    assert checked >= 100, f"only {checked} pairs had usable cycles"
    _pass(5, f"kunneth additivity on {checked} pairs")


def test_criterion_6_product_heaviness():
    cert = product_cert()
    factor = cp1_cert()
    assert len(cert.branes) == 4
    factor_consts = [b.x[0].terms[0][1] for b in factor.branes]
    expected_pairs = sorted((a, b) for a in factor_consts for b in factor_consts)
    got_pairs = sorted(
        tuple(xj.terms[0][1] for xj in brane.x) for brane in cert.branes
    )
    assert got_pairs == expected_pairs
    factor_charges = [b.central_charge for b in factor.branes]
    expected_charges = {a + b for a in factor_charges for b in factor_charges}
    assert {b.central_charge for b in cert.branes} == expected_charges
    _pass(6, "product branes are componentwise pairs")


def test_criterion_7_homogenization_bound():
    rng = random.Random(417)
    n_max = 64
    for trial in range(20):
        s = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        samples = [
            (n, s * n + Fraction(rng.randint(-1000, 1000), 1000))
            for n in range(1, n_max + 1)
        ]
        est = homogenize(SpectralOracle(samples))
        assert abs(est.value - (-s)) <= Fraction(2, n_max), f"trial {trial}"
    _pass(7, "homogenization within 2/64 on 20 oracles")


def test_criterion_8_roundtrip_and_determinism():
    for cert in (cp1_cert(), cp2_block()[0], product_cert()):
        doc = json.loads(json.dumps(cert.to_json(), sort_keys=True))
        rep = revalidate_certificate(doc)
        assert rep["ok"], rep["failures"]
    runs = [
        json.dumps(run_selftest(seed=11), sort_keys=True).encode()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["ok"]
    _pass(8, "round-trip revalidation and byte-identical selftest")
