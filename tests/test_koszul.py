"""Quasimap complexes: contraction differential, rank dichotomy, charges."""

import random
from fractions import Fraction

import pytest

from novspec.complexes import PeriodLattice, validate_complex
from novspec.fields import field_for_mode
from novspec.novikov import NovikovScalar
from novspec.koszul import (
    QuasimapComplex,
    build_cqf,
    central_charge,
    hqf_rank,
    hqf_report,
    unit_in_homology,
)
from novspec.critical import certify_heavy
from novspec.polytope import segment, simplex
from novspec.potential import brane_from_constants, potential
from novspec.randomcx import random_scalar

QQ = field_for_mode("rational")
CC = field_for_mode("complex")

CP1 = segment(Fraction(0), Fraction(1))
CP2 = simplex(2)


def mono(c, e, field=QQ):
    return NovikovScalar.monomial(field, field.coerce(c), Fraction(e))


def chains_equal(a, b):
    a = {k: v for k, v in a.items() if not v.is_zero()}
    b = {k: v for k, v in b.items() if not v.is_zero()}
    return a == b


class TestBasis:
    def test_subset_names(self):
        c = QuasimapComplex(QQ, [mono(1, 0)] * 3)
        assert c.names[:4] == ["e", "e_1", "e_2", "e_1_2"]
        assert c.names[-1] == "e_1_2_3"
        assert len(c.names) == 8

    def test_contraction_signs_rank_two(self):
        y = [mono(3, 0), mono(5, -1)]
        c = QuasimapComplex(QQ, y)
        out = c.m1({"e_1_2": NovikovScalar.one(QQ)})
        assert chains_equal(out, {"e_2": y[0], "e_1": -y[1]})

    def test_unit_always_closed(self):
        rng = random.Random(4)
        lattice = PeriodLattice((Fraction(1, 3),))
        for _ in range(10):
            y = [random_scalar(rng, QQ, lattice) for _ in range(3)]
            c = QuasimapComplex(QQ, y)
            assert c.m1({"e": NovikovScalar.one(QQ)}) == {}

    def test_m1_squares_to_zero_random(self):
        rng = random.Random(9)
        lattice = PeriodLattice((Fraction(1, 2),))
        for trial in range(20):
            n = rng.randint(1, 3)
            y = []
            for _ in range(n):
                if rng.random() < 0.3:
                    y.append(NovikovScalar.zero(QQ))
                else:
                    y.append(random_scalar(rng, QQ, lattice))
            c = QuasimapComplex(QQ, y)
            for name in c.names:
                square = c.m1(c.m1({name: NovikovScalar.one(QQ)}))
                assert square == {}, f"trial {trial}: m1^2 != 0 on {name}"


class TestExport:
    def test_exported_complex_validates(self):
        y = [mono(2, Fraction(-1, 2)), NovikovScalar.zero(QQ)]
        c = QuasimapComplex(QQ, y, floor=Fraction(-4))
        cx = c.export_complex()
        rep = validate_complex(cx)
        assert rep.valid, rep.violations
        assert {g.id for g in cx.generators} == set(c.names)
        assert {g.degree for g in cx.generators} == {0, 1, 2}

    def test_exported_periods_cover_y_exponents(self):
        y = [mono(2, Fraction(-1, 2)) + mono(1, Fraction(-3, 4))]
        c = QuasimapComplex(QQ, y, floor=Fraction(-4))
        cx = c.export_complex()
        assert cx.lattice.contains(Fraction(-1, 2))
        assert cx.lattice.contains(Fraction(-3, 4))


class TestDichotomy:
    def test_zero_gradient_full_rank(self):
        for n in (1, 2, 3):
            c = QuasimapComplex(QQ, [NovikovScalar.zero(QQ)] * n)
            rep = hqf_report(c)
            assert rep["rank"] == 1 << n
            # ranks by degree are binomial coefficients
            import math

            for k in range(n + 1):
                assert rep["ranks_by_degree"][str(k)] == math.comb(n, k)

    def test_any_unit_entry_kills_homology(self):
        rng = random.Random(11)
        lattice = PeriodLattice((Fraction(1, 2),))
        for _ in range(10):
            n = rng.randint(1, 3)
            y = [NovikovScalar.zero(QQ) for _ in range(n)]
            y[rng.randrange(n)] = random_scalar(rng, QQ, lattice)
            assert hqf_rank(QuasimapComplex(QQ, y)) == 0

    def test_certified_brane_full_rank_doubled_brane_zero(self):
        cert = certify_heavy(CP1, "1/2", "-8", QQ)
        w = potential(CP1, cert.fiber)
        two = QQ.coerce(Fraction(2))
        for brane in cert.branes:
            c = build_cqf(w, brane.x, cert.order)
            assert hqf_rank(c) == 2
            assert unit_in_homology(c)
            doubled = [xj.scale(two) for xj in brane.x]
            c0 = build_cqf(w, doubled, cert.order)
            assert hqf_rank(c0) == 0
            assert not unit_in_homology(c0)

    def test_triangle_branes_rank_four(self):
        cert = certify_heavy(CP2, "1/3,1/3", "-6", CC)
        w = potential(CP2, cert.fiber)
        for brane in cert.branes:
            c = build_cqf(w, brane.x, cert.order)
            rep = hqf_report(c)
            assert rep["rank"] == 4
            assert unit_in_homology(c)

    def test_ideal_leading_data_reported(self):
        w = potential(CP1, "1/2")
        x = brane_from_constants(QQ, [Fraction(3)])
        c = build_cqf(w, x, Fraction(-4))
        rep = hqf_report(c)
        assert rep["rank"] == 0
        (entry,) = rep["ideal"]
        assert entry["component"] == 0
        assert entry["valuation"] == "-1/2"
        assert entry["leading"] is not None


class TestBuild:
    def test_build_requires_unit_brane(self):
        w = potential(CP1, "1/2")
        with pytest.raises(ValueError):
            build_cqf(w, [mono(1, Fraction(1, 2))], Fraction(-4))

    def test_serialization_shape(self):
        w = potential(CP1, "1/2")
        x = brane_from_constants(QQ, [Fraction(1)])
        c = build_cqf(w, x, Fraction(-4))
        doc = c.to_json()
        assert doc["n"] == 1
        assert doc["floor"] == "-4"
        assert [yj["terms"] for yj in doc["y"]] == [[]]


class TestCentralCharge:
    def test_interval_charges(self):
        w = potential(CP1, "1/2")
        plus = brane_from_constants(QQ, [Fraction(1)])
        minus = brane_from_constants(QQ, [Fraction(-1)])
        assert central_charge(w, plus) == mono(2, Fraction(-1, 2))
        assert central_charge(w, minus) == mono(-2, Fraction(-1, 2))

    def test_charge_truncates_at_floor(self):
        w = potential(CP1, "1/2")
        x = brane_from_constants(QQ, [Fraction(1)])
        charge = central_charge(w, x, Fraction(-1, 4))
        assert charge.is_zero() and charge.floor == Fraction(-1, 4)
