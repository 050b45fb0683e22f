"""Quasimap complexes: contraction differential, rank dichotomy, charges."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novspec.complexes import PeriodLattice, validate_complex
from novspec.fields import field_for_mode
from novspec.novikov import NovikovScalar
from novspec.koszul import (
    build_cqf,
    hqf_report,
    koszul_complex,
    unit_in_homology,
)
from novspec.critical import certify_heavy
from novspec.polytope import segment, simplex
from novspec.potential import PotentialFunction, brane_from_constants
from novspec.randomcx import random_scalar

QQ = field_for_mode("rational")
CC = field_for_mode("complex")

CP1 = segment(Fraction(0), Fraction(1))
CP2 = simplex(2)


def mono(c, e, field=QQ):
    return NovikovScalar.monomial(field, field.coerce(c), Fraction(e))


class TestBasis:
    def test_subset_names(self):
        names = [g.id for g in koszul_complex(QQ, [mono(1, 0)] * 3).generators]
        assert names[:4] == ["e", "e_1", "e_2", "e_1_2"]
        assert names[-1] == "e_1_2_3"
        assert len(names) == 8

    def test_contraction_signs_rank_two(self):
        y = [mono(3, 0), mono(5, -1)]
        cx = koszul_complex(QQ, y)
        assert cx.column("e_1_2") == {"e_2": y[0], "e_1": -y[1]}

    def test_unit_always_closed(self):
        rng = random.Random(4)
        lattice = PeriodLattice((Fraction(1, 3),))
        for _ in range(10):
            y = [random_scalar(rng, QQ, lattice) for _ in range(3)]
            assert koszul_complex(QQ, y).column("e") == {}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        mode=st.sampled_from(["rational", "gaussian", "complex"]),
        zeros=st.lists(st.booleans(), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_m1_squares_to_zero_random(self, mode, zeros, seed):
        # exponents shifted into [-13/2, -1/2], so that every entry drops
        # action strictly and a violation can only be a nonzero square
        field = field_for_mode(mode)
        rng = random.Random(seed)
        lattice = PeriodLattice((Fraction(1, 2),))
        y = [
            NovikovScalar.zero(field) if zero
            else random_scalar(rng, field, lattice).shift(Fraction(-7, 2))
            for zero in zeros
        ]
        rep = validate_complex(koszul_complex(field, y))
        assert rep.valid, rep.violations


class TestExport:
    def test_exported_complex_validates(self):
        y = [mono(2, Fraction(-1, 2)), NovikovScalar.zero(QQ)]
        cx = koszul_complex(QQ, y, floor=Fraction(-4))
        rep = validate_complex(cx)
        assert rep.valid, rep.violations
        assert {g.id for g in cx.generators} == {"e", "e_1", "e_2", "e_1_2"}
        assert {g.degree for g in cx.generators} == {0, 1, 2}

    def test_exported_periods_cover_y_exponents(self):
        y = [mono(2, Fraction(-1, 2)) + mono(1, Fraction(-3, 4))]
        cx = koszul_complex(QQ, y, floor=Fraction(-4))
        assert cx.lattice.periods == (Fraction(-3, 4), Fraction(-1, 2))


class TestDichotomy:
    def test_zero_gradient_full_rank(self):
        for n in (1, 2, 3):
            rep = hqf_report(koszul_complex(QQ, [NovikovScalar.zero(QQ)] * n))
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
            assert hqf_report(koszul_complex(QQ, y))["rank"] == 0

    def test_certified_brane_full_rank_doubled_brane_zero(self):
        w = PotentialFunction(CP1, "1/2")
        cert = certify_heavy(w, "-8", QQ)
        two = QQ.coerce(Fraction(2))
        for brane in cert.branes:
            c = build_cqf(w, brane.x, cert.order)
            assert hqf_report(c)["rank"] == 2
            assert unit_in_homology(c)
            doubled = [xj.scale(two) for xj in brane.x]
            c0 = build_cqf(w, doubled, cert.order)
            assert hqf_report(c0)["rank"] == 0
            assert not unit_in_homology(c0)

    def test_triangle_branes_rank_four(self):
        w = PotentialFunction(CP2, "1/3,1/3")
        cert = certify_heavy(w, "-6", CC)
        for brane in cert.branes:
            c = build_cqf(w, brane.x, cert.order)
            rep = hqf_report(c)
            assert rep["rank"] == 4
            assert unit_in_homology(c)

    def test_ideal_leading_data_reported(self):
        w = PotentialFunction(CP1, "1/2")
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
        w = PotentialFunction(CP1, "1/2")
        with pytest.raises(ValueError):
            build_cqf(w, [mono(1, Fraction(1, 2))], Fraction(-4))


class TestCentralCharge:
    def test_interval_charges(self):
        w = PotentialFunction(CP1, "1/2")
        plus = brane_from_constants(QQ, [Fraction(1)])
        minus = brane_from_constants(QQ, [Fraction(-1)])
        assert w.evaluate(plus) == mono(2, Fraction(-1, 2))
        assert w.evaluate(minus) == mono(-2, Fraction(-1, 2))

    def test_charge_truncates_at_floor(self):
        w = PotentialFunction(CP1, "1/2")
        x = brane_from_constants(QQ, [Fraction(1)])
        charge = w.evaluate(x, Fraction(-1, 4))
        assert charge.is_zero() and charge.floor == Fraction(-1, 4)
