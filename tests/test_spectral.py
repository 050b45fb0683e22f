"""Spectral numbers, homology ranks, spectra: frozen oracles and sweeps."""

import random
from fractions import Fraction

import pytest

from novspec import CoefficientField, NovikovScalar
from novspec.complexes import (
    FilteredComplex,
    OrbitGenerator,
    PeriodLattice,
    level,
)
from novspec.fields import NEG_INF
from novspec.randomcx import random_complex, random_scalar
from novspec.spectral import (
    _lead,
    homology_rank,
    homology_report,
    spectral_number,
    spectrum,
)

QQ = CoefficientField("rational")
CC = CoefficientField("complex", 1e-12)


def mono(c, e, field=QQ):
    return NovikovScalar.monomial(field, c, Fraction(e))


def hand_case(field=QQ):
    """Three generators, one arrow; c([a1]) = 5/2 with witness q^{3/2} a2."""
    return FilteredComplex(
        field,
        PeriodLattice((Fraction(1, 2),)),
        [
            OrbitGenerator("a1", Fraction(3), 0),
            OrbitGenerator("a2", Fraction(1), 0),
            OrbitGenerator("b", Fraction(2), 1),
        ],
        {
            ("b", "a1"): mono(1, -2, field),
            ("b", "a2"): mono(-1, Fraction(-1, 2), field),
        },
    )


class TestHandOracle:
    def test_value_and_witness(self):
        cx = hand_case()
        res = spectral_number(cx, {"a1": NovikovScalar.one(QQ)})
        assert res.value == Fraction(5, 2)
        assert res.witness_cycle == {"a2": mono(1, Fraction(3, 2))}
        assert level(res.witness_cycle, cx) == Fraction(5, 2)

    def test_spectrality_witness(self):
        cx = hand_case()
        res = spectral_number(cx, {"a1": NovikovScalar.one(QQ)})
        gid, vec = res.spectrality
        g = cx.generator(gid)
        assert g.action - cx.lattice.omega(vec) == res.value

    def test_floating_mode_agrees(self):
        cx = hand_case(CC)
        res = spectral_number(cx, {"a1": NovikovScalar.one(CC)})
        assert res.value == Fraction(5, 2)

    def test_spectrum_membership(self):
        cx = hand_case()
        spec = spectrum(cx)
        assert spec.contains(Fraction(5, 2))
        assert spec.contains(Fraction(3))
        assert not spec.contains(Fraction(1, 3))
        assert not spec.contains(NEG_INF)

    def test_direct_representative_level_is_not_minimal(self):
        # the input representative has level 3; the class level is 5/2
        cx = hand_case()
        z = {"a1": NovikovScalar.one(QQ)}
        assert level(z, cx) == 3
        assert spectral_number(cx, z).value < level(z, cx)

    def test_homology_ranks(self):
        cx = hand_case()
        assert homology_rank(cx) == {0: 1, 1: 0}


class TestLead:
    def test_tie_on_different_grids_goes_to_smallest_index(self):
        # Levels 1/3 + 1/3 (grid 3) and 1/6 + 1/2 (grid 6) are both 2/3;
        # the coordinate listed first wins, whichever grid it is on.
        cx = FilteredComplex(
            QQ,
            PeriodLattice(),
            [OrbitGenerator("x", Fraction(1, 3), 0), OrbitGenerator("y", Fraction(1, 2), 0),
             OrbitGenerator("z", Fraction(0), 0)],
            {},
        )
        third, sixth = mono(1, Fraction(1, 3)), mono(2, Fraction(1, 6))
        for vec, coord in [({1: sixth, 0: third, 2: mono(1, 0)}, 0),
                           ({2: mono(5, Fraction(2, 3)), 1: sixth}, 1)]:
            got, lvl = _lead(vec, cx)
            assert got == coord and Fraction(*lvl) == Fraction(2, 3)
        assert _lead({2: mono(1, Fraction(3, 4)), 0: third}, cx)[0] == 2


class TestBoundaryDetection:
    def test_infinite_descent_boundary_terminates(self):
        # e1 = (1 - q^{-2})^{-1} (delta b1 + q^{-1} delta b2): a boundary
        # over the field even though a greedy level reduction on it
        # would descend forever.
        cx = FilteredComplex(
            QQ,
            PeriodLattice((Fraction(1),)),
            [
                OrbitGenerator("e1", Fraction(0), 0),
                OrbitGenerator("e2", Fraction(0), 0),
                OrbitGenerator("b1", Fraction(1), 1),
                OrbitGenerator("b2", Fraction(1), 1),
            ],
            {
                ("b1", "e1"): mono(1, 0),
                ("b1", "e2"): mono(-1, -1),
                ("b2", "e2"): mono(1, 0),
                ("b2", "e1"): mono(-1, -1),
            },
        )
        res = spectral_number(cx, {"e1": NovikovScalar.one(QQ)})
        assert res.is_boundary
        assert res.value == NEG_INF
        assert res.witness_cycle is None

    def test_plain_boundary(self):
        cx = hand_case()
        z = cx.apply_differential({"b": mono(2, -3)})
        res = spectral_number(cx, z)
        assert res.is_boundary

    def test_not_closed_rejected(self):
        cx = hand_case()
        with pytest.raises(ValueError):
            spectral_number(cx, {"b": NovikovScalar.one(QQ)})

    def test_zero_chain_is_boundary(self):
        cx = hand_case()
        assert spectral_number(cx, {}).is_boundary


class TestRandomSweeps:
    def test_homology_ranks_match_construction(self):
        rng = random.Random(23)
        for _ in range(60):
            data = random_complex(rng)
            got = {k: v for k, v in homology_rank(data.complex).items() if v}
            assert got == data.expected_ranks()

    def test_unconjugated_value_oracle(self):
        # without conjugation the class of a free generator attains its
        # level immediately: c(lambda * u) = v(lambda) + action(u)
        rng = random.Random(29)
        checked = 0
        for _ in range(60):
            data = random_complex(rng, conjugate=False)
            cx = data.complex
            for gid in data.free_ids:
                lam = random_scalar(rng, cx.field, cx.lattice)
                res = spectral_number(cx, {gid: lam})
                assert res.value == lam.valuation() + cx.generator(gid).action
                checked += 1
        assert checked > 50

    def test_spectrality_on_conjugated_complexes(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(60):
            data = random_complex(rng)
            cx = data.complex
            z = data.random_cycle(rng)
            if z is None:
                continue
            res = spectral_number(cx, z)
            assert not res.is_boundary
            assert spectrum(cx).contains(res.value)
            gid, vec = res.spectrality
            assert cx.generator(gid).action - cx.lattice.omega(vec) == res.value
            assert level(res.witness_cycle, cx) == res.value
            # the witness stays in the same class: difference is a boundary
            diff = dict(res.witness_cycle)
            for g, c in z.items():
                diff[g] = diff[g] - c if g in diff else -c
            dres = spectral_number(cx, diff)
            assert dres.is_boundary
            checked += 1
        assert checked > 40

    def test_boundaries_report_neg_inf(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(60):
            data = random_complex(rng)
            z = data.random_cycle(rng, boundary=True)
            if z is None:
                continue
            res = spectral_number(data.complex, z)
            assert res.is_boundary
            checked += 1
        assert checked > 30

    def test_shift_axiom_random(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(40):
            data = random_complex(rng)
            cx = data.complex
            z = data.random_cycle(rng)
            if z is None:
                continue
            base = spectral_number(cx, z).value
            for _ in range(3):
                lam = random_scalar(rng, cx.field, cx.lattice)
                shifted = {g: c * lam for g, c in z.items()}
                assert spectral_number(cx, shifted).value == base + lam.valuation()
                checked += 1
        assert checked > 40

    def test_gaussian_mode_sweep(self):
        rng = random.Random(43)
        QI = CoefficientField("gaussian")
        for _ in range(20):
            data = random_complex(rng, field=QI, max_generators=6)
            got = {k: v for k, v in homology_rank(data.complex).items() if v}
            assert got == data.expected_ranks()
            z = data.random_cycle(rng)
            if z is None:
                continue
            res = spectral_number(data.complex, z)
            assert spectrum(data.complex).contains(res.value)

    def test_floating_mode_sweep(self):
        rng = random.Random(47)
        for _ in range(20):
            data = random_complex(rng, field=CC, max_generators=6)
            got = {k: v for k, v in homology_rank(data.complex).items() if v}
            assert got == data.expected_ranks()


class TestFloatingAudit:
    def test_small_pivot_flagged(self):
        eps = 1e-9
        field = CoefficientField("complex", eps)
        cx = FilteredComplex(
            field,
            PeriodLattice((Fraction(1),)),
            [
                OrbitGenerator("b", Fraction(1), 1),
                OrbitGenerator("a", Fraction(0), 0),
                OrbitGenerator("c", Fraction(0), 0),
            ],
            {
                ("b", "a"): NovikovScalar.monomial(field, 5e-9, Fraction(-1)),
                ("b", "c"): NovikovScalar.monomial(field, 1.0, Fraction(-1)),
            },
        )
        report = homology_report(cx)
        assert report["pivot_audit"]
        flagged = report["pivot_audit"][0]
        assert flagged["pivot_magnitude"] < flagged["threshold"]


class TestSpectrumJson:
    def test_spectrum_serialization(self):
        cx = hand_case()
        blob = spectrum(cx).to_json()
        assert blob["base_actions"] == ["1", "2", "3"]
        assert blob["period_group_generator"] == "1/2"
