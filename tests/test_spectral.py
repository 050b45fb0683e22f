"""Spectral numbers, homology ranks, spectra: frozen oracles and sweeps."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from novspec import CoefficientField, GaussianRational, NovikovScalar
from novspec.complexes import (
    FilteredComplex,
    OrbitGenerator,
    PeriodLattice,
)
from novspec.fields import field_for_mode
from novspec.randomcx import random_complex, random_scalar
from novspec.records import NEG_INF
from novspec.spectral import (
    _lead,
    _vec_normalize,
    homology_rank,
    homology_report,
    spectral_number,
    spectrum,
)

from reference import level, omega, rational_gcd

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
        assert g.action - omega(cx.lattice, vec) == res.value

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
            assert cx.generator(gid).action - omega(cx.lattice, vec) == res.value
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

    def test_mixed_denominators_duplicates_and_negatives(self):
        actions = ["-3/4", "1/6", "-3/4", "2", "1/6", "-1/2", "0", "-7/3"]
        cx = FilteredComplex(
            QQ, PeriodLattice((Fraction(1, 3),)),
            [OrbitGenerator(f"g{i}", Fraction(a), 0) for i, a in enumerate(actions)], {},
        )
        spec = spectrum(cx)
        assert spec.base_actions == tuple(sorted({Fraction(a) for a in actions}))
        assert all(type(a) is Fraction for a in spec.base_actions)
        assert spec.to_json()["base_actions"] == ["-7/3", "-3/4", "-1/2", "0", "1/6", "2"]
        assert spec.contains(Fraction(-5, 12)) and not spec.contains(Fraction(1, 5))

    @pytest.mark.parametrize("mode", ["rational", "gaussian", "complex"])
    def test_base_actions_are_the_sorted_distinct_actions(self, mode):
        rng = random.Random(41)
        for _ in range(30):
            cx = random_complex(rng, field_for_mode(mode)).complex
            expected = tuple(sorted({g.action for g in cx.generators}))
            assert spectrum(cx).base_actions == expected


# -- normalization ---------------------------------------------------------------
#
# ``_vec_normalize`` divides a vector by its content and by the monomial of
# its largest valuation.  The reference does that coordinate by coordinate
# with ``scale`` and ``shift``; the two must agree to the bit, signed zeros
# included, so coordinates are compared through their JSON text.

norm_exponents = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6]))
norm_parts = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 9]))
# Float parts stay below 50 in magnitude, so 1/top stays above eps: the
# reference's scale factor is then a nonzero element of the complex field.
norm_floats = st.one_of(st.sampled_from([0.0, -0.0]),
                        st.floats(-50, 50, allow_nan=False, allow_infinity=False))
norm_floors = st.one_of(st.just(NEG_INF), st.builds(Fraction, st.integers(-40, -13), st.integers(1, 4)))


@st.composite
def norm_vectors(draw):
    field = field_for_mode(draw(st.sampled_from(["rational", "gaussian", "complex"])))

    def coefficient():
        if field.mode == "rational":
            return draw(norm_parts)
        if field.mode == "gaussian":
            return GaussianRational(draw(norm_parts), draw(norm_parts))
        return complex(draw(norm_floats), draw(norm_floats))

    v = {}
    for _ in range(draw(st.integers(1, 4))):
        terms = [(draw(norm_exponents), coefficient()) for _ in range(draw(st.integers(0, 3)))]
        v[draw(st.integers(0, 9))] = NovikovScalar(field, terms, draw(norm_floors))
    return field, v


def reference_normalize(v, field):
    """Each coordinate times the inverse content (exact modes) or the inverse
    largest magnitude (complex mode), then shifted by minus the largest
    valuation."""
    if all(s.is_zero() for s in v.values()):
        return v
    top = max(s.valuation() for s in v.values() if not s.is_zero())
    if field.exact:
        content = Fraction(0)
        for s in v.values():
            for _, c in s.terms:
                for part in (c,) if field.mode == "rational" else (c.re, c.im):
                    content = rational_gcd(content, part)
        factor = 1 / content
    else:
        factor = complex(1.0 / max(m for s in v.values() for m in s.magnitudes()), 0.0)
    return {i: s.scale(factor).shift(-top) for i, s in v.items()}


def _texts(v):
    return {i: json.dumps(s.to_json()) for i, s in v.items()}


class TestNormalize:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(norm_vectors())
    @example((CC, {0: NovikovScalar(CC, [(0, 1.0), (-1, complex(-0.0, -0.5))])}))
    def test_matches_scale_then_shift(self, case):
        field, v = case
        got, ref = _vec_normalize(v, field), reference_normalize(v, field)
        assert got == ref and _texts(got) == _texts(ref)
        # A normalized exact vector has unit 1 and comes back as it is.
        # Complex mode scales by 1.0 anyway, as ``scale`` does: that turns a
        # -0.0 part beside a negative one into 0.0 (the explicit example).
        again = _vec_normalize(got, field)
        assert _texts(again) == _texts(reference_normalize(got, field))
        if field.exact:
            assert again is got

    def test_complex_vector_beyond_one_over_eps_keeps_its_span(self):
        # The factor 1/top falls below eps here; it still divides by a unit
        # and must not zero the vector.
        v = {0: mono(2e12, 0, CC), 1: mono(3.0, -1, CC)}
        got = _vec_normalize(v, CC)
        assert [s.terms for s in got.values()] == [((0, 1.0),), ((-1, 1.5e-12),)]
