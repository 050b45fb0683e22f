"""Complex construction, validation, lattices, levels, serialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from novspec import CoefficientField, NovikovScalar
from novspec.complexes import (
    FilteredComplex,
    OrbitGenerator,
    PeriodLattice,
    _xgcd,
    chain_from_json,
    chain_to_json,
    validate_complex,
)
from novspec.fields import field_for_mode
from novspec.randomcx import random_complex
from novspec.records import NEG_INF

from reference import level, omega, xgcd

QQ = CoefficientField("rational")


def mono(c, e):
    return NovikovScalar.monomial(QQ, c, Fraction(e))


def make(gens, diff, periods=(), floor=NEG_INF):
    return FilteredComplex(
        QQ,
        PeriodLattice(tuple(Fraction(p) for p in periods)),
        [OrbitGenerator(g, Fraction(a), d) for g, a, d in gens],
        {k: v for k, v in diff.items()},
        floor,
    )


class TestLattice:
    def test_omega_and_generator(self):
        lat = PeriodLattice((Fraction(1, 2), Fraction(3, 4)))
        assert omega(lat, (2, -1)) == Fraction(1, 4)
        assert lat.group_generator() == Fraction(1, 4)

    def test_contains(self):
        # membership in the period group is solvability of omega(n) == value
        lat = PeriodLattice((Fraction(1, 2), Fraction(3, 4)))
        assert lat.solve(Fraction(7, 4)) is not None
        assert lat.solve(Fraction(1, 3)) is None
        trivial = PeriodLattice(())
        assert trivial.solve(0) is not None
        assert trivial.solve(1) is None

    def test_solve_produces_exact_vector(self):
        lat = PeriodLattice((Fraction(1, 2), Fraction(3, 4)))
        rng = random.Random(2)
        for _ in range(40):
            n = (rng.randint(-6, 6), rng.randint(-6, 6))
            t = omega(lat, n)
            sol = lat.solve(t)
            assert sol is not None
            assert omega(lat, sol) == t
        assert lat.solve(Fraction(1, 3)) is None

    def test_solve_zero_periods(self):
        lat = PeriodLattice((Fraction(0),))
        assert lat.solve(0) == (0,)
        assert lat.solve(1) is None

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**40, 10**40), st.integers(-10**40, 10**40))
    @example(0, 0)
    @example(0, -7)
    @example(-7, 0)
    @example(-12, 18)
    def test_xgcd_matches_the_recursive_reference(self, a, b):
        assert _xgcd(a, b) == xgcd(a, b)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PeriodLattice.from_json({"rank": 2, "periods": ["1"]})


class TestConstruction:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            make([("a", 0, 0), ("a", 1, 0)], {})

    def test_unknown_differential_ids_rejected(self):
        with pytest.raises(ValueError):
            make([("a", 0, 0)], {("a", "zz"): mono(1, -1)})

    def test_zero_entries_dropped(self):
        cx = make(
            [("b", 1, 1), ("a", 0, 0)],
            {("b", "a"): NovikovScalar.zero(QQ)},
        )
        assert cx.entries == {}


class TestValidation:
    def test_zero_differential_valid(self):
        cx = make([("a", 0, 0), ("b", 5, 1)], {})
        report = validate_complex(cx)
        assert report.valid and not report.violations

    def test_equal_actions_invalid(self):
        cx = make(
            [("b", 1, 1), ("a", 1, 0)],
            {("b", "a"): mono(1, 0)},
        )
        report = validate_complex(cx)
        assert not report.valid
        assert any("strict action drop" in v for v in report.violations)

    def test_action_drop_counts_valuation(self):
        # exponent -2 on an arrow from action 1 to action 2 still drops
        cx = make(
            [("b", 1, 1), ("a", 2, 0)],
            {("b", "a"): mono(1, -2)},
            periods=(1,),
        )
        assert validate_complex(cx).valid

    def test_action_drop_boundary_on_the_exponent_grid(self):
        # Actions 1/3 -> 1/2 over denominator 6: the entry q^{-1/6} meets
        # v + action(dst) == action(src) exactly, and one step down the
        # entry's grid drops strictly.
        gens = [("b", Fraction(1, 3), 1), ("a", Fraction(1, 2), 0)]
        equal = validate_complex(make(gens, {("b", "a"): mono(1, Fraction(-1, 6))}))
        assert equal.violations == ["no strict action drop on b->a: -1/6 + 1/2 >= 1/3"]
        assert validate_complex(make(gens, {("b", "a"): mono(1, Fraction(-2, 6))})).valid
        # an entry of two terms on grid 12, led by the boundary exponent
        lead = NovikovScalar(QQ, [(Fraction(-2, 12), 1), (Fraction(-5, 12), 3)])
        assert not validate_complex(make(gens, {("b", "a"): lead})).valid

    def test_even_degree_drop_invalid(self):
        cx = make(
            [("b", 1, 2), ("a", 0, 0)],
            {("b", "a"): mono(1, 0)},
        )
        report = validate_complex(cx)
        assert not report.valid
        assert any("degree" in v for v in report.violations)

    def test_degree_drop_three_is_mod2_consistent(self):
        cx = make(
            [("b", 1, 3), ("a", 0, 0)],
            {("b", "a"): mono(1, 0)},
        )
        report = validate_complex(cx)
        assert report.valid
        assert not report.z_graded

    def test_delta_squared_violation_detected(self):
        cx = make(
            [("c", 2, 2), ("b", 1, 1), ("a", 0, 0)],
            {
                ("c", "b"): mono(1, Fraction(-1, 2)),
                ("b", "a"): mono(1, Fraction(-1, 2)),
            },
            periods=(Fraction(1, 2),),
        )
        report = validate_complex(cx)
        assert not report.valid
        assert any("delta squared" in v for v in report.violations)

    def test_exponent_outside_lattice_is_warning_only(self):
        cx = make(
            [("b", 1, 1), ("a", 0, 0)],
            {("b", "a"): mono(1, Fraction(-1, 3))},
            periods=(1,),
        )
        report = validate_complex(cx)
        assert report.valid
        assert not report.exponents_in_lattice
        assert report.warnings

    def test_random_generated_complexes_validate(self):
        rng = random.Random(101)
        for _ in range(40):
            data = random_complex(rng)
            report = validate_complex(data.complex)
            assert report.valid, report.violations
            assert report.exponents_in_lattice


class TestChainsAndLevels:
    def test_level_is_max_valuation_plus_action(self):
        cx = make([("a", 3, 0), ("b", 1, 0)], {})
        chain = {"a": mono(1, -4), "b": mono(2, 1)}
        assert level(chain, cx) == 2

    def test_level_of_zero_chain(self):
        cx = make([("a", 3, 0)], {})
        assert level({}, cx) == NEG_INF

    def test_level_unknown_id(self):
        cx = make([("a", 3, 0)], {})
        with pytest.raises(KeyError):
            level({"zz": mono(1, 0)}, cx)

    def test_apply_differential(self):
        cx = make(
            [("b", 2, 1), ("a", 0, 0)],
            {("b", "a"): mono(1, -1)},
            periods=(1,),
        )
        out = cx.apply_differential({"b": mono(3, 2)})
        assert out["a"] == mono(3, 1)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(7)
        for mode in ("rational", "gaussian", "complex"):
            field = field_for_mode(mode)
            for _ in range(25):
                cx = random_complex(rng, field).complex
                blob = cx.to_json()
                back = FilteredComplex.from_json(blob)
                assert back.to_json() == blob
                assert (back.action_nums, back.action_den) == (cx.action_nums, cx.action_den)
                assert back.entries == cx.entries
                assert validate_complex(back).valid

    def test_chain_round_trip(self):
        cx = make([("a", 3, 0), ("b", 1, 0)], {})
        chain = {"a": mono(Fraction(1, 2), -4), "b": mono(2, 1)}
        blob = chain_to_json(chain)
        back = chain_from_json(cx, blob)
        assert back == chain

    def test_chain_unknown_generator_rejected(self):
        cx = make([("a", 3, 0)], {})
        with pytest.raises(ValueError):
            chain_from_json(cx, [{"id": "zz", "coeff": [{"c": "1", "exp": "0"}]}])
