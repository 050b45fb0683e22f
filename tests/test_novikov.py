"""Novikov scalar arithmetic: frozen oracles and ring-axiom sweeps."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novspec import NEG_INF, CoefficientField, GaussianRational, NovikovScalar
from novspec.fields import field_for_mode, rational_gcd

QQ = CoefficientField("rational")
QI = CoefficientField("gaussian")
CC = CoefficientField("complex", 1e-12)


def mono(coeff, exp, field=QQ):
    return NovikovScalar.monomial(field, coeff, Fraction(exp))


def rand_scalar(rng, field=QQ, max_terms=3, with_floor=False):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exp = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4]))
        coeff = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
        if coeff:
            terms.append((exp, coeff))
    floor = NEG_INF
    if with_floor and rng.random() < 0.5:
        floor = Fraction(rng.randint(-12, -9))
    return NovikovScalar(field, terms, floor)


class TestConstruction:
    def test_zero_has_no_terms_and_neg_inf_valuation(self):
        z = NovikovScalar.zero(QQ)
        assert z.is_zero() and z.is_exact_zero()
        assert z.valuation() == NEG_INF

    def test_terms_sorted_strictly_decreasing(self):
        x = NovikovScalar(QQ, [(Fraction(1), 2), (Fraction(3), 1), (Fraction(1), 1)])
        exps = [e for e, _ in x.terms]
        assert exps == [Fraction(3), Fraction(1)]
        assert x.coefficient_at(1) == 3

    def test_sub_floor_terms_dropped_at_construction(self):
        # q^{-5} with floor -3 normalizes to the zero-to-floor scalar.
        x = NovikovScalar(QQ, [(Fraction(-5), 1)], floor=Fraction(-3))
        assert x.is_zero()
        assert not x.is_exact_zero()
        assert x.floor == Fraction(-3)

    def test_normalization_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            x = rand_scalar(rng, with_floor=True)
            again = NovikovScalar(QQ, x.terms, x.floor)
            assert again == x

    def test_floating_eps_drops_tiny_coefficients(self):
        x = NovikovScalar(CC, [(Fraction(2), 1e-15), (Fraction(0), 1.0)])
        assert len(x.terms) == 1
        assert x.valuation() == 0

    def test_immutable(self):
        x = mono(1, 1)
        with pytest.raises(AttributeError):
            x.floor = Fraction(0)


class TestAddMul:
    def test_add_exact_cancellation(self):
        x = NovikovScalar(QQ, [(Fraction(1, 2), 2), (Fraction(-1), 1)])
        y = NovikovScalar(QQ, [(Fraction(1, 2), -2)])
        s = x + y
        assert s.terms == ((Fraction(-1), Fraction(1)),)

    def test_add_takes_coarser_floor(self):
        x = NovikovScalar(QQ, [(Fraction(0), 1)], floor=Fraction(-2))
        y = NovikovScalar(QQ, [(Fraction(-1), 1), (Fraction(-3), 5)])
        s = x + y
        assert s.floor == Fraction(-2)
        # the q^{-3} term of y drowns below the coarser floor
        assert s.coefficient_at(-3) == 0
        assert s.coefficient_at(-1) == 1

    def test_mul_square(self):
        x = NovikovScalar(QQ, [(Fraction(0), 1), (Fraction(-1), 1)])
        sq = x * x
        assert sq == NovikovScalar(
            QQ, [(Fraction(0), 1), (Fraction(-1), 2), (Fraction(-2), 1)]
        )

    def test_mul_floor_propagation_is_sharp(self):
        # x known above -2, valuation 0; y exact with valuation 1:
        # the product can be trusted only above -1.
        x = NovikovScalar(QQ, [(Fraction(0), 1)], floor=Fraction(-2))
        y = NovikovScalar(QQ, [(Fraction(1), 1), (Fraction(-4), 1)])
        p = x * y
        assert p.floor == Fraction(-1)
        assert p.coefficient_at(1) == 1

    def test_mul_by_exact_zero_is_exact_zero(self):
        x = NovikovScalar(QQ, [(Fraction(0), 1)], floor=Fraction(-2))
        z = NovikovScalar.zero(QQ)
        assert (x * z).is_exact_zero()

    def test_truncate_then_multiply_matches(self):
        rng = random.Random(11)
        for _ in range(60):
            x = rand_scalar(rng)
            y = rand_scalar(rng)
            if x.is_zero() or y.is_zero():
                continue
            floor = Fraction(rng.randint(-6, 0))
            direct = (x * y).truncate(floor)
            staged = (
                x.truncate(floor - y.valuation()) * y.truncate(floor - x.valuation())
            ).truncate(floor)
            assert direct.terms == staged.terms

    def test_ring_axioms_random(self):
        rng = random.Random(3)
        for field in (QQ, QI):
            for _ in range(40):
                x = rand_scalar(rng, field)
                y = rand_scalar(rng, field)
                z = rand_scalar(rng, field)
                assert (x + y) + z == x + (y + z)
                assert x + y == y + x
                assert x * y == y * x
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                one = NovikovScalar.one(field)
                assert x * one == x

    def test_valuation_laws(self):
        rng = random.Random(5)
        for _ in range(80):
            x = rand_scalar(rng)
            y = rand_scalar(rng)
            vx, vy = x.valuation(), y.valuation()
            assert (x + y).valuation() <= max(vx, vy)
            pv = (x * y).valuation()
            if x.is_zero() or y.is_zero():
                assert pv == NEG_INF
            else:
                assert pv == vx + vy


class TestInvert:
    def test_monomial_inverts_exactly(self):
        x = mono(Fraction(3, 2), Fraction(1, 2))
        inv = x.invert()
        assert inv.is_monomial()
        assert inv.terms == ((Fraction(-1, 2), Fraction(2, 3)),)
        assert (x * inv) == NovikovScalar.one(QQ)

    def test_geometric_series_to_floor(self):
        x = NovikovScalar(QQ, [(Fraction(0), 1), (Fraction(-1), -1)])
        inv = x.invert(floor=Fraction(-4))
        expect = NovikovScalar(
            QQ,
            [(Fraction(0), 1), (Fraction(-1), 1), (Fraction(-2), 1), (Fraction(-3), 1)],
            floor=Fraction(-4),
        )
        assert inv == expect
        assert (x * inv - NovikovScalar.one(QQ)).is_zero()

    def test_multi_term_exact_requires_floor(self):
        x = NovikovScalar(QQ, [(Fraction(0), 1), (Fraction(-1), -1)])
        with pytest.raises(ValueError):
            x.invert()

    def test_zero_not_invertible(self):
        with pytest.raises(ZeroDivisionError):
            NovikovScalar.zero(QQ).invert()
        with pytest.raises(ZeroDivisionError):
            NovikovScalar.zero(QQ, floor=Fraction(-1)).invert()

    def test_inverse_valuation_negates(self):
        rng = random.Random(13)
        for _ in range(40):
            x = rand_scalar(rng)
            if x.is_zero():
                continue
            inv = x.invert(floor=-x.valuation() - 8)
            assert inv.valuation() == -x.valuation()
            assert (x * inv - NovikovScalar.one(QQ)).is_zero()

    def test_finite_floor_single_term_keeps_uncertainty(self):
        # 1 * q^2 known only above floor 1: the inverse is q^{-2} with
        # everything below floor 1 - 2*2 = -3 unknowable.
        x = NovikovScalar(QQ, [(Fraction(2), 1)], floor=Fraction(1))
        inv = x.invert()
        assert inv.terms == ((Fraction(-2), Fraction(1)),)
        assert inv.floor == Fraction(-3)

    def test_gaussian_inverse(self):
        x = NovikovScalar.monomial(QI, GaussianRational(1, 1), Fraction(1))
        inv = x.invert()
        prod = x * inv
        assert prod == NovikovScalar.one(QI)


class TestSerialization:
    def test_round_trip_rational(self):
        x = NovikovScalar(
            QQ, [(Fraction(3, 2), Fraction(2, 3)), (Fraction(-1), -1)], Fraction(-5)
        )
        blob = x.to_json()
        assert blob["floor"] == "-5"
        assert blob["terms"][0] == {"c": "2/3", "exp": "3/2"}
        assert NovikovScalar.from_json(QQ, blob) == x

    def test_round_trip_gaussian(self):
        x = NovikovScalar(
            QI, [(Fraction(0), GaussianRational(1, Fraction(-1, 2)))]
        )
        assert NovikovScalar.from_json(QI, x.to_json()) == x

    def test_round_trip_complex(self):
        x = NovikovScalar(CC, [(Fraction(1, 3), 1.5 + 2.0j)])
        y = NovikovScalar.from_json(CC, x.to_json())
        assert y == x

    def test_neg_inf_floor_serializes(self):
        x = mono(1, 0)
        assert x.to_json()["floor"] == "-inf"
        assert NovikovScalar.from_json(QQ, x.to_json()) == x


class TestFieldPlumbing:
    def test_incompatible_fields_rejected(self):
        with pytest.raises(ValueError):
            mono(1, 0, QQ) + mono(1, 0, QI)

    def test_exact_modes_reject_eps(self):
        with pytest.raises(ValueError):
            CoefficientField("rational", 1e-9)

    def test_floating_mode_requires_eps(self):
        with pytest.raises(ValueError):
            CoefficientField("complex", 0.0)

    def test_field_for_mode(self):
        assert field_for_mode("rational").exact
        assert field_for_mode("complex").eps == 1e-12

    def test_rational_gcd(self):
        assert rational_gcd(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)
        assert rational_gcd(Fraction(3, 2), Fraction(0)) == Fraction(3, 2)
        assert rational_gcd(Fraction(4), Fraction(6)) == 2


# -- properties of truncated products and inverses ----------------------------

MODES = {"rational": QQ, "gaussian": QI, "complex": CC}
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

exponents = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
finite_floors = st.builds(Fraction, st.integers(-18, -1), st.integers(1, 6))
floors = st.one_of(st.just(NEG_INF), finite_floors)
# Small dyadic parts keep complex products exact, so every mode can be
# compared with the reference on the nose.
parts = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2]))


@st.composite
def coefficients(draw, field):
    re, im = draw(parts), draw(parts)
    if field is QQ:
        return re
    if field is QI:
        return GaussianRational(re, im)
    return complex(float(re), float(im))


@st.composite
def scalars(draw, field, floor=floors):
    terms = draw(st.lists(st.tuples(exponents, coefficients(field)), max_size=4))
    return NovikovScalar(field, terms, draw(floor))


@st.composite
def scalar_pairs(draw):
    field = MODES[draw(st.sampled_from(sorted(MODES)))]
    return draw(scalars(field)), draw(scalars(field))


def _add_floors(a, b):
    return NEG_INF if NEG_INF in (a, b) else a + b


def reference_product(x, y):
    """Plain double loop over Fraction exponents, truncated at the sharp
    floor max(floor_x + v(y), floor_y + v(x))."""
    floor = max(
        _add_floors(x.floor, y.valuation()), _add_floors(y.floor, x.valuation())
    )
    acc = {}
    for e1, c1 in x.terms:
        for e2, c2 in y.terms:
            e = e1 + e2
            if e > floor:
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return NovikovScalar(x.field, acc.items(), floor)


class TestArithmeticProperties:
    @PROPERTY
    @given(scalar_pairs())
    def test_product_matches_reference(self, pair):
        x, y = pair
        assert x * y == reference_product(x, y)

    @PROPERTY
    @given(st.data())
    def test_inverse_times_scalar_is_one_above_floor(self, data):
        field = MODES[data.draw(st.sampled_from(sorted(MODES)))]
        x = data.draw(scalars(field))
        if x.is_zero():
            return
        inv = x.invert(data.draw(finite_floors) - x.valuation())
        prod = inv * x
        if field.exact:
            assert prod == NovikovScalar.one(field).truncate(prod.floor)
            return
        # Floating mode: 1 up to rounding, measured against the size of
        # the products summed into each coefficient.
        scale = sum(abs(c) for _, c in inv.terms) * sum(abs(c) for _, c in x.terms)
        for e, c in prod.terms:
            assert abs(c - (1 if e == 0 else 0)) <= 1e-12 * scale
        assert prod.floor >= 0 or prod.coefficient_at(0) != 0
