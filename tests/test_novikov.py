"""Novikov scalar arithmetic: frozen oracles and ring-axiom sweeps."""

import json
import math
import random
import struct
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from novspec import NEG_INF, CoefficientField, GaussianRational, NovikovScalar
from novspec.complexes import PeriodLattice
from novspec.fields import field_for_mode
from novspec.novikov import _nonzero, _row_product
from novspec.potential import _shifted, _weighted_sum
from novspec.records import parse_fraction
from reference import (inverse_floor, product_floor, shifted_floor, sum_floor, truncate_floor,
                       weighted_sum_floor)

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
        assert dict(x.terms).get(1, 0) == 3

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
        assert dict(s.terms).get(-3, 0) == 0
        assert dict(s.terms).get(-1, 0) == 1

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
        assert dict(p.terms).get(1, 0) == 1

    def test_mul_by_exact_zero_is_exact_zero(self):
        x = NovikovScalar(QQ, [(Fraction(0), 1)], floor=Fraction(-2))
        z = NovikovScalar.zero(QQ)
        assert (x * z).is_exact_zero()

    def test_mul_of_zeros_to_floor_keeps_a_floor(self):
        # Each factor may hide terms below -1, so the product may hide terms
        # below -2: it is zero to that floor, not exactly zero.
        x = NovikovScalar.zero(QQ, Fraction(-1))
        assert (x * x).floor == Fraction(-2)
        assert (x * NovikovScalar.zero(QQ)).is_exact_zero()

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

    def test_near_cancelling_complex_inverse(self):
        # The q^-2 entry of the series sums to 1 - (1 + 5e-13), below eps:
        # it is dropped, as a sum of scalars drops it, and the inverse has
        # no q^-2 term (keeping the sum would print -5.0004e-10 there).
        x = NovikovScalar(CC, [(0, 1e-3), (-1, 1e-3), (-2, 1e-3 * (1 + 5e-13))])
        assert json.dumps(x.invert(-4).to_json()) == (
            '{"terms": [{"c": {"re": 1000.0, "im": 0.0}, "exp": "0"}, '
            '{"c": {"re": -1000.0, "im": -0.0}, "exp": "-1"}, '
            '{"c": {"re": 1000.0000000010001, "im": 0.0}, "exp": "-3"}], '
            '"floor": "-4"}'
        )


    def test_complex_inverse_lead_below_eps_raises(self):
        # 1/3e12 is below eps = 1e-12: the inverse would read as an exact
        # zero, and x * x.invert() as 0, so inverting raises instead.
        with pytest.raises(ValueError, match="inverse lead below eps"):
            NovikovScalar.monomial(CC, 3e12, 0).invert()
        x = NovikovScalar(CC, [(0, 3e12 + 1j), (-1, 1.0)])
        with pytest.raises(ValueError, match="inverse lead below eps"):
            x.invert(Fraction(-5))


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
        def gcd_of(a, b):
            return PeriodLattice((Fraction(a), Fraction(b))).group_generator()

        assert gcd_of(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)
        assert gcd_of(Fraction(3, 2), 0) == Fraction(3, 2)
        assert gcd_of(4, 6) == 2


def reference_parse_fraction(value):
    """``parse_fraction`` on a string before it read plain forms with
    ``int()``: ``Fraction``, with a zero denominator raised as ValueError."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


# digit runs: short ones, zeros, and runs at and past the 4,300-digit limit
# of int() on strings
digit_runs = st.one_of(
    st.text("0123456789", min_size=1, max_size=8),
    st.sampled_from(["0", "00"]),
    st.integers(4295, 4305).map(lambda n: "7" * n),
)
plain_rationals = st.builds(
    lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
    st.sampled_from(["", "-"]),
    digit_runs,
    st.one_of(st.none(), digit_runs),
)
rational_texts = st.one_of(
    plain_rationals,
    st.text("0123456789-+/.e_ \u0663", max_size=10),
    st.lists(st.one_of(plain_rationals, st.sampled_from(list("-+/.e_ \u0663"))), max_size=4)
    .map("".join),
)


class TestParseFraction:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(rational_texts)
    @example("7" * 4301 + "/" + "7" * 4302)
    @example("-" + "7" * 4301 + "/0")
    @example("1/" + "0" * 4301)
    def test_matches_the_fraction_constructor(self, text):
        try:
            expected = reference_parse_fraction(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                parse_fraction(text)
            assert str(got.value) == str(exc)
        else:
            got = parse_fraction(text)
            assert type(got) is Fraction and got == expected
            assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)

    @pytest.mark.parametrize(
        "text, value",
        [("3/2", Fraction(3, 2)), ("-6/4", Fraction(-3, 2)), ("-0", 0), ("0/5", 0),
         ("0.5", Fraction(1, 2)), (" 3/2 ", Fraction(3, 2)), ("+2", 2), ("1e2", 100)],
    )
    def test_reads_plain_and_generic_forms(self, text, value):
        assert parse_fraction(text) == value

    @pytest.mark.parametrize("text", ["1/0", "-3/00", "1/-2", "\u0663/0", "", "/2", "2/"])
    def test_rejects_with_value_error(self, text):
        with pytest.raises(ValueError):
            parse_fraction(text)


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
    floor max(floor_x + v(y), floor_y + v(x)), a factor that is zero down
    to its floor counting its floor as v."""
    floor = product_floor(x, y)
    acc = {}
    for e1, c1 in x.terms:
        for e2, c2 in y.terms:
            e = e1 + e2
            if e > floor:
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return NovikovScalar(x.field, acc.items(), floor)


def coefficient_inverse(a):
    """1 / a, or conj(a) / |a|^2 for a GaussianRational."""
    if isinstance(a, GaussianRational):
        norm = a.re * a.re + a.im * a.im
        return GaussianRational(a.re / norm, -a.im / norm)
    return 1 / a


def reference_inverse(x, floor):
    """Geometric series a0^{-1} q^{-w0} sum (-u)^k with u = (x - lead) / lead,
    one truncated power at a time, every product by ``reference_product``."""
    field = x.field
    w0, a0 = x.terms[0]
    out_floor = max(_add_floors(x.floor, -2 * w0), floor)
    inv_lead = NovikovScalar.monomial(field, coefficient_inverse(a0), -w0)
    if len(x.terms) == 1:
        return NovikovScalar(field, inv_lead.terms, out_floor)
    rest = NovikovScalar(field, x.terms[1:], x.floor)
    neg_u = -reference_product(rest, inv_lead).truncate(out_floor + w0)
    series = power = NovikovScalar.one(field)
    while True:
        power = reference_product(power, neg_u).truncate(out_floor + w0)
        if power.is_zero():
            break
        series = series + power
    return reference_product(inv_lead, series).truncate(out_floor)


# Complex scalars with generic float parts: non-dyadic values whose
# products round, signed zeros, and magnitudes next to eps = 1e-12.
float_parts = st.one_of(
    st.floats(-4, 4),
    st.sampled_from([0.0, -0.0]),
    st.floats(-3e-12, 3e-12),
)


@st.composite
def float_scalars(draw, floor=floors):
    coeffs = st.builds(complex, float_parts, float_parts)
    terms = draw(st.lists(st.tuples(exponents, coeffs), max_size=6))
    return NovikovScalar(CC, terms, draw(floor))


def _series_floor(data, x):
    """A floor k powers of u deep, on or next to a grid exponent, so the
    series of x's inverse stays short while the cut meets terms."""
    w0 = x.terms[0][0]
    gap = w0 - x.terms[1][0] if len(x.terms) > 1 else Fraction(1)
    k = data.draw(st.integers(1, 5))
    nudge = data.draw(st.sampled_from([Fraction(0), Fraction(1, 7), Fraction(-1, 7)]))
    return -w0 - k * gap + nudge


def _bits(x):
    """JSON text of a scalar; unlike ==, it tells -0.0 from 0.0."""
    return json.dumps(x.to_json())


# Exact-mode scalars for the integer kernel: numerators up to 2^64 over
# pairwise coprime denominators, up to 12 terms, some of them cancelled to
# exact zero at construction.
big_parts = st.builds(
    Fraction,
    st.integers(-(2**64), 2**64),
    st.sampled_from([1, 2, 3, 5, 7, 11, 13, 2**61 - 1]),
)


@st.composite
def big_coefficients(draw, field):
    re = draw(big_parts)
    return GaussianRational(re, draw(big_parts)) if field is QI else re


@st.composite
def exact_scalars(draw, field, floor=floors):
    terms = draw(st.lists(st.tuples(exponents, big_coefficients(field)), max_size=12))
    cancelled = [(e, -c) for e, c in terms if draw(st.booleans())]
    return NovikovScalar(field, terms + cancelled, draw(floor))


@st.composite
def exact_pairs(draw):
    field = draw(st.sampled_from([QQ, QI]))
    x, y = draw(exact_scalars(field)), draw(exact_scalars(field))
    if draw(st.booleans()):
        # (x + y)(x - y): the cross terms cancel to exact zero in the sum.
        return x + y, x - y
    return x, y


@st.composite
def newton_inverse_cases(draw):
    """An exact scalar and an output floor for its inverse, k powers of u
    deep as in ``_series_floor``: a monomial, two rows, or 3 to 10 rows with
    parts up to 2^64; an exact input floor or a finite one whose implied
    floor f - 2*w0 lies next to that depth; the floor asked for just above,
    on or below the implied one."""
    field = draw(st.sampled_from([QQ, QI]))
    low, high = draw(st.sampled_from([(1, 1), (2, 2), (3, 10)]))
    coeff = (big_coefficients if high > 2 else coefficients)(field).filter(bool)
    terms = draw(st.lists(st.tuples(exponents, coeff), min_size=low, max_size=high,
                          unique_by=lambda t: t[0]))
    x = NovikovScalar(field, terms)
    w0 = x.terms[0][0]
    gap = w0 - x.terms[1][0] if len(x.terms) > 1 else Fraction(1)
    depth = -w0 - draw(st.integers(1, 5)) * gap
    floor = depth + 2 * w0 + draw(st.sampled_from([Fraction(-1, 7), Fraction(0), Fraction(1, 7)]))
    if floor < w0 and draw(st.booleans()):
        x = NovikovScalar(field, terms, floor)
        depth = floor - 2 * w0  # the implied floor
    asked = [depth + draw(st.sampled_from([Fraction(1, 5), Fraction(-1, 5), Fraction(0)]))]
    if x.is_monomial():
        asked.append(NEG_INF)
    return x, draw(st.sampled_from(asked))


class TestArithmeticProperties:
    @PROPERTY
    @given(scalar_pairs())
    def test_product_matches_reference(self, pair):
        x, y = pair
        assert x * y == reference_product(x, y)
        assert_canonical(x * y)

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
        assert prod.floor >= 0 or dict(prod.terms).get(0, 0) != 0

    @PROPERTY
    @given(exact_pairs())
    def test_exact_product_matches_reference(self, pair):
        x, y = pair
        assert x * y == reference_product(x, y)

    @PROPERTY
    @given(st.data())
    def test_exact_inverse_matches_reference(self, data):
        field = data.draw(st.sampled_from([QQ, QI]))
        x = data.draw(exact_scalars(field))
        if x.is_zero():
            return
        floor = _series_floor(data, x)
        assert x.invert(floor) == reference_inverse(x, floor)
        assert_canonical(x.invert(floor))

    @PROPERTY
    @given(newton_inverse_cases())
    def test_newton_inverse_matches_the_series(self, case):
        # The exact modes invert by Newton doubling; the truncated inverse is
        # unique above the cut, so the stored form is the series' one.
        x, floor = case
        got, ref = x.invert(floor), reference_inverse(x, floor)
        assert (got.rows, got.den, got.grid, got.floor) == (ref.rows, ref.den, ref.grid, ref.floor)
        assert_canonical(got)

    @PROPERTY
    @given(st.data())
    def test_complex_bits_match_reference(self, data):
        x, y = data.draw(float_scalars()), data.draw(float_scalars())
        if data.draw(st.booleans()):
            x, y = x + y, x - y
        assert _bits(x * y) == _bits(reference_product(x, y))
        if x.is_zero():
            return
        floor = _series_floor(data, x)
        assert _bits(x.invert(floor)) == _bits(reference_inverse(x, floor))

    @PROPERTY
    @given(st.data())
    def test_associative_above_the_floor(self, data):
        # Small dyadic parts keep complex products exact, so all three modes
        # agree to the bit above the coarser floor of the two groupings.
        field = MODES[data.draw(st.sampled_from(sorted(MODES)))]
        x, y, z = (data.draw(scalars(field)) for _ in "xyz")
        left, right = (x * y) * z, x * (y * z)
        floor = max(left.floor, right.floor)
        assert left.truncate(floor) == right.truncate(floor)

    @PROPERTY
    @given(st.data())
    def test_distributive_above_the_floor(self, data):
        field = MODES[data.draw(st.sampled_from(sorted(MODES)))]
        x, y, z = (data.draw(scalars(field)) for _ in "xyz")
        left, right = x * (y + z), x * y + x * z
        floor = max(left.floor, right.floor)
        assert left.truncate(floor) == right.truncate(floor)

    @PROPERTY
    @given(st.data())
    def test_floors_are_honest(self, data):
        # Cutting exact operands at their floors changes nothing above the
        # floor of the result, and that floor is the sharp one.
        field = data.draw(st.sampled_from([QQ, QI]))
        big_x, big_y = (data.draw(exact_scalars(field, st.just(NEG_INF))) for _ in "xy")
        fx, fy, f = (data.draw(floors) for _ in "xyf")
        s = data.draw(exponents)
        x, y = big_x.truncate(fx), big_y.truncate(fy)
        cases = [
            (x + y, big_x + big_y, max(fx, fy)),
            (x * y, big_x * big_y, reference_product(x, y).floor),
            (x.truncate(f), big_x.truncate(f), max(fx, f)),
            (x.shift(s), big_x.shift(s), _add_floors(fx, s)),
        ]
        for got, true, floor in cases:
            assert got.floor == floor
            assert got == true.truncate(floor)


# -- sums, scalings, shifts, truncations and JSON against Fraction terms -------
#
# The reference keeps a scalar as a sorted list of (Fraction exponent,
# coefficient) pairs and does plain Fraction, GaussianRational or complex
# arithmetic on them; every result is compared through its JSON text, which
# tells reduced from unreduced strings and -0.0 from 0.0.

term_exponents = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6]))
exact_parts = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def field_coefficients(draw, field):
    if field is QQ:
        return draw(exact_parts)
    if field is QI:
        return GaussianRational(draw(exact_parts), draw(exact_parts))
    return complex(draw(float_parts), draw(float_parts))


@st.composite
def term_lists(draw, field):
    """Terms with repeated exponents, some of them cancelling exactly."""
    terms = draw(st.lists(st.tuples(term_exponents, field_coefficients(field)), max_size=6))
    return terms + [(e, -c) for e, c in terms if draw(st.booleans())]


def ref_normal(field, terms, floor):
    """Sum the terms of each exponent in order, then drop the sums that are
    zero in the field's sense and the exponents at or below the floor."""
    merged = {}
    for e, c in terms:
        merged[e] = merged[e] + c if e in merged else c
    kept = [(e, c) for e, c in merged.items() if e > floor and not field.is_zero(c)]
    return sorted(kept, key=lambda t: t[0], reverse=True), floor


def ref_json(field, terms, floor):
    return {
        "terms": [{"c": field.parts_to_json(*field.to_parts(c)), "exp": str(e)} for e, c in terms],
        "floor": "-inf" if floor == NEG_INF else str(floor),
    }


def assert_canonical(x):
    """The stored form is the canonical one: decreasing nonzero rows above
    the floor, no common factor of the grid and the exponents, nor (exact
    modes) of the denominator and the numerators; complex rows are over 1."""
    exps = [e for e, _, _ in x.rows]
    assert exps == sorted(set(exps), reverse=True)
    assert all(Fraction(e, x.grid) > x.floor for e in exps)
    assert gcd(x.grid, *exps) == 1 and x.grid > 0
    if x.field.exact:
        assert all(re or im for _, re, im in x.rows)
        assert gcd(x.den, *[p for _, re, im in x.rows for p in (re, im)]) == 1 and x.den > 0
    else:
        assert x.den == 1
        assert all(not x.field.is_zero(complex(re, im)) for _, re, im in x.rows)


def assert_matches(field, got, ref):
    """``got`` has the reference's JSON bits, is in canonical form, and
    equals and hashes like the scalar the constructor builds from the
    reference terms."""
    terms, floor = ref
    assert _bits(got) == json.dumps(ref_json(field, terms, floor))
    assert_canonical(got)
    again = NovikovScalar(field, terms, floor)
    assert got == again and hash(got) == hash(again)


@st.composite
def field_scalars(draw):
    field = MODES[draw(st.sampled_from(sorted(MODES)))]
    terms, floor = draw(term_lists(field)), draw(floors)
    x = NovikovScalar(field, terms, floor)
    assert_matches(field, x, ref_normal(field, terms, floor))
    return x


def _text(value: Fraction, scale: int) -> str:
    """``value`` as an unreduced "p/q" string, numerator and denominator
    multiplied by ``scale``; a zero keeps its sign ("-0/3")."""
    sign = "-" if value < 0 or (value == 0 and scale % 2) else ""
    num, den = abs(value.numerator) * scale, value.denominator * scale
    return f"{sign}{num}" if den == 1 else f"{sign}{num}/{den}"


@st.composite
def term_documents(draw):
    """A field, terms for it, a scale for each term's strings, and a floor."""
    field = MODES[draw(st.sampled_from(sorted(MODES)))]
    terms = draw(term_lists(field))
    return field, terms, [draw(st.sampled_from([1, 2, 3])) for _ in terms], draw(floors)


def json_examples():
    """(scalar, document) examples in every mode: a one-term list, a pair that
    cancels to zero, and a floor at the only term; the scalar is the one the
    document describes."""
    coefficients = {QQ: Fraction(-3, 2), QI: GaussianRational(Fraction(1, 2), -2),
                    CC: complex(1.5, -0.25)}
    for field, c in coefficients.items():
        for terms, scales, floor in (
            ([(Fraction(-3, 2), c)], [2], NEG_INF),
            ([(Fraction(1, 3), c), (Fraction(1, 3), -c)], [1, 3], NEG_INF),
            ([(Fraction(-2), c)], [3], Fraction(-2)),
        ):
            yield NovikovScalar(field, terms, floor), (field, terms, scales, floor)


def with_examples(cases):
    """Hypothesis ``@example`` for each argument tuple in ``cases``."""
    def add(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return add


class TestRowOperationProperties:
    @PROPERTY
    @given(st.data())
    def test_sum_and_difference_match_reference(self, data):
        x = data.draw(field_scalars())
        y = NovikovScalar(x.field, data.draw(term_lists(x.field)), data.draw(floors))
        field, floor = x.field, max(x.floor, y.floor)
        a, b = dict(x.terms), dict(y.terms)
        both = [(e, a[e] + b[e]) for e in a.keys() & b.keys()]
        alone = [(e, c) for e, c in [*x.terms, *y.terms] if (e in a) != (e in b)]
        assert_matches(field, x + y, ref_normal(field, both + alone, floor))
        assert_matches(field, -x, ([(e, -c) for e, c in x.terms], x.floor))
        assert x - y == x + (-y)

    @PROPERTY
    @given(st.data())
    def test_scale_matches_reference(self, data):
        x = data.draw(field_scalars())
        field = x.field
        c = data.draw(st.one_of(field_coefficients(field), st.sampled_from([0, 1, -1])))
        coeff = field.coerce(c)
        if field.is_zero(coeff):
            ref = [], NEG_INF if x.is_exact_zero() else x.floor
        else:
            # the term's coefficient is the left operand, as in the product
            products = [(e, t * coeff) for e, t in x.terms]
            ref = [(e, p) for e, p in products if not field.is_zero(p)], x.floor
        assert_matches(field, x.scale(c), ref)

    @PROPERTY
    @given(st.data())
    def test_shift_and_truncate_match_reference(self, data):
        x = data.draw(field_scalars())
        s, f = data.draw(term_exponents), data.draw(floors)
        shifted = NEG_INF if x.floor == NEG_INF else x.floor + s
        assert_matches(x.field, x.shift(s), ([(e + s, c) for e, c in x.terms], shifted))
        cut = max(x.floor, f)
        assert_matches(x.field, x.truncate(f), ([(e, c) for e, c in x.terms if e > cut], cut))
        assert x.shift(s).shift(-s) == x

    @PROPERTY
    @given(field_scalars(), term_documents())
    @with_examples(json_examples())
    def test_json_round_trip_and_unreduced_strings(self, x, document):
        field = x.field
        assert_matches(field, NovikovScalar.from_json(field, x.to_json()), (x.terms, x.floor))
        # Unreduced and signed-zero strings, and equal exponents written
        # differently, parse to the reference's values.
        field, terms, scales, floor = document
        if field is QQ:
            coeffs = [_text(c, k) for (_, c), k in zip(terms, scales)]
        elif field is QI:
            coeffs = [{"re": _text(c.re, k), "im": _text(c.im, k)} for (_, c), k in zip(terms, scales)]
        else:
            coeffs = [{"re": c.real, "im": c.imag} for _, c in terms]
        doc = [{"exp": _text(e, k), "c": c} for (e, _), k, c in zip(terms, scales, coeffs)]
        assert_matches(
            field, NovikovScalar.terms_from_json(field, doc, floor), ref_normal(field, terms, floor)
        )


# -- merged sums against the constructor ----------------------------------------
#
# ``+`` and ``-`` merge the two decreasing row lists in one pass; the
# reference builds the same element from ``terms`` through the constructor,
# which sums equal exponents in the order given: x's term, then y's.


def reference_sum(x, y, negate=False):
    """x + y, or x - y, from the operands' (exponent, coefficient) terms;
    unary minus flips both float parts, as negating a row does."""
    y_terms = [(e, -c) for e, c in y.terms] if negate else list(y.terms)
    return NovikovScalar(x.field, [*x.terms, *y_terms], max(x.floor, y.floor))


# Exponents on grids 1 to 6 and exact parts over denominators 1 to 7, so
# that operands rarely share a grid or a denominator.
merge_exponents = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6]))
merge_parts = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def merge_coefficients(draw, field):
    if field is QQ:
        return draw(merge_parts)
    if field is QI:
        return GaussianRational(draw(merge_parts), draw(merge_parts))
    return complex(draw(float_parts), draw(float_parts))


@st.composite
def merge_operands(draw):
    """Two scalars of one mode, possibly truncated, where y may repeat x's
    terms (x - y cancels them) or negate them (x + y cancels them); in
    complex mode the negation is off by less than eps."""
    field = MODES[draw(st.sampled_from(sorted(MODES)))]
    terms = st.lists(st.tuples(merge_exponents, merge_coefficients(field)), max_size=5)
    x = NovikovScalar(field, draw(terms), draw(floors))
    echo = draw(st.sampled_from(["none", "same", "negated"]))
    y_terms = draw(terms)
    for e, c in x.terms:
        if echo != "none" and draw(st.booleans()):
            if echo == "negated":
                c = -c + complex(draw(st.floats(-4e-13, 4e-13)), 0.0) if field is CC else -c
            y_terms.append((e, c))
    return x, NovikovScalar(field, y_terms, draw(floors))


def _cx(*terms, floor=NEG_INF):
    return NovikovScalar(CC, terms, floor)


# (x, y, what the case shows), each checked for both + and -
MERGE_CASES = {
    "grids-and-denominators": (
        NovikovScalar(QQ, [(Fraction(1, 2), Fraction(1, 2)), (Fraction(-1, 3), Fraction(1, 3))]),
        NovikovScalar(QQ, [(Fraction(1, 2), Fraction(1, 6)), (Fraction(-1, 4), Fraction(5, 4))]),
        lambda s, d: (s.grid, s.den, d.grid, d.den) == (12, 12, 12, 12),
    ),
    "gaussian-grids": (
        NovikovScalar(QI, [(Fraction(2, 3), GaussianRational(Fraction(1, 2), 1))]),
        NovikovScalar(QI, [(Fraction(2, 3), GaussianRational(Fraction(1, 2), 1)),
                           (Fraction(1, 5), GaussianRational(0, Fraction(1, 3)))]),
        lambda s, d: d.terms == ((Fraction(1, 5), GaussianRational(0, Fraction(-1, 3))),),
    ),
    "truncated": (
        NovikovScalar(QQ, [(0, 1), (Fraction(-3, 2), 2)], Fraction(-2)),
        NovikovScalar(QQ, [(Fraction(-1, 2), 1), (Fraction(-5, 2), 7)], Fraction(-3)),
        lambda s, d: s.floor == d.floor == -2 and len(s.rows) == len(d.rows) == 3,
    ),
    "exact-cancellation": (
        NovikovScalar(QQ, [(Fraction(1, 3), Fraction(2, 5)), (-1, 3)]),
        NovikovScalar(QQ, [(Fraction(1, 3), Fraction(2, 5)), (-1, 3)]),
        lambda s, d: d.is_exact_zero() and (s.grid, s.den) == (3, 5),
    ),
    "complex-below-eps": (
        _cx((0, 1 + 0.5j), (-1, 2.0)),
        _cx((0, 1 + 0.5j), (-1, -(2.0 - 4e-13))),
        lambda s, d: s.terms == ((0, 2 + 1j),) and [e for e, _, _ in d.rows] == [-1],
    ),
    "signed-zeros": (
        _cx((0, complex(-0.0, 1.0)), (Fraction(-1, 2), complex(0.0, -0.0))),
        _cx((0, complex(-0.0, 2.0)), (Fraction(-1, 2), complex(-0.0, 0.0))),
        lambda s, d: "-0.0" in _bits(s) and _bits(d).count("-0.0") == 0,
    ),
}


class TestMergedSums:
    @pytest.mark.parametrize("x, y, shows", MERGE_CASES.values(), ids=MERGE_CASES)
    def test_cases_match_terms_reference(self, x, y, shows):
        total, diff = x + y, x - y
        assert _stored(total) == _stored(reference_sum(x, y))
        assert _stored(diff) == _stored(reference_sum(x, y, negate=True))
        assert _stored(diff) == _stored(x + (-y))
        assert shows(total, diff)

    @PROPERTY
    @given(merge_operands())
    def test_sum_and_difference_match_terms_reference(self, pair):
        x, y = pair
        for got, ref in ((x + y, reference_sum(x, y)), (x - y, reference_sum(x, y, negate=True))):
            assert _stored(got) == _stored(ref)
            assert_canonical(got)


# -- identity laws, to the bit --------------------------------------------------
#
# The Newton lift starts power chains, monomials and sums from their first
# factor or term instead of from one or zero, and a product with a one-row
# factor runs in one pass; these are the laws that keep every bit.


def _stored_rows(rows):
    """Rows with float parts as hex, which tells -0.0 from 0.0."""
    def part(v):
        return v.hex() if isinstance(v, float) else v
    return [(e, part(re), part(im)) for e, re, im in rows]


def _stored(x):
    """Floor, grid, denominator and rows, to the bit."""
    return x.floor, x.grid, x.den, _stored_rows(x.rows)


@st.composite
def mode_scalars(draw, floor=floors):
    """A scalar of any mode; complex parts include -0.0 and values that round."""
    field = MODES[draw(st.sampled_from(sorted(MODES)))]
    if field is CC and draw(st.booleans()):
        return draw(float_scalars(floor))
    return draw(scalars(field, floor))


def reference_row_product(left, right, cut, nonzero):
    """The general row kernel: every pair of rows summed into a dict by
    exponent, then sorted."""
    acc = {}
    for e1, a1, b1 in left:
        for e2, a2, b2 in right:
            e = e1 + e2
            if e <= cut:
                break
            if e in acc:
                acc[e][0] += a1 * a2 - b1 * b2
                acc[e][1] += a1 * b2 + b1 * a2
            else:
                acc[e] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
    return [(e, re, im) for e, (re, im) in sorted(acc.items(), reverse=True) if nonzero(re, im)]


class TestIdentityLaws:
    @PROPERTY
    @given(mode_scalars())
    def test_products_by_one_and_scaling_by_one_agree(self, x):
        one = NovikovScalar.one(x.field)
        bits = _stored(x.scale(x.field.one()))
        assert _stored(one * x) == bits and _stored(x * one) == bits

    @PROPERTY
    @given(mode_scalars(), floors)
    def test_zero_plus_x_is_x_truncated(self, x, f):
        assert _stored(NovikovScalar.zero(x.field, f) + x) == _stored(x.truncate(f))

    @PROPERTY
    @given(st.data())
    def test_one_row_product_matches_general_kernel(self, data):
        x = data.draw(mode_scalars(st.just(NEG_INF)))
        if x.field is CC and data.draw(st.booleans()):
            coeff = complex(data.draw(float_parts), data.draw(float_parts))
        else:
            coeff = data.draw(coefficients(x.field))
        y = NovikovScalar.monomial(x.field, coeff, data.draw(exponents))
        if not (x.rows and y.rows):
            return
        # Exponents on one grid do not matter to the kernel: it adds ints.
        top, lowest = x.rows[0][0] + y.rows[0][0], x.rows[-1][0] + y.rows[0][0]
        cut = data.draw(st.integers(lowest - 1, top))
        nonzero = _nonzero(x.field)
        for left, right in ((x.rows, y.rows), (y.rows, x.rows)):
            got = _row_product(list(left), list(right), cut, nonzero)
            ref = reference_row_product(left, right, cut, nonzero)
            assert _stored_rows(got) == _stored_rows(ref)

    @PROPERTY
    @given(st.data())
    def test_exact_inverse_times_scalar_is_one(self, data):
        field = data.draw(st.sampled_from([QQ, QI]))
        x = data.draw(exact_scalars(field))
        if x.is_zero():
            return
        product = x * x.invert(_series_floor(data, x))
        assert product == NovikovScalar.one(field).truncate(product.floor)


def reference_magnitude(field, c):
    """Float magnitude of a coefficient, computed from its value form."""
    if field.mode == "rational":
        return abs(float(c))
    if field.mode == "gaussian":
        return abs(c.to_complex())
    return abs(c)


def reference_isclose(x, y):
    """Complex-mode closeness on (Fraction exponent, coefficient) terms."""
    if x.floor != y.floor or len(x.terms) != len(y.terms):
        return False
    pairs = zip(x.terms, y.terms)
    return all(e1 == e2 and not abs(c1 - c2) > 1e-9 for (e1, c1), (e2, c2) in pairs)


def _complex_bits(c):
    return struct.pack("<dd", c.real, c.imag)


@st.composite
def lead_scalars(draw):
    """Scalars of every mode: small dyadic parts, generic floats with signed
    zeros, and exact parts up to 2^64 over large denominators."""
    kind = draw(st.sampled_from(["rational", "gaussian", "complex", "float", "big"]))
    if kind == "float":
        return draw(float_scalars())
    if kind == "big":
        return draw(exact_scalars(draw(st.sampled_from([QQ, QI]))))
    return draw(scalars(MODES[kind]))


# Tiny parts next to the 1e-9 closeness bound, and exact zeros of both signs.
tiny_parts = st.one_of(
    st.floats(-2e-9, 2e-9),
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9]),
)


@st.composite
def nearby_pairs(draw):
    """A complex scalar and one near it: nudged by tiny terms, some of them at
    new exponents (another length, another grid), possibly truncated to
    another floor, or drawn afresh."""
    x = draw(float_scalars())
    if draw(st.booleans()):
        return x, draw(float_scalars())
    nudge = draw(st.lists(st.tuples(exponents, st.builds(complex, tiny_parts, tiny_parts)),
                          max_size=3))
    y = x + NovikovScalar(CC, nudge)
    if draw(st.booleans()):
        y = y.truncate(draw(finite_floors))
    return x, y


class TestRowReads:
    @PROPERTY
    @given(lead_scalars())
    # rounding the numerator to a float before dividing rounds this one twice
    @example(NovikovScalar(QI, [(0, GaussianRational(Fraction(16570066509925215462, 13), -1))]))
    def test_lead_is_the_leading_coefficient_to_the_bit(self, x):
        if x.is_zero():
            return
        c = x.terms[0][1]
        assert _complex_bits(x.lead()) == _complex_bits(complex(c))
        assert abs(x.lead()) == reference_magnitude(x.field, c)

    @PROPERTY
    @given(nearby_pairs())
    @example((NovikovScalar(CC, [(Fraction(1, 2), 1.0)]),
              NovikovScalar(CC, [(Fraction(1, 3), 1.0)])))  # one row each, on other grids
    @example((NovikovScalar(CC, [(0, 1.0)]), NovikovScalar(CC, [(0, 1.0 + 2e-9)])))
    @example((NovikovScalar(CC, [(0, 1.0)], Fraction(-2)), NovikovScalar(CC, [(0, 1.0)])))
    def test_complex_isclose_matches_terms(self, pair):
        x, y = pair
        assert x.isclose(y) == reference_isclose(x, y)
        assert y.isclose(x) == reference_isclose(y, x)


# -- floors compared on integers ----------------------------------------------
#
# Scalar operations combine floors by cross-multiplying numerators and
# denominators, and skip the addition of a unit's valuation 0.  Each stored
# floor must be the one ``max`` over Fractions gives, by value and by type,
# and ``truncate`` must hand back the scalar itself exactly when ``max``
# keeps its floor object.


def _twin(floor):
    """NEG_INF itself, or an equal Fraction that is another object."""
    return floor if floor is NEG_INF else Fraction(floor.numerator, floor.denominator)


coarse_exponents = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))


@st.composite
def floor_scalars(draw, field, shared):
    """A scalar on the floor ``shared``, on an equal but distinct floor or on
    a floor of its own: zero down to its floor, a unit (valuation 0) or any
    sum of up to three terms, most of nonzero valuation."""
    floor = draw(st.sampled_from([shared, _twin(shared), draw(floors)]))
    kind = draw(st.sampled_from(["zero", "unit", "sum"]))
    if kind == "zero":
        return NovikovScalar.zero(field, floor)
    coeffs = coefficients(field).filter(lambda c: c != 0)
    terms = draw(st.lists(st.tuples(coarse_exponents, coeffs), min_size=1, max_size=3))
    if kind == "unit":
        terms = [(Fraction(0), draw(coeffs))] + [(e, c) for e, c in terms if e < 0]
    return NovikovScalar(field, terms, floor)


class TestFloorRules:
    @PROPERTY
    @given(st.data())
    def test_floors_match_the_max_rules(self, data):
        field = MODES[data.draw(st.sampled_from(sorted(MODES)))]
        shared = data.draw(floors)
        x, y, z = (data.draw(floor_scalars(field, shared)) for _ in "xyz")
        f = data.draw(st.sampled_from([_twin(x.floor), _twin(y.floor), data.draw(floors)]))
        s = data.draw(st.sampled_from([Fraction(0), data.draw(exponents)]))
        pairs = [(c, m) for c, m in zip(data.draw(st.lists(
            st.integers(-3, 3).filter(bool), max_size=3)), (x, y, z))]
        cases = [
            (x * y, product_floor(x, y)),
            (x + y, sum_floor(x, y)),
            (x - y, sum_floor(x, y)),
            (x.truncate(f), truncate_floor(x, f)),
            (_shifted(x, s, f), shifted_floor(x, s, f)),
            (_weighted_sum(field, pairs, f), weighted_sum_floor(pairs, f)),
        ]
        if x.rows:
            # a unit's implied floor is its own, so an equal twin ties with it
            g = data.draw(st.sampled_from([_twin(x.floor), _series_floor(data, x)]))
            if g is not NEG_INF or len(x.rows) == 1:
                cases.append((x.invert(g), inverse_floor(x, g)))
        for got, ref in cases:
            assert got.floor == ref and type(got.floor) is type(ref)
            assert (got.floor is NEG_INF) == (ref is NEG_INF)
        assert (x.truncate(f) is x) == (truncate_floor(x, f) is x.floor)


# -- the complex zero test ---------------------------------------------------
#
# A part of size eps or more decides at once, since |re + i*im| is at least
# max(|re|, |im|); the hypot is taken only when both parts lie below eps.


def _neighbours(v, n):
    """v and its n nearest floats on either side."""
    out = [v]
    for direction in (0.0, math.inf):
        w = v
        for _ in range(n):
            w = math.nextafter(w, direction)
            out.append(w)
    return out


def _near_eps_pairs(eps):
    """Parts within a few ulps of eps/sqrt(2), and eps's lower neighbour with
    a small second part, whose hypot rounds to either side of eps."""
    side = _neighbours(eps / math.sqrt(2), 4)
    below = math.nextafter(eps, 0.0)
    return ([(a, b) for a in side for b in side]
            + [(below, eps * 2.0 ** -k) for k in range(20, 32)])


def _special_parts(eps):
    below, above = math.nextafter(eps, 0.0), math.nextafter(eps, math.inf)
    values = [eps, below, above, 0.0, 5e-324, 2.2250738585072014e-308, 1e-310,
              math.inf, math.nan, 1.0, eps / 2]
    return values + [-v for v in values]


@pytest.mark.parametrize("eps", [1e-12, 0.75])
def test_complex_zero_test_matches_the_hypot(eps):
    nonzero = _nonzero(CoefficientField("complex", eps))
    rng = random.Random(0)
    specials = _special_parts(eps)
    pairs = [(a, b) for a in specials for b in specials] + _near_eps_pairs(eps)
    for _ in range(2000):
        scale = eps * 2.0 ** rng.randint(-4, 4)
        pairs.append((rng.uniform(-scale, scale), rng.uniform(-scale, scale)))
    pairs += [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(200)]
    for re, im in pairs:
        assert nonzero(re, im) == (not abs(complex(re, im)) < eps), (re, im)
    # the pairs near eps/sqrt(2) fall on both sides of eps, with both parts below it
    near = [not abs(complex(re, im)) < eps for re, im in _near_eps_pairs(eps)]
    assert any(near) and not all(near)
    assert any(abs(complex(re, im)) == eps for re, im in _near_eps_pairs(eps))
