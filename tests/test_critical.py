"""Potentials, leading critical points, Newton lifts, certificates, scans."""

import cmath
import functools
import json
import math
import random
import sys
import types
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from novspec.fields import GaussianRational, field_for_mode
from novspec.records import NEG_INF, parse_floor
from novspec.cli import main, parse_args
from novspec.novikov import NovikovScalar
from novspec.critical import (
    _PI,
    LeadingRoot,
    _binomial_values,
    _brane_failure,
    _leading_roots,
    _solve_linear,
    _sympy_values,
    certify_heavy,
    critical_points_leading,
    grid_fibers,
    lift_critical,
    revalidate_certificate,
    scan_fibers,
)
from novspec.polytope import (
    Facet,
    MomentPolytope,
    coset_representatives,
    int_det,
    polytope_validate,
    rational_inverse,
    segment,
    simplex,
)
from novspec.potential import PotentialFunction, brane_from_constants

from reference import (
    fold_sum,
    kushnirenko_bound,
    potential_gradient,
    potential_hessian,
    potential_monomials,
    product,
    transform,
    transform_point,
)
from test_novikov import _bits, exact_scalars, float_parts, float_scalars, floors

QQ = field_for_mode("rational")
QI = field_for_mode("gaussian")
CC = field_for_mode("complex")

CP1 = segment(Fraction(0), Fraction(1))
CP2 = simplex(2)
BOX = product(CP1, segment(Fraction(0), Fraction(2)))
TRAP = MomentPolytope(
    2,
    [
        Facet((1, 0), Fraction(0)),
        Facet((0, 1), Fraction(0)),
        Facet((0, -1), Fraction(-1)),
        Facet((-1, -1), Fraction(-2)),
    ],
)


# Hirzebruch F2: {x >= 0, y >= 0, y <= 1, x + 2y <= 3}
F2 = MomentPolytope(
    2,
    [
        Facet((1, 0), Fraction(0)),
        Facet((0, 1), Fraction(0)),
        Facet((0, -1), Fraction(-1)),
        Facet((-1, -2), Fraction(-3)),
    ],
)


def mono(field, c, e):
    return NovikovScalar.monomial(field, field.coerce(c), Fraction(e))


def rational_constants(root):
    """``root.constants_for(QQ)``, or None where that raises."""
    try:
        return root.constants_for(QQ)
    except ValueError as exc:
        assert "is not rational; use gaussian or complex mode" in str(exc)
        return None


@functools.lru_cache(maxsize=None)
def trap_cert(order="-6"):
    return certify_heavy(PotentialFunction(TRAP, "3/4,1/2"), order, QI)


@functools.lru_cache(maxsize=None)
def cp2_cert():
    return certify_heavy(PotentialFunction(CP2, "1/3,1/3"), "-10", CC)


class TestPotential:
    def test_interval_terms(self):
        w = PotentialFunction(CP1, "1/2")
        assert [(t.exponent, t.weight) for t in w.terms] == [
            ((1,), Fraction(-1, 2)),
            ((-1,), Fraction(-1, 2)),
        ]

    def test_off_interior_rejected(self):
        with pytest.raises(ValueError, match="not interior"):
            PotentialFunction(CP1, "1")

    def test_evaluate_and_gradient_at_unit_brane(self):
        w = PotentialFunction(CP1, "1/2")
        x = brane_from_constants(QQ, [Fraction(1)])
        assert w.evaluate(x) == mono(QQ, 2, Fraction(-1, 2))
        grad = w.gradient(x)
        assert len(grad) == 1 and grad[0].is_exact_zero()

    def test_gradient_nonzero_off_critical(self):
        w = PotentialFunction(CP1, "1/2")
        x = brane_from_constants(QQ, [Fraction(2)])
        (y,) = w.gradient(x)
        assert y == mono(QQ, Fraction(3, 2), Fraction(-1, 2))

    def test_hessian_symmetric(self):
        w = PotentialFunction(CP2, "1/4,1/4")
        x = brane_from_constants(QQ, [Fraction(1), Fraction(2)])
        m = w.hessian(x)
        assert m[0][1] == m[1][0]

    @pytest.mark.parametrize("field", [QQ, QI, CC], ids=["rational", "gaussian", "complex"])
    def test_monomial_memo_never_serves_a_stale_point(self, field):
        # The potential keeps the last point's monomials; every visit, after
        # another point, another floor or an in-place coordinate swap, must
        # match a potential that never saw the earlier points.
        def point(a, b):
            c = field.coerce
            return [
                NovikovScalar(field, [(0, c(a)), (Fraction(-1, 2), c(b))], Fraction(-4)),
                NovikovScalar(field, [(0, c(b)), (Fraction(-1, 3), c(a))], Fraction(-4)),
            ]

        x, other = point(1, 2), point(3, -1)
        w = PotentialFunction(TRAP, "3/4,1/2")

        def check(pt, floor):
            fresh = PotentialFunction(TRAP, "3/4,1/2")
            assert w.gradient(pt, floor) == fresh.gradient(pt, floor)
            assert w.hessian(pt, floor) == fresh.hessian(pt, floor)
            assert w.evaluate(pt, floor) == fresh.evaluate(pt, floor)

        moved = list(x)
        for pt, floor in [(x, -2), (other, -2), (x, -2), (x, -3), (moved, -3)]:
            check(pt, floor)
        moved[1] = other[1]  # the same list, holding another point
        check(moved, -3)

    @pytest.mark.parametrize("mode", ["gaussian", "complex"])
    def test_lift_multiplies_nothing_by_one(self, tmp_path, monkeypatch, mode):
        # Power chains and monomials start from their first factor: no
        # product made in a potential method takes a scalar that
        # NovikovScalar.one returned.  (Equality with one would also flag
        # data: the gaussian run checks the leading roots exactly first, and
        # a root coordinate may be 1.)
        def codes(code):
            yield code
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    yield from codes(const)

        methods = {c for f in vars(PotentialFunction).values()
                   if isinstance(f, types.FunctionType) for c in codes(f.__code__)}
        make_one, mul = NovikovScalar.one.__func__, NovikovScalar.__mul__
        ones, by_one = [], []

        def traced_one(cls, field):
            ones.append(make_one(cls, field))
            return ones[-1]

        def traced_mul(x, y):
            if sys._getframe(1).f_code in methods:
                by_one.append(any(x is one or y is one for one in ones))
            return mul(x, y)

        monkeypatch.setattr(NovikovScalar, "one", classmethod(traced_one))
        monkeypatch.setattr(NovikovScalar, "__mul__", traced_mul)
        path = tmp_path / "trap.json"
        path.write_text(json.dumps(TRAP.to_json()), encoding="utf-8")
        argv = ["toric", "certify", str(path), "--fiber", "3/4,1/2", "--mode", mode,
                "--order=-2", "--out", str(tmp_path / "cert.json")]
        assert main(argv) == 0
        assert by_one and not any(by_one)

    def test_non_unit_brane_rejected(self):
        w = PotentialFunction(CP1, "1/2")
        x = [mono(QQ, 1, Fraction(1, 2))]
        with pytest.raises(ValueError):
            w.gradient(x)

    def test_leading_strata_per_component(self):
        w = PotentialFunction(TRAP, (Fraction(3, 4), Fraction(1, 2)))
        strata = w.strata
        assert [(s.component, s.weight, tuple(s.facets)) for s in strata] == [
            (0, Fraction(-3, 4), (0, 3)),
            (1, Fraction(-1, 2), (1, 2)),
        ]

    def test_dominating_facet_stratum(self):
        w = PotentialFunction(CP1, "1/4")
        (s,) = w.strata
        assert s.weight == Fraction(-1, 4)
        assert s.dominating == 0


# {x >= 0, y >= 0, 2x + y <= 2}: the last monomial's first factor is x_0^{-2}
WEDGE = MomentPolytope(
    2, [Facet((1, 0), Fraction(0)), Facet((0, 1), Fraction(0)), Facet((-2, -1), Fraction(-2))]
)
POTENTIAL_CASES = [(CP2, "1/4,1/3"), (TRAP, "3/4,1/2"), (F2, "1,1/2"), (WEDGE, "1/4,1/2"),
                   (product(CP1, CP2), "1/2,1/4,1/3")]


@st.composite
def potential_points(draw):
    """A potential, a unit point of it in some mode and a working floor.
    Complex parts include signed zeros and magnitudes next to eps, so that
    scaled rows and partial sums fall below it."""
    polytope, fiber = draw(st.sampled_from(POTENTIAL_CASES))
    field = draw(st.sampled_from([QQ, QI, CC]))
    ratios = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))
    units = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 7]))
    zeros = st.sampled_from([0.0, -0.0])  # real and imaginary axes, signed zeros kept
    big = st.one_of(st.floats(0.25, 4), st.floats(-4, -0.25))
    coeffs, leads = {
        QQ: (ratios, units),
        QI: (st.builds(GaussianRational, ratios, ratios), st.builds(GaussianRational, units, ratios)),
        CC: (st.one_of(st.builds(complex, float_parts, float_parts),
                       st.builds(complex, float_parts, zeros), st.builds(complex, zeros, float_parts)),
             st.one_of(st.builds(complex, big, float_parts), st.builds(complex, float_parts, big))),
    }[field]
    exps = st.builds(Fraction, st.integers(-6, -1), st.integers(1, 3))
    x = []
    for _ in range(polytope.dim):
        lead = draw(leads)
        tail = draw(st.lists(st.tuples(exps, coeffs), max_size=3))
        floor = draw(st.sampled_from([NEG_INF, Fraction(-3), Fraction(-9, 2)]))
        x.append(NovikovScalar(field, [(0, lead), *tail], floor))
    floors = [Fraction(-1), Fraction(-3, 2), Fraction(-5, 2), Fraction(-7, 2)]
    if all(xj.is_monomial() for xj in x):
        floors.append(NEG_INF)
    return PotentialFunction(polytope, fiber), x, draw(st.sampled_from(floors))


class TestPotentialSums:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(potential_points())
    def test_one_pass_sums_match_scale_and_fold(self, case):
        # Monomials, gradient, Hessian and potential, row for row against one
        # scaled scalar per term and a left fold of scalar sums; _bits tells
        # -0.0 from 0.0.
        w, x, floor = case
        monos = potential_monomials(w, x, floor)
        assert [_bits(m) for m in w._monomials(x, floor)] == [_bits(m) for m in monos]
        assert _bits(w.evaluate(x, floor)) == _bits(fold_sum(x[0].field, monos, floor))
        grad, ref = w.gradient(x, floor), potential_gradient(w, x, floor)
        assert [_bits(y) for y in grad] == [_bits(y) for y in ref]
        assert grad == ref
        mat, ref = w.hessian(x, floor), potential_hessian(w, x, floor)
        assert [[_bits(m) for m in row] for row in mat] == [[_bits(m) for m in row] for row in ref]
        assert mat == ref
        assert all(mat[j][k] is mat[k][j] for j in range(w.dim) for k in range(w.dim))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_weighted_sum_restarts_after_a_cancelled_exponent(self, data):
        # c*m + (-c)*(m + nudge) falls below eps (or to exact zero) at each
        # exponent of m; a third term there restarts the sum, as the fold does.
        from novspec.potential import _weighted_sum

        field = data.draw(st.sampled_from([QQ, QI, CC]))
        draw = float_scalars() if field is CC else exact_scalars(field)
        m = data.draw(draw)
        tiny = st.builds(complex, st.floats(-1e-13, 1e-13), st.floats(-1e-13, 1e-13))
        if field is CC:
            near = NovikovScalar(field, [(e, a + data.draw(tiny)) for e, a in m.terms], m.floor)
        else:
            near = m
        third = NovikovScalar(field, [(e, data.draw(st.integers(1, 5))) for e, _ in m.terms])
        weights = st.integers(-3, 3).filter(bool)
        c, c3 = data.draw(weights), data.draw(weights)
        pairs = [(c, m), (-c, near), (c3, third)]
        pairs += [(data.draw(weights), data.draw(draw)) for _ in range(data.draw(st.integers(0, 2)))]
        floor = data.draw(floors)
        got = _weighted_sum(field, pairs, floor)
        ref = fold_sum(field, [t.scale(k) for k, t in pairs], floor)
        assert _bits(got) == _bits(ref) and got == ref


class TestLeadingRoots:
    def test_interval_midpoint_pm_one(self):
        w = PotentialFunction(CP1, "1/2")
        rep = critical_points_leading(w)
        assert rep.roots
        assert [r.values for r in rep.roots] == [(-1 + 0j,), (1 + 0j,)]
        assert [r.constants_for(QQ) for r in rep.roots] == [
            (Fraction(-1),),
            (Fraction(1),),
        ]

    def test_off_center_dominating_facet(self):
        w = PotentialFunction(CP1, "1/4")
        rep = critical_points_leading(w)
        assert not rep.roots
        assert rep.diagnosis["reason"] == "dominating-facet"
        assert rep.diagnosis["facet"] == 0

    def test_simplex_monotone_fibers_have_n_plus_1_roots(self):
        for n in (1, 2, 3):
            p = simplex(n)
            center = ",".join([f"1/{n + 1}"] * n)
            w = PotentialFunction(p, center)
            rep = critical_points_leading(w)
            assert len(rep.roots) == n + 1

    def test_cube_roots_need_complex_mode(self):
        w = PotentialFunction(CP2, "1/3,1/3")
        rep = critical_points_leading(w)
        root = rep.roots[0]
        assert root.exact is None
        with pytest.raises(ValueError, match="use gaussian or complex mode"):
            root.constants_for(QQ)
        with pytest.raises(ValueError, match="not Gaussian-rational; use complex mode"):
            root.constants_for(QI)
        vals = root.constants_for(CC)
        assert abs(vals[0] ** 3 - 1) < 1e-9

    def test_mixed_minima_product_four_roots(self):
        w = PotentialFunction(BOX, (Fraction(1, 2), Fraction(1)))
        rep = critical_points_leading(w)
        assert len(rep.roots) == 4

    def test_gaussian_roots_snap_exactly(self):
        w = PotentialFunction(TRAP, (Fraction(3, 4), Fraction(1, 2)))
        rep = critical_points_leading(w)
        assert [r.values for r in rep.roots] == [
            (-1 + 0j, 1 + 0j),
            (-1j, -1 + 0j),
            (1j, -1 + 0j),
            (1 + 0j, 1 + 0j),
        ]
        assert rep.roots[1].exact[0] == GaussianRational(0, -1)
        assert rep.roots[1].constants_for(QI) == rep.roots[1].exact
        with pytest.raises(ValueError, match="is not rational"):
            rep.roots[1].constants_for(QQ)


class TestBinomialLeadingSystems:
    # 3 x^(-1,1) + x^(-2,-2) = 0, -x^(0,2) + x^(-2,2) = 0: sympy's radicals
    # leave an imaginary residue of about 2.4e-29 on x1 = +-1
    RESIDUE_SYSTEM = [[(3, (-1, 1)), (1, (-2, -2))], [(-1, (0, 2)), (1, (-2, 2))]]

    def test_axis_parts_are_exactly_zero(self):
        roots = _leading_roots(_binomial_values(self.RESIDUE_SYSTEM))
        assert len(roots) == 6
        firsts = [r.values[0] for r in roots]
        assert sorted(z.real for z in firsts) == [-1.0] * 3 + [1.0] * 3
        assert all(z.imag == 0.0 and math.copysign(1.0, z.imag) == 1.0 for z in firsts)

    def test_non_binomial_or_singular_systems_are_declined(self):
        three_terms = [[(1, (1,)), (1, (0,)), (1, (-1,))]]
        singular = [[(1, (1, 1)), (-1, (0, 0))], [(2, (2, 2)), (-2, (0, 0))]]
        assert _binomial_values(three_terms) is None
        assert _binomial_values(singular) is None


def _cofactor_det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
    )


@st.composite
def binomial_systems(draw, max_dim=3, span=2, max_coeff=3, max_det=None):
    """a x^u + b x^(u - d_j) = 0 per equation, with exponent entries in
    [-span, span], 0 < |a|, |b| <= max_coeff and 0 < |det D| <= max_det."""
    n = draw(st.integers(1, max_dim))
    small = st.lists(st.integers(-span, span), min_size=n, max_size=n)
    coeff = st.sampled_from([s * k for k in range(1, max_coeff + 1) for s in (-1, 1)])
    d = [draw(small) for _ in range(n)]
    assume(int_det(d) != 0 and (max_det is None or abs(int_det(d)) <= max_det))
    system = []
    for dj in d:
        u = draw(small)
        v = tuple(p - q for p, q in zip(u, dj))
        system.append([(draw(coeff), tuple(u)), (draw(coeff), v)])
    return system, d


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(binomial_systems())
def test_binomial_roots_match_exact_oracle(case):
    system, d = case
    n = len(d)
    det = _cofactor_det(d)
    c = [Fraction(-b, a) for (a, _), (b, _) in system]
    values = _binomial_values(system)
    roots = _leading_roots(values)
    # |det D| roots, none merged by the deduplication, no two equal
    assert len(values) == len(roots) == abs(det)
    assert len({r.values for r in roots}) == len(roots)
    # rho_k^det = prod_j |c_j|^adj(D)_kj, so rho_k = 1 iff that product is 1
    adj = [
        [
            (-1) ** (j + k)
            * _cofactor_det([row[:k] + row[k + 1:] for i, row in enumerate(d) if i != j])
            for j in range(n)
        ]
        for k in range(n)
    ]
    unit_radius = [math.prod(abs(cj) ** e for cj, e in zip(c, row)) == 1 for row in adj]
    grid = 2 * abs(det)  # every angle theta lies in (1 / 2|det|) Z
    for root in roots:
        for dj, cj in zip(d, c):
            lhs = math.prod(xk ** e for xk, e in zip(root.values, dj))
            assert abs(lhs - cj) <= 1e-12 * abs(cj)
        thetas = [
            Fraction(round(cmath.phase(xk) / (2 * math.pi) * grid) % grid, grid)
            for xk in root.values
        ]
        on_axis = [(4 * t).denominator == 1 for t in thetas]
        for xk, axis in zip(root.values, on_axis):
            if axis:
                zero = xk.imag if xk.real else xk.real
                assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
        exact = all(on_axis) and all(unit_radius)
        assert (root.exact is not None) == exact
        real = exact and all(t.denominator <= 2 for t in thetas)
        assert (rational_constants(root) is not None) == real
        if exact:
            unit_points = {
                Fraction(0): GaussianRational(1, 0),
                Fraction(1, 4): GaussianRational(0, 1),
                Fraction(1, 2): GaussianRational(-1, 0),
                Fraction(3, 4): GaussianRational(0, -1),
            }
            assert root.exact == tuple(unit_points[t] for t in thetas)


def _mpmath_binomial_values(system):
    """The closed-form roots of ``_binomial_values`` evaluated with mpmath at
    200 bits, each part rounded to a float once: the reference the decimal
    evaluation matches bit for bit."""
    d = [[p - q for p, q in zip(u, v)] for (_, u), (_, v) in system]
    _, inv = rational_inverse(d)
    c = [Fraction(-b, a) for (a, _), (b, _) in system]
    half = [Fraction(int(cj < 0), 2) for cj in c]

    def real(q):
        return mpmath.mpf(q.numerator) / q.denominator

    out = []
    with mpmath.workprec(200):
        radii = [
            mpmath.exp(mpmath.fsum(real(e) * mpmath.log(real(abs(cj))) for e, cj in zip(row, c)))
            for row in inv
        ]
        for m in coset_representatives(d):
            shifted = [mj + hj for mj, hj in zip(m, half)]
            root = []
            for r, row in zip(radii, inv):
                turn = 2 * real(sum(e * s for e, s in zip(row, shifted)) % 1)
                root.append(complex(float(r * mpmath.cospi(turn)), float(r * mpmath.sinpi(turn))))
            out.append(tuple(root))
    return out


def _float_bits(values):
    return [
        [(p, math.copysign(1.0, p)) for z in root for p in (z.real, z.imag)] for root in values
    ]


def test_pi_constant_is_correctly_rounded():
    digits = len(str(_PI)) - 1
    with mpmath.workdps(digits + 20):
        assert abs(mpmath.mpf(str(_PI)) - mpmath.pi) < mpmath.mpf(10) ** -(digits - 1) / 2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(binomial_systems())
def test_binomial_roots_match_mpmath_bit_for_bit(case):
    system, _ = case
    assert _float_bits(_binomial_values(system)) == _float_bits(_mpmath_binomial_values(system))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(binomial_systems(span=3, max_coeff=6, max_det=64))
def test_wide_binomial_roots_match_mpmath_bit_for_bit(case):
    # coefficients +-1..6, exponents +-3, up to 64 roots per system
    system, _ = case
    assert _float_bits(_binomial_values(system)) == _float_bits(_mpmath_binomial_values(system))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(binomial_systems(max_dim=2))
def test_binomial_roots_agree_with_sympy(case):
    system, _ = case
    values, diagnosis = _sympy_values(system, len(system))
    assert diagnosis is None
    reference = _leading_roots(values)
    roots = _leading_roots(_binomial_values(system))
    assert len(roots) == len(reference)
    for root, ref in zip(roots, reference):
        assert rational_constants(root) == rational_constants(ref)
        assert root.exact == ref.exact
        for z, y in zip(root.values, ref.values):
            assert abs(z - y) <= 1e-12 * max(1.0, abs(y))


class TestLift:
    def test_interval_exact_branes(self):
        cert = certify_heavy(PotentialFunction(CP1, "1/2"), "-8", QQ)
        assert cert.found and len(cert.branes) == 2
        for brane, const in zip(cert.branes, (-2, 2)):
            assert brane.iterations == 0
            # exactly critical: residual is the zero scalar, charge untruncated
            assert brane.residual_valuation == NEG_INF
            assert brane.central_charge == mono(QQ, const, Fraction(-1, 2))

    def test_trapezoid_five_iteration_gaussian_lift(self):
        cert = trap_cert()
        assert len(cert.branes) == 4
        for brane in cert.branes:
            assert brane.iterations == 5
            assert brane.residual_valuation == Fraction(-6)
            exps = {e for xj in brane.x for e, _ in xj.terms}
            assert all((4 * e).denominator == 1 for e in exps)
        lead = cert.branes[0].central_charge
        assert lead.terms[0] == (Fraction(-1, 2), GaussianRational(2))
        assert lead.terms[1] == (Fraction(-3, 4), GaussianRational(-2))
        assert lead.terms[2] == (Fraction(-1), GaussianRational(Fraction(-1, 4)))

    def test_trapezoid_galois_conjugate_charges(self):
        cert = trap_cert()
        plus_i, minus_i = cert.branes[2], cert.branes[1]
        conj = [
            (e, GaussianRational(c.re, -c.im))
            for e, c in minus_i.central_charge.terms
        ]
        assert list(plus_i.central_charge.terms) == conj

    def test_lift_verifies_gradient_independently(self):
        cert = trap_cert()
        w = PotentialFunction(TRAP, (Fraction(3, 4), Fraction(1, 2)))
        for brane in cert.branes:
            grad = w.gradient(brane.x, Fraction(-6))
            assert all(y.is_zero() for y in grad)

    def test_triangle_barycenter_floating(self):
        cert = cp2_cert()
        assert len(cert.branes) == 3
        thirds = []
        for brane in cert.branes:
            assert brane.to_json()["residual_norm"] < 1e-10
            charge = brane.central_charge
            # critical values are 3*zeta over the cube roots of unity zeta
            assert charge.terms[0][0] == Fraction(-1, 3)
            assert abs(abs(charge.terms[0][1]) - 3) < 1e-9
            thirds.append(charge.terms[0][1] / 3)
        for zeta in thirds:
            assert abs(zeta**3 - 1) < 1e-9
        assert abs(sum(thirds)) < 1e-9

    def test_non_root_rejected(self):
        w = PotentialFunction(CP1, "1/2")
        bad = LeadingRoot(values=(2 + 0j,), exact=(GaussianRational(2),))
        with pytest.raises(ValueError, match="does not solve the leading system"):
            lift_critical(w, bad, Fraction(-6), QQ)

    @pytest.mark.parametrize("field", [QI, CC])
    def test_degenerate_leading_root_rejected(self, field):
        # x = i gives x + 1/x = 0: the leading Jacobian of the segment vanishes.
        w = PotentialFunction(CP1, "1/2")
        root = LeadingRoot(values=(1j,), exact=(GaussianRational(0, 1),))
        with pytest.raises(ValueError, match="degenerate leading root"):
            lift_critical(w, root, Fraction(-2), field)

    def test_singular_linear_system_rejected(self):
        a, b = mono(QQ, 1, 0), mono(QQ, 2, -1)
        rows = [[a, b], [a.scale(3), b.scale(3)]]
        with pytest.raises(ValueError, match="degenerate linear system"):
            _solve_linear(rows, [a, b])

    def test_order_must_be_negative(self):
        # refused whether or not a root lifts: none does at 1/4 or on the
        # grid of thirds
        for order in ("0", "1/2", "5"):
            for fiber in ("1/2", "1/4"):
                with pytest.raises(ValueError, match="negative rational"):
                    certify_heavy(PotentialFunction(CP1, fiber), order, QQ)
            with pytest.raises(ValueError, match="negative rational"):
                scan_fibers(CP1, "1/3", order, QQ)

    def test_exact_mode_refuses_irrational_roots(self):
        with pytest.raises(ValueError, match="use gaussian or complex mode"):
            certify_heavy(PotentialFunction(CP2, "1/3,1/3"), "-6", QQ)

    def test_invalid_polytope_rejected(self, tmp_path):
        # certify_heavy takes a built potential: its callers validate
        halfplane = MomentPolytope(
            2, [Facet((1, 0), Fraction(0)), Facet((0, 1), Fraction(0)), Facet((0, -1), Fraction(-1))]
        )
        path = tmp_path / "halfplane.json"
        path.write_text(json.dumps(halfplane.to_json()), encoding="utf-8")
        args = parse_args(["toric", "certify", str(path), "--fiber", "1/2,1/2", "--order", "-6"])
        with pytest.raises(ValueError, match="failed validation"):
            args.func(args)
        with pytest.raises(ValueError, match="failed validation"):
            scan_fibers(halfplane, "1/4", "-6", QQ)


class TestFloorsAcrossOrders:
    # A certificate at order o states x and the central charge down to o,
    # so a deeper run must agree with it above o, term for term.
    @pytest.mark.parametrize(
        "certify",
        [lambda o: certify_heavy(PotentialFunction(F2, "1,1/2"), o, QQ), trap_cert],
        ids=["f2-rational", "trapezoid-gaussian"],
    )
    def test_deeper_certificate_truncates_to_the_shallower(self, certify):
        shallow, deep = certify("-2"), certify("-4")
        for bs, bd in zip(shallow.branes, deep.branes, strict=True):
            for s, d in zip([*bs.x, bs.central_charge], [*bd.x, bd.central_charge], strict=True):
                assert d.truncate(shallow.order) == s

    def test_complex_certificate_matches_the_gaussian_one(self):
        approx = certify_heavy(PotentialFunction(TRAP, "3/4,1/2"), "-4", CC)
        for be, ba in zip(trap_cert("-4").branes, approx.branes, strict=True):
            for e, a in zip([*be.x, be.central_charge], [*ba.x, ba.central_charge], strict=True):
                assert [t for t, _ in e.terms] == [t for t, _ in a.terms]
                assert all(abs(c.to_complex() - z) <= 4.5e-13 for (_, c), (_, z) in zip(e.terms, a.terms))


class TestProductFibers:
    def test_product_branes_are_componentwise_pairs(self):
        p = product(CP1, CP1)
        cert = certify_heavy(PotentialFunction(p, "1/2,1/2"), "-8", QQ)
        consts = sorted(
            tuple(xj.terms[0][1] for xj in brane.x) for brane in cert.branes
        )
        assert consts == [
            (Fraction(-1), Fraction(-1)),
            (Fraction(-1), Fraction(1)),
            (Fraction(1), Fraction(-1)),
            (Fraction(1), Fraction(1)),
        ]

    def test_mixed_minima_product_certifies(self):
        cert = certify_heavy(PotentialFunction(BOX, "1/2,1"), "-8", QQ)
        assert len(cert.branes) == 4
        for brane in cert.branes:
            assert brane.residual_valuation == NEG_INF

    def test_product_charge_splits_as_sum(self):
        p = product(CP1, CP1)
        cert = certify_heavy(PotentialFunction(p, "1/2,1/2"), "-8", QQ)
        charges = {brane.central_charge for brane in cert.branes}
        # W = W_0 + W_1 termwise: charges are +-2q^{-1/2} +- 2q^{-1/2}
        factor = certify_heavy(PotentialFunction(CP1, "1/2"), "-8", QQ)
        parts = [b.central_charge for b in factor.branes]
        expected = {a + b for a in parts for b in parts}
        assert charges == expected


class TestEquivariance:
    A = ((1, 1), (0, 1))

    def test_certificates_transform_with_the_torus(self):
        p = BOX
        fiber = (Fraction(1, 2), Fraction(1))
        q = transform(p, self.A)
        cert0 = certify_heavy(PotentialFunction(p, fiber), "-8", QQ)
        cert1 = certify_heavy(PotentialFunction(q, transform_point(self.A, fiber)), "-8", QQ)
        assert len(cert0.branes) == len(cert1.branes)
        charges0 = sorted(
            json.dumps(b.central_charge.to_json(), sort_keys=True)
            for b in cert0.branes
        )
        charges1 = sorted(
            json.dumps(b.central_charge.to_json(), sort_keys=True)
            for b in cert1.branes
        )
        assert charges0 == charges1

    def test_brane_coordinates_transform_contragradiently(self):
        # A^{-T} = ((1,0),(-1,1)) sends (x0, x1) to (x0, x0^{-1} x1); on
        # constant branes with entries +-1 that is (x0, x0*x1) up to sign
        p = BOX
        fiber = (Fraction(1, 2), Fraction(1))
        q = transform(p, self.A)
        cert0 = certify_heavy(PotentialFunction(p, fiber), "-8", QQ)
        cert1 = certify_heavy(PotentialFunction(q, transform_point(self.A, fiber)), "-8", QQ)
        consts0 = {
            tuple(xj.terms[0][1] for xj in b.x) for b in cert0.branes
        }
        mapped = {
            (c0, c0 * c1) for (c0, c1) in consts0
        }
        consts1 = {
            tuple(xj.terms[0][1] for xj in b.x) for b in cert1.branes
        }
        assert consts1 == mapped

    def test_shear_can_defeat_the_leading_heuristic(self):
        # the per-component leading strata are not shear-equivariant: after
        # this shear both gradient components share one leading binomial, the
        # leading variety is a curve, and the solver reports that honestly
        q = transform(TRAP, self.A)
        fiber = transform_point(self.A, (Fraction(3, 4), Fraction(1, 2)))
        report = certify_heavy(PotentialFunction(q, fiber), "-6", QI)
        assert not report.found
        assert report.diagnosis["reason"] == "leading-system-not-finite"
        assert "positive-dimensional" in report.diagnosis["note"]


class TestCertificates:
    def test_round_trip_revalidates(self):
        cert = trap_cert()
        doc = json.loads(json.dumps(cert.to_json()))
        result = revalidate_certificate(doc)
        assert result["ok"], result["failures"]
        assert any("gradient vanishes" in c for c in result["checks"])

    def test_tampered_charge_detected(self):
        cert = certify_heavy(PotentialFunction(CP1, "1/2"), "-8", QQ)
        doc = cert.to_json()
        doc["branes"][0]["central_charge"]["terms"][0]["c"] = "3"
        result = revalidate_certificate(doc)
        assert not result["ok"]
        assert any("central charge" in f for f in result["failures"])

    def test_tampered_brane_detected(self):
        cert = certify_heavy(PotentialFunction(CP1, "1/2"), "-8", QQ)
        doc = cert.to_json()
        doc["branes"][1]["x"][0]["terms"][0]["c"] = "2"
        result = revalidate_certificate(doc)
        assert not result["ok"]
        assert any("gradient" in f for f in result["failures"])

    def test_wrong_kind_rejected(self):
        result = revalidate_certificate({"kind": "something-else"})
        assert not result["ok"]

    def test_none_found_report_shape(self):
        report = certify_heavy(PotentialFunction(CP1, "1/4"), "-8", QQ)
        assert not report.found
        doc = report.to_json()
        assert doc["kind"] == "no-critical-branes"
        assert "not a proof" in doc["note"]
        assert doc["diagnosis"]["reason"] == "dominating-facet"

    def test_certificate_carries_theorem_tag(self):
        cert = certify_heavy(PotentialFunction(CP1, "1/2"), "-8", QQ)
        doc = cert.to_json()
        assert doc["schema_version"] == "1"
        assert doc["theorem"] == "critical-fiber-heaviness"


TRAP_W = PotentialFunction(TRAP, (Fraction(3, 4), Fraction(1, 2)))
SEVEN = [mono(QI, 7, 0)] * 2  # solves no leading system of the trapezoid


def trap_failure(x, residual, order):
    return _brane_failure(TRAP_W, x, parse_floor(residual), parse_floor(order))


class TestBraneCheck:
    # One test per condition of the check that decides, for the lift and
    # for revalidation alike, whether a brane certifies a critical point.
    def test_non_units(self):
        assert trap_failure([mono(QI, 1, -1), mono(QI, 1, 0)], "-2", "-2") == (
            "coordinates are not units"
        )

    def test_exact_residual_needs_an_exact_zero_gradient(self):
        assert trap_failure(SEVEN, "-inf", "-2") == (
            "claimed exact zero residual but gradient is nonzero"
        )

    def test_exact_residual_at_a_two_term_exact_coordinate(self):
        # 1 + q^-1 has no exact inverse, hence no exact gradient: this fails
        # where it used to raise from the inversion
        w = PotentialFunction(CP1, "1/2")
        x = [mono(QQ, 1, 0) + mono(QQ, 1, -1)]
        assert _brane_failure(w, x, NEG_INF, Fraction(-4)) == (
            "claimed exact zero residual but gradient is nonzero"
        )

    def test_gradient_above_the_residual(self):
        assert trap_failure(SEVEN, "-2", "-2") == "gradient has residual above -2"

    def test_residual_above_the_order(self):
        assert trap_failure(SEVEN, "100", "-2") == (
            "residual valuation 100 lies above the order -2"
        )

    def test_gradient_known_down_to_the_residual(self):
        # x known above -2 gives a gradient known only above -5/2, so the
        # gradient vanishes above -3 only because nothing below -5/2 is known
        x = [xj.truncate(Fraction(-2)) for xj in trap_cert().branes[0].x]
        assert trap_failure(x, "-2", "-2") is None
        assert trap_failure(x, "-3", "-2") == (
            "gradient is known only above -5/2, not down to the residual -3"
        )

    def test_leading_system(self):
        # -1/10 lies above both stratum weights (-3/4, -1/2), so the gradient
        # of the constant 7 vanishes above it; its leading coefficients still
        # solve no leading system
        assert trap_failure(SEVEN, "-1/10", "-1/10") == (
            "does not solve the leading system in component 0: residual "
            "valuation -3/4 is not below the stratum weight -3/4"
        )

    def test_degenerate_leading_jacobian(self):
        # Not a Delzant polytope: five facets of weight -1/2 at 1/2 make the
        # gradient 3x - 1/x + 2x^2 and its log-derivative 3x + 1/x + 4x^2,
        # and both vanish at x = -1.
        p = MomentPolytope(1, [Facet((1,), Fraction(0))] * 3 + [
            Facet((-1,), Fraction(-1)), Facet((2,), Fraction(1, 2)),
        ])
        w = PotentialFunction(p, "1/2")
        degenerate = "degenerate leading root: the leading-stratum Jacobian is singular"
        assert _brane_failure(w, [mono(QQ, -1, 0)], NEG_INF, -2) == degenerate
        root = LeadingRoot(values=(-1 + 0j,), exact=(GaussianRational(-1),))
        with pytest.raises(ValueError, match=degenerate):
            lift_critical(w, root, Fraction(-2), QQ)

    @pytest.mark.parametrize(
        "order, residual, failure",
        [
            ("-2", "100", "residual valuation 100 lies above the order -2"),
            ("-1/10", "-1/10", "does not solve the leading system in component 0"),
        ],
        ids=["residual-above-order", "residual-above-weights"],
    )
    def test_forged_certificate_rejected(self, order, residual, failure):
        # every brane moved to the constant 7, central charges recomputed
        doc = trap_cert(order).to_json()
        charge = TRAP_W.evaluate(SEVEN, parse_floor(residual)).to_json()
        for brane in doc["branes"]:
            brane.update(x=[xj.to_json() for xj in SEVEN], residual_valuation=residual,
                         central_charge=charge)
        result = revalidate_certificate(json.loads(json.dumps(doc)))
        assert not result["ok"]
        assert [f.split(": ", 1)[1].startswith(failure) for f in result["failures"]] == [True] * 4

    @pytest.mark.parametrize("field", [QI, CC], ids=["gaussian", "complex"])
    def test_residual_below_the_coordinates_rejected(self, field):
        # an order -2 certificate claiming residual -3, charges recomputed
        report = certify_heavy(PotentialFunction(TRAP, "3/4,1/2"), "-2", field)
        doc = report.to_json()
        for brane, lifted in zip(doc["branes"], report.branes):
            charge = TRAP_W.evaluate(lifted.x, Fraction(-3)).to_json()
            brane.update(residual_valuation="-3", central_charge=charge)
        result = revalidate_certificate(json.loads(json.dumps(doc)))
        assert result["failures"] == [
            f"brane {idx}: gradient is known only above -5/2, not down to the residual -3"
            for idx in range(len(report.branes))
        ]



# name -> polytope, fiber, the modes whose coefficients hold its leading roots
CERTIFIABLE = {
    "segment": (CP1, "1/2", ("rational", "gaussian", "complex")),
    "square": (product(CP1, CP1), "1/2,1/2", ("rational", "gaussian", "complex")),
    "f2": (F2, "1,1/2", ("rational", "gaussian", "complex")),
    "trapezoid": (TRAP, "3/4,1/2", ("gaussian", "complex")),
}


@pytest.mark.parametrize(
    "polytope, fiber, mode",
    [(p, fiber, mode) for p, fiber, modes in CERTIFIABLE.values() for mode in modes],
    ids=[f"{name}-{mode}" for name, (_, _, modes) in CERTIFIABLE.items() for mode in modes],
)
@settings(max_examples=10, deadline=None)
@given(order=st.fractions(min_value=-3, max_value=Fraction(-1, 10), max_denominator=10))
@example(order=Fraction(-1, 10))
@example(order=Fraction(-3))
def test_certificates_revalidate_at_any_order(polytope, fiber, mode, order):
    # above and below the stratum weights (-3/4 and -1/2 at the trapezoid)
    report = certify_heavy(PotentialFunction(polytope, fiber), order, field_for_mode(mode))
    assert report.branes
    result = revalidate_certificate(json.loads(json.dumps(report.to_json())))
    assert result["ok"], result["failures"]


# name -> polytope, fiber, mode, n!·Vol of the convex hull of its normals
KUSHNIRENKO = {
    "cp2": (CP2, "1/3,1/3", "complex", 3),
    "trapezoid": (TRAP, "3/4,1/2", "gaussian", 4),
    "cp1xcp1": (product(CP1, CP1), "1/2,1/2", "rational", 4),
    # the normal (0, -1) lies inside the edge from (1, 0) to (-1, -2)
    "f2": (F2, "1,1/2", "rational", 4),
    "hexagon": (
        MomentPolytope(2, [Facet(v, Fraction(-1))
                           for v in [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]]),
        "0,0", "complex", 6,
    ),
    "cube": (product(product(CP1, CP1), CP1), "1/2,1/2,1/2", "rational", 8),
}


@pytest.mark.parametrize(
    "polytope, fiber, mode, bound", KUSHNIRENKO.values(), ids=list(KUSHNIRENKO)
)
def test_one_fiber_certifies_the_kushnirenko_count(polytope, fiber, mode, bound):
    # no potential has more isolated critical points in the torus, so these
    # searches are complete
    assert kushnirenko_bound(polytope) == bound
    report = certify_heavy(PotentialFunction(polytope, fiber), Fraction(-2), field_for_mode(mode))
    assert len(report.branes) == bound


class TestScan:
    def test_grid_interval(self):
        pts = grid_fibers(CP1, Fraction(1, 8), polytope_validate(CP1).vertices)
        assert pts == [(Fraction(k, 8),) for k in range(1, 8)]

    def test_grid_simplex_sixths(self):
        pts = grid_fibers(CP2, Fraction(1, 6), polytope_validate(CP2).vertices)
        assert len(pts) == 10
        assert all(CP2.is_interior(p) for p in pts)

    def test_interval_scan_oracle(self):
        report = scan_fibers(CP1, Fraction(1, 8), Fraction(-8), QQ)
        assert [r.w.fiber for r in report.rows] == grid_fibers(
            CP1, Fraction(1, 8), polytope_validate(CP1).vertices
        )
        found = {str(r.w.fiber[0]): r.found for r in report.rows}
        assert found["1/2"]
        assert not any(v for k, v in found.items() if k != "1/2")
        certified = [r for r in report.rows if r.found]
        assert len(certified) == 1 and len(certified[0].branes) == 2

    def test_scan_csv_shape(self):
        report = scan_fibers(CP1, Fraction(1, 4), Fraction(-8), QQ)
        rows = report.to_csv_rows()
        assert rows[0] == ["fiber", "status", "branes", "leading_weights", "diagnosis"]
        assert rows[2] == ["1/2", "certified", "2", "-1/2", ""]

    def test_scan_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            scan_fibers(CP1, Fraction(0), Fraction(-8), QQ)


class TestRandomizedInteriorConsistency:
    def test_certified_scan_rows_revalidate(self):
        rng = random.Random(5)
        report = scan_fibers(CP1, Fraction(1, 4), Fraction(-8), QQ)
        for row in report.rows:
            if row.found:
                doc = row.to_json()
                assert revalidate_certificate(doc)["ok"]
        # certificates are deterministic: rerun matches
        again = scan_fibers(CP1, Fraction(1, 4), Fraction(-8), QQ)
        assert json.dumps(report.to_json(), sort_keys=True) == json.dumps(
            again.to_json(), sort_keys=True
        )
        assert rng.random() is not None

    @pytest.mark.parametrize(
        "polytope, grid, mode",
        [
            (product(segment(0, 2), segment(0, 2)), "1/2", "rational"),
            (TRAP, "1/4", "gaussian"),
        ],
        ids=["square", "trapezoid"],
    )
    def test_scan_rows_match_certify_documents(self, tmp_path, polytope, grid, mode):
        # every `toric scan` row says what `toric certify` says at its fiber
        path = tmp_path / "p.json"
        path.write_text(json.dumps(polytope.to_json()), encoding="utf-8")
        opts = ["--order=-2", "--mode", mode]
        out = tmp_path / "out.json"
        assert main(["toric", "scan", str(path), "--grid", grid, *opts, "--out", str(out)]) == 0
        rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
        statuses = set()
        for row in rows:
            argv = ["toric", "certify", str(path), "--fiber", row["fiber"], *opts]
            assert main([*argv, "--out", str(out)]) == 0
            doc = json.loads(out.read_text(encoding="utf-8"))
            statuses.add(row["status"])
            if row["status"] == "certified":
                assert row["certificate"] == doc
                assert row["branes"] == len(doc["branes"])
            else:
                assert row["certificate"] is None and row["branes"] == 0
                assert row["diagnosis"] == doc["diagnosis"]
                assert row["leading_weights"] == [s["weight"] for s in doc["strata"]]
        assert statuses == {"certified", "none-found"}
