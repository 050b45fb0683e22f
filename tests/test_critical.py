"""Potentials, leading critical points, Newton lifts, certificates, scans."""

import functools
import json
import random
from fractions import Fraction

import pytest

from novspec.fields import NEG_INF, GaussianRational, field_for_mode
from novspec.novikov import NovikovScalar
from novspec.critical import (
    LeadingRoot,
    _solve_linear,
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
    box,
    polytope_validate,
    product,
    segment,
    simplex,
    transform,
    transform_point,
)
from novspec.potential import PotentialFunction, brane_from_constants, potential

QQ = field_for_mode("rational")
QI = field_for_mode("gaussian")
CC = field_for_mode("complex")

CP1 = segment(Fraction(0), Fraction(1))
CP2 = simplex(2)
TRAP = MomentPolytope(
    2,
    [
        Facet((1, 0), Fraction(0)),
        Facet((0, 1), Fraction(0)),
        Facet((0, -1), Fraction(-1)),
        Facet((-1, -1), Fraction(-2)),
    ],
)


def mono(field, c, e):
    return NovikovScalar.monomial(field, field.coerce(c), Fraction(e))


@functools.lru_cache(maxsize=None)
def trap_cert(order="-6"):
    return certify_heavy(TRAP, "3/4,1/2", order, QI)


@functools.lru_cache(maxsize=None)
def cp2_cert():
    return certify_heavy(CP2, "1/3,1/3", "-10", CC)


class TestPotential:
    def test_interval_terms(self):
        w = potential(CP1, "1/2")
        assert [(t.exponent, t.weight) for t in w.terms] == [
            ((1,), Fraction(-1, 2)),
            ((-1,), Fraction(-1, 2)),
        ]

    def test_off_interior_rejected(self):
        with pytest.raises(ValueError, match="not interior"):
            potential(CP1, "1")

    def test_evaluate_and_gradient_at_unit_brane(self):
        w = potential(CP1, "1/2")
        x = brane_from_constants(QQ, [Fraction(1)])
        assert w.evaluate(x) == mono(QQ, 2, Fraction(-1, 2))
        grad = w.gradient(x)
        assert len(grad) == 1 and grad[0].is_exact_zero()

    def test_gradient_nonzero_off_critical(self):
        w = potential(CP1, "1/2")
        x = brane_from_constants(QQ, [Fraction(2)])
        (y,) = w.gradient(x)
        assert y == mono(QQ, Fraction(3, 2), Fraction(-1, 2))

    def test_hessian_symmetric(self):
        w = potential(CP2, "1/4,1/4")
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
        w = potential(TRAP, "3/4,1/2")

        def check(pt, floor):
            fresh = potential(TRAP, "3/4,1/2")
            assert w.gradient(pt, floor) == fresh.gradient(pt, floor)
            assert w.hessian(pt, floor) == fresh.hessian(pt, floor)
            assert w.evaluate(pt, floor) == fresh.evaluate(pt, floor)

        moved = list(x)
        for pt, floor in [(x, -2), (other, -2), (x, -2), (x, -3), (moved, -3)]:
            check(pt, floor)
        moved[1] = other[1]  # the same list, holding another point
        check(moved, -3)

    def test_non_unit_brane_rejected(self):
        w = potential(CP1, "1/2")
        x = [mono(QQ, 1, Fraction(1, 2))]
        with pytest.raises(ValueError):
            w.gradient(x)

    def test_leading_strata_per_component(self):
        w = potential(TRAP, (Fraction(3, 4), Fraction(1, 2)))
        strata = w.leading_strata()
        assert [(s.component, s.weight, tuple(s.facets)) for s in strata] == [
            (0, Fraction(-3, 4), (0, 3)),
            (1, Fraction(-1, 2), (1, 2)),
        ]

    def test_dominating_facet_stratum(self):
        w = potential(CP1, "1/4")
        (s,) = w.leading_strata()
        assert s.weight == Fraction(-1, 4)
        assert s.dominating == 0


class TestLeadingRoots:
    def test_interval_midpoint_pm_one(self):
        w = potential(CP1, "1/2")
        rep = critical_points_leading(w)
        assert rep.found
        assert [r.values for r in rep.roots] == [(-1 + 0j,), (1 + 0j,)]
        assert [r.exact_rational for r in rep.roots] == [
            (Fraction(-1),),
            (Fraction(1),),
        ]

    def test_off_center_dominating_facet(self):
        w = potential(CP1, "1/4")
        rep = critical_points_leading(w)
        assert not rep.found
        assert rep.diagnosis["reason"] == "dominating-facet"
        assert rep.diagnosis["facet"] == 0

    def test_simplex_monotone_fibers_have_n_plus_1_roots(self):
        for n in (1, 2, 3):
            p = simplex(n)
            center = ",".join([f"1/{n + 1}"] * n)
            w = potential(p, center)
            rep = critical_points_leading(w)
            assert rep.found and len(rep.roots) == n + 1

    def test_cube_roots_need_complex_mode(self):
        w = potential(CP2, "1/3,1/3")
        rep = critical_points_leading(w)
        root = rep.roots[0]
        assert root.exact_rational is None and root.exact_gaussian is None
        with pytest.raises(ValueError, match="use gaussian or complex mode"):
            root.constants_for(QQ)
        vals = root.constants_for(CC)
        assert abs(vals[0] ** 3 - 1) < 1e-9

    def test_mixed_minima_product_four_roots(self):
        p = box([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))])
        w = potential(p, (Fraction(1, 2), Fraction(1)))
        rep = critical_points_leading(w)
        assert rep.found and len(rep.roots) == 4

    def test_gaussian_roots_snap_exactly(self):
        w = potential(TRAP, (Fraction(3, 4), Fraction(1, 2)))
        rep = critical_points_leading(w)
        assert [r.values for r in rep.roots] == [
            (-1 + 0j, 1 + 0j),
            (-1j, -1 + 0j),
            (1j, -1 + 0j),
            (1 + 0j, 1 + 0j),
        ]
        assert rep.roots[1].exact_gaussian[0] == GaussianRational(0, -1)
        assert rep.roots[1].exact_rational is None


class TestLift:
    def test_interval_exact_branes(self):
        cert = certify_heavy(CP1, "1/2", "-8", QQ)
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
        w = potential(TRAP, (Fraction(3, 4), Fraction(1, 2)))
        for brane in cert.branes:
            grad = w.gradient(brane.x, Fraction(-6))
            assert all(y.is_zero() for y in grad)

    def test_triangle_barycenter_floating(self):
        cert = cp2_cert()
        assert len(cert.branes) == 3
        thirds = []
        for brane in cert.branes:
            assert brane.residual_norm < 1e-10
            charge = brane.central_charge
            # critical values are 3*zeta over the cube roots of unity zeta
            assert charge.terms[0][0] == Fraction(-1, 3)
            assert abs(abs(charge.terms[0][1]) - 3) < 1e-9
            thirds.append(charge.terms[0][1] / 3)
        for zeta in thirds:
            assert abs(zeta**3 - 1) < 1e-9
        assert abs(sum(thirds)) < 1e-9

    def test_non_root_rejected(self):
        w = potential(CP1, "1/2")
        bad = LeadingRoot(
            values=(2 + 0j,), exact_rational=(Fraction(2),), exact_gaussian=None
        )
        with pytest.raises(ValueError, match="does not solve the leading system"):
            lift_critical(w, bad, Fraction(-6), QQ)

    @pytest.mark.parametrize("field, root", [(QI, GaussianRational(0, 1)), (CC, 1j)])
    def test_degenerate_leading_root_rejected(self, field, root):
        # x = i gives x + 1/x = 0: the leading Jacobian of the segment vanishes.
        w = potential(CP1, "1/2")
        with pytest.raises(ValueError, match="degenerate leading root"):
            lift_critical(w, [root], Fraction(-2), field)

    def test_singular_linear_system_rejected(self):
        a, b = mono(QQ, 1, 0), mono(QQ, 2, -1)
        rows = [[a, b], [a.scale(3), b.scale(3)]]
        with pytest.raises(ValueError, match="degenerate linear system"):
            _solve_linear(rows, [a, b])

    def test_order_must_be_negative(self):
        with pytest.raises(ValueError, match="negative rational"):
            certify_heavy(CP1, "1/2", "0", QQ)
        with pytest.raises(ValueError, match="negative rational"):
            certify_heavy(CP1, "1/2", "1/2", QQ)

    def test_exact_mode_refuses_irrational_roots(self):
        with pytest.raises(ValueError, match="use gaussian or complex mode"):
            certify_heavy(CP2, "1/3,1/3", "-6", QQ)

    def test_invalid_polytope_rejected(self):
        halfplane = MomentPolytope(
            2, [Facet((1, 0), Fraction(0)), Facet((0, 1), Fraction(0)), Facet((0, -1), Fraction(-1))]
        )
        with pytest.raises(ValueError, match="failed validation"):
            certify_heavy(halfplane, "1/2,1/2", "-6", QQ)


class TestProductFibers:
    def test_product_branes_are_componentwise_pairs(self):
        p = product(CP1, CP1)
        cert = certify_heavy(p, "1/2,1/2", "-8", QQ)
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
        p = box([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))])
        cert = certify_heavy(p, "1/2,1", "-8", QQ)
        assert len(cert.branes) == 4
        for brane in cert.branes:
            assert brane.residual_valuation == NEG_INF

    def test_product_charge_splits_as_sum(self):
        p = product(CP1, CP1)
        cert = certify_heavy(p, "1/2,1/2", "-8", QQ)
        charges = {brane.central_charge for brane in cert.branes}
        # W = W_0 + W_1 termwise: charges are +-2q^{-1/2} +- 2q^{-1/2}
        factor = certify_heavy(CP1, "1/2", "-8", QQ)
        parts = [b.central_charge for b in factor.branes]
        expected = {a + b for a in parts for b in parts}
        assert charges == expected


class TestEquivariance:
    A = ((1, 1), (0, 1))

    def test_certificates_transform_with_the_torus(self):
        p = box([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))])
        fiber = (Fraction(1, 2), Fraction(1))
        q = transform(p, self.A)
        cert0 = certify_heavy(p, fiber, "-8", QQ)
        cert1 = certify_heavy(q, transform_point(self.A, fiber), "-8", QQ)
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
        p = box([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))])
        fiber = (Fraction(1, 2), Fraction(1))
        q = transform(p, self.A)
        cert0 = certify_heavy(p, fiber, "-8", QQ)
        cert1 = certify_heavy(q, transform_point(self.A, fiber), "-8", QQ)
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
        report = certify_heavy(q, fiber, "-6", QI)
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
        cert = certify_heavy(CP1, "1/2", "-8", QQ)
        doc = cert.to_json()
        doc["branes"][0]["central_charge"]["terms"][0]["c"] = "3"
        result = revalidate_certificate(doc)
        assert not result["ok"]
        assert any("central charge" in f for f in result["failures"])

    def test_tampered_brane_detected(self):
        cert = certify_heavy(CP1, "1/2", "-8", QQ)
        doc = cert.to_json()
        doc["branes"][1]["x"][0]["terms"][0]["c"] = "2"
        result = revalidate_certificate(doc)
        assert not result["ok"]
        assert any("gradient" in f for f in result["failures"])

    def test_wrong_kind_rejected(self):
        result = revalidate_certificate({"kind": "something-else"})
        assert not result["ok"]

    def test_none_found_report_shape(self):
        report = certify_heavy(CP1, "1/4", "-8", QQ)
        assert not report.found
        doc = report.to_json()
        assert doc["kind"] == "no-critical-branes"
        assert "not a proof" in doc["note"]
        assert doc["diagnosis"]["reason"] == "dominating-facet"

    def test_certificate_carries_theorem_tag(self):
        cert = certify_heavy(CP1, "1/2", "-8", QQ)
        doc = cert.to_json()
        assert doc["schema_version"] == "1"
        assert doc["theorem"] == "critical-fiber-heaviness"


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
        assert [r.fiber for r in report.rows] == grid_fibers(
            CP1, Fraction(1, 8), polytope_validate(CP1).vertices
        )
        statuses = {str(r.fiber[0]): r.status for r in report.rows}
        assert statuses["1/2"] == "certified"
        assert all(v == "none-found" for k, v in statuses.items() if k != "1/2")
        certified = [r for r in report.rows if r.status == "certified"]
        assert len(certified) == 1 and certified[0].branes == 2

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
            if row.certificate is not None:
                doc = row.certificate.to_json()
                assert revalidate_certificate(doc)["ok"]
        # certificates are deterministic: rerun matches
        again = scan_fibers(CP1, Fraction(1, 4), Fraction(-8), QQ)
        assert json.dumps(report.to_json(), sort_keys=True) == json.dumps(
            again.to_json(), sort_keys=True
        )
        assert rng.random() is not None
