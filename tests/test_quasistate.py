"""Oracle homogenization, axiom checkers, heaviness and product reports."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from novspec.quasistate import (
    _PREQUASIMORPHISM_RULES,
    _QUASISTATE_RULES,
    SpectralOracle,
    check_partial_quasistate,
    check_prequasimorphism,
    heaviness_check,
    homogenize,
    mu_from_oracle,
    product_quasistate_check,
)


def linear_oracle(slope, n_max=8, tag="synthetic"):
    slope = Fraction(slope)
    return SpectralOracle([(n, slope * n) for n in range(1, n_max + 1)], tag)


class TestOracle:
    def test_scales_must_be_positive_distinct_integers(self):
        with pytest.raises(ValueError, match="positive integers"):
            SpectralOracle([(0, Fraction(1))])
        with pytest.raises(ValueError, match="positive integers"):
            SpectralOracle([(Fraction(1, 2), Fraction(1))])
        with pytest.raises(ValueError, match="duplicate"):
            SpectralOracle([(1, Fraction(1)), (1, Fraction(2))])

    def test_tag_vocabulary(self):
        SpectralOracle([(1, Fraction(0))], "derived-from-complex")
        with pytest.raises(ValueError, match="tag"):
            SpectralOracle([(1, Fraction(0))], "guessed")

    def test_json_round_trip_keeps_rationals(self):
        doc = {"tag": "synthetic", "samples": [{"n": 1, "c": "1/3"}, {"n": 2, "c": "2/3"}]}
        back = SpectralOracle.from_json(doc)
        assert back.samples == [(1, Fraction(1, 3)), (2, Fraction(2, 3))]
        assert type(back.samples[0][1]) is Fraction and back.tag == "synthetic"

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two oracle samples"):
            homogenize(SpectralOracle([(3, Fraction(1))]))


class TestHomogenize:
    def test_exact_linear_recovers_slope_with_zero_width(self):
        est = homogenize(linear_oracle(Fraction(3, 2)))
        assert est.value == Fraction(-3, 2)
        assert est.interval == (Fraction(-3, 2), Fraction(-3, 2))
        assert est.scales_used == list(range(1, 9))

    def test_bounded_perturbation_recovery(self):
        rng = random.Random(7)
        n_max = 64
        for trial in range(20):
            s = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            samples = [
                (n, s * n + Fraction(rng.randint(-1000, 1000), 1000))
                for n in range(1, n_max + 1)
            ]
            est = homogenize(SpectralOracle(samples))
            assert abs(est.value - (-s)) <= Fraction(2, n_max), f"trial {trial}"
            lo, hi = est.interval
            assert lo <= -s <= hi

    def test_value_between_sample_ratios(self):
        rng = random.Random(13)
        for _ in range(25):
            samples = [
                (n, Fraction(rng.randint(-60, 60), rng.randint(1, 7)))
                for n in rng.sample(range(1, 40), 5)
            ]
            est = homogenize(SpectralOracle(samples))
            ratios = [-c / n for n, c in samples]
            assert min(ratios) <= est.value <= max(ratios)

    def test_joint_scaling_leaves_value_fixed(self):
        rng = random.Random(21)
        samples = [
            (n, Fraction(rng.randint(-40, 40), 4)) for n in range(1, 11)
        ]
        est = homogenize(SpectralOracle(samples))
        for k in (2, 3, 7):
            scaled = SpectralOracle([(k * n, k * c) for n, c in samples])
            assert homogenize(scaled).value == est.value

    def test_float_samples_switch_to_float_mode(self):
        est = homogenize(
            SpectralOracle([(n, 0.5 * n + 1e-12) for n in (1, 2, 4, 8)])
        )
        assert isinstance(est.value, float)
        assert abs(est.value + 0.5) < 1e-9


class TestMu:
    def test_sign_and_volume(self):
        o = linear_oracle(Fraction(-5, 3))
        zeta = homogenize(o)
        mu = mu_from_oracle(o, Fraction(4))
        assert mu.value == Fraction(4) * zeta.slope
        assert mu.value == -Fraction(4) * zeta.value

    def test_volume_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            mu_from_oracle(linear_oracle(1), Fraction(0))


def passing_family():
    return {
        "functions": [
            {"name": "one", "zeta": "1"},
            {"name": "F", "zeta": "1/2"},
            {"name": "2F", "zeta": "1"},
            {"name": "F+3", "zeta": "7/2"},
            {"name": "G", "zeta": "1/4"},
            {"name": "F#G", "zeta": "3/4"},
            {"name": "D", "zeta": "0"},
            {"name": "F#D", "zeta": "1/2"},
        ],
        "relations": [
            {"type": "normalized", "f": "one"},
            {"type": "scale", "f": "F", "g": "2F", "factor": "2"},
            {"type": "shift", "f": "F", "g": "F+3", "alpha": "3"},
            {"type": "le", "f": "G", "g": "F"},
            {"type": "lipschitz", "f": "F", "g": "G", "dist": "1/4"},
            {"type": "triangle", "f": "F", "g": "G", "sum": "F#G"},
            {"type": "vanishing", "f": "D"},
            {"type": "partial_additivity", "f": "F", "g": "D", "sum": "F#D"},
            {"type": "invariance", "f": "F", "g": "F"},
        ],
    }


class TestQuasistateAxioms:
    def test_consistent_family_passes(self):
        rep = check_partial_quasistate(passing_family())
        assert rep["all_pass"] and rep["tolerance"] == 0
        by_name = {a["axiom"]: a for a in rep["axioms"]}
        assert by_name["normalization"]["status"] == "pass"
        assert by_name["triangle"]["checked"] == 1

    def test_conditional_axioms_marked(self):
        rep = check_partial_quasistate(passing_family())
        by_name = {a["axiom"]: a for a in rep["axioms"]}
        for name in ("partial-additivity", "hamiltonian-invariance", "vanishing"):
            assert by_name[name]["conditional"]
        for name in ("normalization", "triangle", "monotonicity"):
            assert not by_name[name]["conditional"]

    @pytest.mark.parametrize(
        "relation,axiom",
        [
            ({"type": "scale", "f": "F", "g": "G", "factor": "3"}, "semi-homogeneity"),
            ({"type": "le", "f": "F", "g": "G"}, "monotonicity"),
            ({"type": "normalized", "f": "F"}, "normalization"),
            ({"type": "shift", "f": "F", "g": "G", "alpha": "5"}, "additivity-with-constants"),
            ({"type": "lipschitz", "f": "F", "g": "G", "dist": "1/8"}, "lipschitz"),
            ({"type": "vanishing", "f": "F"}, "vanishing"),
            ({"type": "invariance", "f": "F", "g": "G"}, "hamiltonian-invariance"),
        ],
    )
    def test_violations_detected(self, relation, axiom):
        family = {
            "functions": [
                {"name": "F", "zeta": "1/2"},
                {"name": "G", "zeta": "1/4"},
            ],
            "relations": [relation],
        }
        rep = check_partial_quasistate(family)
        assert not rep["all_pass"]
        by_name = {a["axiom"]: a for a in rep["axioms"]}
        assert by_name[axiom]["status"] == "fail"
        assert by_name[axiom]["failures"]

    def test_triangle_violation(self):
        family = {
            "functions": [
                {"name": "F", "zeta": "1/2"},
                {"name": "G", "zeta": "1/4"},
                {"name": "S", "zeta": "0"},
            ],
            "relations": [{"type": "triangle", "f": "F", "g": "G", "sum": "S"}],
        }
        rep = check_partial_quasistate(family)
        assert not rep["all_pass"]

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown function"):
            check_partial_quasistate(
                {"functions": [], "relations": [{"type": "vanishing", "f": "F"}]}
            )
        with pytest.raises(ValueError, match="unknown relation"):
            check_partial_quasistate(
                {
                    "functions": [{"name": "F", "zeta": "0"}],
                    "relations": [{"type": "frobnicate", "f": "F"}],
                }
            )

    def test_float_zetas_get_float_tolerance(self):
        family = {
            "functions": [
                {"name": "F", "zeta": 0.5},
                {"name": "2F", "zeta": 1.0 + 1e-12},
            ],
            "relations": [{"type": "scale", "f": "F", "g": "2F", "factor": "2"}],
        }
        rep = check_partial_quasistate(family)
        assert rep["tolerance"] == 1e-9 and rep["all_pass"]


class TestRuleTables:
    @pytest.mark.parametrize(
        "rules, check, passing, failing",
        [
            (_QUASISTATE_RULES, check_partial_quasistate, "functions", "functions_fail"),
            (_PREQUASIMORPHISM_RULES, check_prequasimorphism, "elements", "elements_fail"),
        ],
        ids=["quasistate", "prequasimorphism"],
    )
    def test_every_rule_is_pinned_passing_and_failing(self, rules, check, passing, failing):
        # command_output.json pins the report bytes of one passing and one
        # failing family; each relation type of the table must appear in
        # both, so that every comparison and failure message is pinned.
        corpus = Path(__file__).resolve().parent / "golden" / "command_output.json"
        docs = json.loads(corpus.read_text(encoding="utf-8"))["documents"]
        for name, status in ((f"{passing}.json", "pass"), (f"{failing}.json", "fail")):
            assert set(rules) <= {r["type"] for r in docs[name]["relations"]}, name
            report = check(docs[name])
            assert [a["axiom"] for a in report["axioms"]] == [r.axiom for r in rules.values()]
            assert {a["status"] for a in report["axioms"]} == {status}, name


# 1 - 1e-17 and 1 + 1e-17: float() reads both as 1.0
NEAR_ONE = "99999999999999999/100000000000000000"
PAST_ONE = "100000000000000001/100000000000000000"


class TestExactComparisons:
    @pytest.mark.parametrize(
        "relation,axiom",
        [
            ({"type": "lipschitz", "f": "one", "g": "zero", "dist": NEAR_ONE}, "lipschitz"),
            ({"type": "le", "f": "past_one", "g": "one"}, "monotonicity"),
            ({"type": "triangle", "f": "one", "g": "zero", "sum": "near_one"}, "triangle"),
        ],
    )
    def test_quasistate_violation_below_float_resolution(self, relation, axiom):
        family = {
            "functions": [
                {"name": "one", "zeta": "1"},
                {"name": "zero", "zeta": "0"},
                {"name": "near_one", "zeta": NEAR_ONE},
                {"name": "past_one", "zeta": PAST_ONE},
            ],
            "relations": [relation],
        }
        rep = check_partial_quasistate(family)
        by_name = {a["axiom"]: a for a in rep["axioms"]}
        assert not rep["all_pass"] and rep["tolerance"] == 0
        assert by_name[axiom]["status"] == "fail" and by_name[axiom]["failures"]

    @pytest.mark.parametrize(
        "relation,axiom",
        [
            (
                {"type": "quasi_additivity", "f": "one", "g": "zero", "product": "two",
                 "bound": NEAR_ONE},
                "quasi-additivity",
            ),
            ({"type": "lipschitz", "f": "one", "g": "zero", "bound": NEAR_ONE}, "hofer-lipschitz"),
        ],
    )
    def test_prequasimorphism_violation_below_float_resolution(self, relation, axiom):
        family = {
            "elements": [
                {"name": "one", "mu": "1"},
                {"name": "zero", "mu": "0"},
                {"name": "two", "mu": "2"},
            ],
            "relations": [relation],
        }
        rep = check_prequasimorphism(family)
        by_name = {a["axiom"]: a for a in rep["axioms"]}
        assert not rep["all_pass"]
        assert by_name[axiom]["status"] == "fail" and by_name[axiom]["failures"]

    def test_heaviness_violation_below_float_resolution(self):
        rep = heaviness_check({"functions": [{"name": "f", "zeta": PAST_ONE, "sup": "1"}]})
        assert rep.violations == [
            {"name": "f", "zeta": PAST_ONE, "sup": "1", "excess": "1/100000000000000000"}
        ]


class TestPrequasimorphism:
    def test_consistent_family(self):
        rep = check_prequasimorphism(
            {
                "elements": [
                    {"name": "a", "mu": "2"},
                    {"name": "a3", "mu": "6"},
                    {"name": "b", "mu": "-1"},
                    {"name": "ab", "mu": "3/2"},
                    {"name": "gag", "mu": "2"},
                ],
                "relations": [
                    {"type": "power", "f": "a", "g": "a3", "n": 3},
                    {
                        "type": "quasi_additivity",
                        "f": "a",
                        "g": "b",
                        "product": "ab",
                        "bound": "1",
                    },
                    {"type": "conjugation", "f": "a", "g": "gag"},
                ],
            }
        )
        assert rep["all_pass"]
        by_name = {a["axiom"]: a for a in rep["axioms"]}
        assert by_name["hofer-lipschitz"]["status"] == "not-checked"
        assert by_name["calabi"]["status"] == "not-checked"

    def test_declared_lipschitz_and_calabi_checked(self):
        rep = check_prequasimorphism(
            {
                "elements": [
                    {"name": "a", "mu": "2"},
                    {"name": "b", "mu": "5/2"},
                ],
                "relations": [
                    {"type": "lipschitz", "f": "a", "g": "b", "bound": "1"},
                    {"type": "calabi", "f": "a", "value": "2"},
                ],
            }
        )
        by_name = {a["axiom"]: a for a in rep["axioms"]}
        assert by_name["hofer-lipschitz"]["status"] == "pass"
        assert by_name["calabi"]["status"] == "pass"

    def test_power_violation(self):
        rep = check_prequasimorphism(
            {
                "elements": [{"name": "a", "mu": "2"}, {"name": "a2", "mu": "5"}],
                "relations": [{"type": "power", "f": "a", "g": "a2", "n": 2}],
            }
        )
        assert not rep["all_pass"]

    def test_power_needs_positive_integer(self):
        with pytest.raises(ValueError, match="integer n"):
            check_prequasimorphism(
                {
                    "elements": [{"name": "a", "mu": "1"}],
                    "relations": [{"type": "power", "f": "a", "g": "a", "n": 0}],
                }
            )


class TestHeaviness:
    def test_consistent_report(self):
        rep = heaviness_check(
            {
                "subset": "fiber-1/2",
                "functions": [
                    {"name": "H1", "zeta": "1/2", "sup": "1/2"},
                    {"name": "H2", "zeta": "-1", "sup": "0"},
                ],
            }
        )
        assert rep.heavy_consistent and rep.checked == ["H1", "H2"]
        assert rep.to_json()["consistent"]

    def test_violation_reports_excess(self):
        rep = heaviness_check(
            {"subset": "Y", "functions": [{"name": "H", "zeta": "1", "sup": "1/2"}]}
        )
        assert not rep.heavy_consistent
        assert rep.violations[0]["excess"] == "1/2"

    def test_empty_family_trivially_consistent(self):
        rep = heaviness_check({"subset": "Y", "functions": []})
        assert rep.heavy_consistent

    def test_evaluation_fiber_never_violates(self):
        # zeta from homogenized evaluation data, Y = the evaluation fiber:
        # zeta(F) = F(fiber) = sup_Y F exactly, boundary equality included
        rng = random.Random(3)
        for _ in range(20):
            value = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            oracle = SpectralOracle([(n, -value * n) for n in range(1, 9)])
            est = homogenize(oracle)
            rep = heaviness_check(
                {
                    "subset": "evaluation-fiber",
                    "functions": [
                        {"name": "F", "zeta": str(est.value), "sup": str(value)}
                    ],
                }
            )
            assert rep.heavy_consistent


class TestProduct:
    def pairs(self):
        return [
            {"f0": "F", "f1": "G", "zeta0": "1/2", "zeta1": "1/4", "zeta_product": "3/4"},
            {"f0": "F2", "f1": "G2", "zeta0": "-1", "zeta1": "2", "zeta_product": "1"},
        ]

    def test_additivity_passes_and_is_symmetric(self):
        rep = product_quasistate_check({"pairs": self.pairs()})
        assert rep["all_additive"]
        swapped = [
            {
                "f0": p["f1"],
                "f1": p["f0"],
                "zeta0": p["zeta1"],
                "zeta1": p["zeta0"],
                "zeta_product": p["zeta_product"],
            }
            for p in self.pairs()
        ]
        rep2 = product_quasistate_check({"pairs": swapped})
        assert rep2["all_additive"] == rep["all_additive"]

    def test_non_additive_detected(self):
        bad = self.pairs()
        bad[0]["zeta_product"] = "1"
        rep = product_quasistate_check({"pairs": bad})
        assert not rep["all_additive"]
        assert rep["pairs"][0]["additive"] is False

    def test_product_heaviness_inferred_from_factors(self):
        rep = product_quasistate_check(
            {
                "pairs": self.pairs(),
                "factors_heavy": [
                    {"subset": "fiber0", "heavy": True},
                    {"subset": "fiber1", "heavy": True},
                ],
            }
        )
        inf = rep["product_heaviness"]
        assert inf["theorem"] == "product-heaviness"
        assert inf["product_heavy"]
        assert "inferred" in inf["note"]

    def test_hybrid_case_with_external_factor_table(self):
        rep = product_quasistate_check(
            {
                "pairs": [
                    {
                        "f0": "F",
                        "f1": "id",
                        "zeta0": "1/2",
                        "zeta1": "0",
                        "zeta_product": "1/2",
                    }
                ],
                "factors_heavy": [
                    {"subset": "fiber0", "heavy": True},
                    {"subset": "point", "heavy": False},
                ],
            }
        )
        assert rep["all_additive"]
        assert not rep["product_heaviness"]["product_heavy"]
