"""Tensor products: Koszul sign, additivity of spectral numbers, Kunneth."""

import random
from fractions import Fraction

from novspec import CoefficientField, NovikovScalar
from novspec.complexes import validate_complex
from novspec.records import NEG_INF
from novspec.randomcx import random_complex, random_scalar
from novspec.spectral import homology_report, spectral_number, spectrum
from novspec.tensor import kunneth_ranks, tensor_chain, tensor_product

from reference import level
from test_spectral import hand_case

QQ = CoefficientField("rational")


class TestTensorStructure:
    def test_actions_and_degrees_add(self):
        cx = hand_case()
        prod = tensor_product(cx, cx)
        g = prod.generator("(a1,b)")
        assert g.action == Fraction(5)
        assert g.degree == 1

    def test_lattice_is_direct_sum(self):
        cx = hand_case()
        prod = tensor_product(cx, cx)
        assert prod.lattice.periods == (Fraction(1, 2), Fraction(1, 2))

    def test_product_is_valid_complex(self):
        rng = random.Random(53)
        for _ in range(25):
            d0 = random_complex(rng, max_generators=5)
            d1 = random_complex(rng, max_generators=5)
            prod = tensor_product(d0.complex, d1.complex)
            report = validate_complex(prod)
            assert report.valid, report.violations

    def test_koszul_sign_kills_square(self):
        # two arrows in each factor would break delta^2 without the sign
        cx = hand_case()
        prod = tensor_product(cx, cx)
        col = prod.apply_differential(prod.column("(b,b)"))
        assert col == {}


class TestAdditivity:
    def test_hand_case_doubles(self):
        cx = hand_case()
        prod = tensor_product(cx, cx)
        one = NovikovScalar.one(QQ)
        z = tensor_chain({"a1": one}, {"a1": one})
        res = spectral_number(prod, z)
        assert res.value == Fraction(5)

    def test_random_pairs(self):
        rng = random.Random(59)
        checked = 0
        for _ in range(25):
            d0 = random_complex(rng, max_generators=5)
            d1 = random_complex(rng, max_generators=5)
            z0 = d0.random_cycle(rng)
            z1 = d1.random_cycle(rng)
            if z0 is None or z1 is None:
                continue
            v0 = spectral_number(d0.complex, z0).value
            v1 = spectral_number(d1.complex, z1).value
            prod = tensor_product(d0.complex, d1.complex)
            v01 = spectral_number(prod, tensor_chain(z0, z1)).value
            assert v01 == v0 + v1
            checked += 1
        assert checked > 15


class TestKunneth:
    def test_convolution_table(self):
        assert kunneth_ranks({0: 1, 1: 2}, {0: 3, 2: 1}) == {
            0: 3,
            1: 6,
            2: 1,
            3: 2,
        }

    def test_random_kunneth(self):
        rng = random.Random(61)
        for _ in range(20):
            d0 = random_complex(rng, max_generators=5)
            d1 = random_complex(rng, max_generators=5)
            prod = tensor_product(d0.complex, d1.complex)
            got = {k: v for k, v in homology_report(prod)["ranks"].items() if v}
            expected = kunneth_ranks(d0.expected_ranks(), d1.expected_ranks())
            assert got == {str(k): v for k, v in expected.items()}


class TestAxiomChecker:
    def test_full_report_passes(self):
        rng = random.Random(67)
        d0 = random_complex(rng, max_generators=5)
        d1 = random_complex(rng, max_generators=5)
        z0, z1 = d0.random_cycle(rng), d1.random_cycle(rng)
        shifts = [
            random_scalar(rng, d0.complex.field, d0.complex.lattice)
            for _ in range(3)
        ]
        values = []
        for cx, z in ((d0.complex, z0), (d1.complex, z1)):
            res = spectral_number(cx, z)
            assert not res.is_boundary
            assert spectrum(cx).contains(res.value) and res.spectrality is not None
            assert level(res.witness_cycle, cx) == res.value
            for lam in shifts:
                shifted = {gid: coeff * lam for gid, coeff in z.items()}
                assert spectral_number(cx, shifted).value == res.value + lam.valuation()
            values.append(res.value)
        prod = tensor_product(d0.complex, d1.complex)
        assert spectral_number(prod, tensor_chain(z0, z1)).value == values[0] + values[1]

    def test_boundary_classes_handled(self):
        cx = hand_case()
        one = NovikovScalar.one(QQ)
        z = cx.apply_differential({"b": one})
        assert spectral_number(cx, z).is_boundary
        res = spectral_number(cx, {"a1": one})
        assert level(res.witness_cycle, cx) == res.value
        prod = tensor_product(cx, cx)
        assert spectral_number(prod, tensor_chain(z, {"a1": one})).value == NEG_INF
