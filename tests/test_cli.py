"""End-to-end CLI contract: exit codes, JSON round trips, determinism."""

import argparse
import collections
import contextlib
import csv
import enum
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import novspec
from novspec import cli
from novspec.cli import build_parser, main, parse_args
from novspec.complexes import PeriodLattice

from reference import omega

# facet value at lam is <normal, lam> - offset, so [0, 1] is offsets 0 and -1
CP1 = {
    "dim": 1,
    "facets": [
        {"normal": [1], "offset": "0"},
        {"normal": [-1], "offset": "-1"},
    ],
}

CP2 = {
    "dim": 2,
    "facets": [
        {"normal": [1, 0], "offset": "0"},
        {"normal": [0, 1], "offset": "0"},
        {"normal": [-1, -1], "offset": "-1"},
    ],
}

# {x >= 0, y >= 0, y <= 1, x + y <= 2}
TRAP = {
    "dim": 2,
    "facets": [
        {"normal": [1, 0], "offset": "0"},
        {"normal": [0, 1], "offset": "0"},
        {"normal": [0, -1], "offset": "-1"},
        {"normal": [-1, -1], "offset": "-2"},
    ],
}

STRIP = {
    "dim": 2,
    "facets": [
        {"normal": [1, 0], "offset": "0"},
        {"normal": [-1, 0], "offset": "-1"},
        {"normal": [0, 1], "offset": "0"},
    ],
}

GOOD_COMPLEX = {
    "field": {"mode": "rational"},
    "lattice": {"rank": 1, "periods": ["1"]},
    "generators": [
        {"id": "a", "action": "1", "degree": 1},
        {"id": "b", "action": "0", "degree": 0},
        {"id": "c", "action": "2", "degree": 0},
    ],
    "differential": [
        {"from": "a", "to": "b", "coeff": [{"exp": "-1", "c": "1"}]}
    ],
    "floor": "-inf",
}

BAD_COMPLEX = {
    "field": {"mode": "rational"},
    "lattice": {"rank": 0, "periods": []},
    "generators": [
        {"id": "a", "action": "0", "degree": 1},
        {"id": "b", "action": "3", "degree": 0},
    ],
    # exponent 2 raises action: no strict action drop
    "differential": [
        {"from": "a", "to": "b", "coeff": [{"exp": "2", "c": "1"}]}
    ],
    "floor": "-inf",
}

ORACLE = {
    "samples": [{"n": n, "c": str(n * 3 // 2) if n % 2 == 0 else f"{3 * n}/2"}
                for n in range(1, 9)],
    "tag": "synthetic",
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_json(tmp_path, argv):
    """Run a CLI command with --out and return (exit_code, parsed_json)."""
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cert")
    poly = write(tmp, "cp1.json", CP1)
    out = tmp / "cert.json"
    code = main(
        ["toric", "certify", poly, "--fiber", "1/2", "--order", "-6",
         "--mode", "rational", "--out", str(out)]
    )
    assert code == 0
    return str(out)


class TestExitCodes:
    def test_missing_file_is_2(self, capsys):
        assert main(["complex", "validate", "/nonexistent.json"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_malformed_json_is_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["toric", "validate", str(path)]) == 2

    def test_schema_error_is_2(self, tmp_path, capsys):
        path = write(tmp_path, "poly.json", {"facets": []})
        assert main(["toric", "validate", path]) == 2
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc",
        [
            (["complex", "validate"], []),
            (["complex", "validate"], "x"),
            (["complex", "homology"], []),
            (["complex", "spectrum"], "x"),
            (["qstate", "heavy"], []),
            (["qstate", "product"], []),
            (["qstate", "check"], {"functions": [], "relations": [5]}),
            (["qstate", "check"], {"elements": [], "relations": [5]}),
            (["qstate", "product"], {"pairs": [], "factors_heavy": [5]}),
        ],
        ids=["complex-list", "complex-string", "homology-list", "spectrum-string",
             "heavy-list", "product-list", "functions-relation-5", "elements-relation-5",
             "factors-heavy-5"],
    )
    def test_non_object_document_is_2(self, tmp_path, capsys, command, doc):
        path = write(tmp_path, "doc.json", doc)
        assert main([*command, path]) == 2
        assert capsys.readouterr().err.startswith("novspec: schema error:")

    @pytest.mark.parametrize(
        "command, doc",
        [
            (["complex", "validate"],
             {**GOOD_COMPLEX, "field": {"mode": "complex", "eps": 10**400}}),
            (["complex", "validate"],
             {**GOOD_COMPLEX, "field": {"mode": "complex"}, "differential": [
                 {"from": "a", "to": "b", "coeff": [{"exp": "-1", "c": {"re": -(10**400)}}]}]}),
            (["qstate", "homogenize"],
             {"tag": "synthetic", "samples": [{"n": 1, "c": "1e400"}, {"n": 2, "c": 0.5}]}),
            (["qstate", "check"], {"functions": [{"name": "f", "zeta": "1e400"},
                                                 {"name": "g", "zeta": 0.5}]}),
            (["qstate", "check"], {"elements": [{"name": "a", "mu": "1"}], "relations": [
                {"type": "calabi", "f": "a", "value": 1.0},
                {"type": "lipschitz", "f": "a", "g": "a", "bound": 10**400}]}),
            (["qstate", "heavy"], {"functions": [{"name": "H", "zeta": 0.5, "sup": "-1e400"}]}),
            (["qstate", "product"], {"pairs": [{"zeta0": "1e400", "zeta1": 2.0,
                                                "zeta_product": "3"}]}),
            (["complex", "homology"],
             {**GOOD_COMPLEX, "field": {"mode": "complex", "eps": "1e400"}}),
            (["complex", "validate"],
             {**GOOD_COMPLEX, "field": {"mode": "complex", "eps": float("inf")}}),
            (["complex", "validate"],
             {**GOOD_COMPLEX, "field": {"mode": "complex"}, "differential": [
                 {"from": "a", "to": "b", "coeff": [{"exp": "-1", "c": {"re": "1e400"}}]}]}),
            (["complex", "homology"],
             {**GOOD_COMPLEX, "field": {"mode": "complex"}, "differential": [
                 {"from": "a", "to": "b", "coeff": [{"exp": "-1", "c": {"im": float("-inf")}}]}]}),
        ],
        ids=["complex-eps", "complex-coefficient", "homogenize", "check-functions",
             "check-elements", "heavy", "product", "complex-eps-string", "complex-eps-infinity",
             "complex-coefficient-string", "complex-coefficient-infinity"],
    )
    def test_number_beyond_float_range_is_2(self, tmp_path, capsys, command, doc):
        # A value that a float computation reads must have a float; the
        # reader names it instead of overflowing in the arithmetic.
        path = write(tmp_path, "doc.json", doc)
        assert main([*command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("novspec: schema error:") and "beyond float range" in err

    @pytest.mark.parametrize("command", [["complex", "validate"], ["complex", "homology"]])
    @pytest.mark.parametrize(
        "doc",
        [{**GOOD_COMPLEX, "field": {"mode": "complex", "eps": float("nan")}},
         {**GOOD_COMPLEX, "field": {"mode": "complex"}, "differential": [
             {"from": "a", "to": "b", "coeff": [{"exp": "-1", "c": {"re": "nan"}}]}]},
         {**GOOD_COMPLEX, "field": {"mode": "complex", "eps": True}},
         {**GOOD_COMPLEX, "field": {"mode": "complex"}, "differential": [
             {"from": "a", "to": "b", "coeff": [{"exp": "-1", "c": {"re": True, "im": False}}]}]}],
        ids=["eps", "coefficient", "eps-boolean", "coefficient-boolean"],
    )
    def test_nan_in_complex_document_is_2(self, tmp_path, capsys, command, doc):
        # json reads NaN and "nan" alike; no complex value may be a NaN, nor
        # a boolean, which float() would read as 0.0 or 1.0
        assert main([*command, write(tmp_path, "doc.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("novspec: schema error:") and "not a number" in err

    @pytest.mark.parametrize(
        "command",
        [["complex", "validate"], ["toric", "validate"], ["toric", "revalidate"],
         ["qstate", "check"], ["qmap", "rank"]],
    )
    def test_input_not_utf8_is_2(self, tmp_path, capsys, command):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"a": "\xff\xfe"}')
        assert main([*command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"novspec: input error: {path}: 'utf-8' codec")

    @pytest.mark.parametrize(
        "argv, err",
        [(["toric", "certify", "trap.json", "--fiber", "1/2"],
          "novspec: argument --fiber: point has dimension 1, polytope has 2\n"),
         (["toric", "validate", "bad.json"],
          "novspec: input error: bad.json: 'utf-8' codec can't decode byte 0xff in position 0: "
          "invalid start byte\n")],
    )
    def test_run_as_a_module_keeps_its_exit_codes(self, tmp_path, argv, err):
        # Under ``python -m novspec.cli`` the file runs as __main__, beside the
        # novspec.cli whose error classes the group modules raise.
        write(tmp_path, "trap.json", TRAP)
        (tmp_path / "bad.json").write_bytes(b"\xff")
        src = str(Path(novspec.__file__).resolve().parent.parent)
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run([sys.executable, "-m", "novspec.cli", *argv], cwd=tmp_path,
                              capture_output=True, text=True, env=env)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)

    @pytest.mark.parametrize("broken_first", [True, False])
    def test_malformed_input_names_its_file(self, tmp_path, capsys, broken_first):
        # With two inputs, the message says which one failed to parse.
        good = write(tmp_path, "a.json", GOOD_COMPLEX)
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        inputs = [str(broken), good] if broken_first else [good, str(broken)]
        assert main(["complex", "tensor", *inputs]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"novspec: input error: {broken}: Expecting property name "
            "enclosed in double quotes: line 1 column 2 (char 1)\n")

    @pytest.mark.parametrize(
        "command", [["complex", "homology"], ["toric", "certify", "--fiber", "1/2"]]
    )
    @pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a":', "}")])
    def test_deeply_nested_input_is_2(self, tmp_path, capsys, command, opening, closing):
        # json.load recurses once per level and raises RecursionError
        path = tmp_path / "deep.json"
        path.write_text(opening * 100_000 + "1" + closing * 100_000, encoding="utf-8")
        assert main([*command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"novspec: input error: {path}: nested too deeply")

    def test_bad_flag_value_raises_systemexit_2(self, tmp_path):
        path = write(tmp_path, "cp1.json", CP1)
        with pytest.raises(SystemExit) as exc:
            main(["toric", "certify", path, "--fiber", "1/2", "--mode", "nope"])
        assert exc.value.code == 2

    def test_nonpositive_grid_raises_systemexit_2(self, tmp_path):
        path = write(tmp_path, "cp1.json", CP1)
        for grid in ("0", "1/0", "eighth"):
            with pytest.raises(SystemExit) as exc:
                main(["toric", "scan", path, "--grid", grid])
            assert exc.value.code == 2

    def test_certificate_missing_keys_is_2(self, tmp_path, capsys):
        path = write(tmp_path, "bare.json", {"kind": "heaviness-certificate"})
        assert main(["toric", "revalidate", path]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_brane_missing_keys_is_2(self, tmp_path, cert_path, capsys):
        doc = json.loads(open(cert_path, encoding="utf-8").read())
        del doc["branes"][1]["residual_valuation"]
        path = write(tmp_path, "cut.json", doc)
        assert main(["toric", "revalidate", path]) == 2
        assert "brane 1 missing key(s) ['residual_valuation']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "brane, key, value",
        [
            (None, "fiber", 7),
            (None, "order", -6),
            (None, "field", 5),
            (None, "polytope", "cp1"),
            (0, "x", 5),
            (0, "x", [5]),
            (0, "residual_valuation", -6),
            (0, "central_charge", "0"),
        ],
    )
    def test_certificate_mistyped_value_is_2(
        self, tmp_path, cert_path, capsys, brane, key, value
    ):
        doc = json.loads(open(cert_path, encoding="utf-8").read())
        (doc if brane is None else doc["branes"][brane])[key] = value
        path = write(tmp_path, "mistyped.json", doc)
        assert main(["toric", "revalidate", path]) == 2
        err = capsys.readouterr().err
        assert "schema error" in err and f"'{key}' must be" in err

    def test_qmap_on_mistyped_brane_is_2(self, tmp_path, cert_path, capsys):
        doc = json.loads(open(cert_path, encoding="utf-8").read())
        doc["branes"][0]["x"] = 5
        path = write(tmp_path, "mistyped.json", doc)
        assert main(["qmap", "rank", path]) == 2
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("x", [{"terms": 5, "floor": "-inf"}]),
            ("central_charge", {"terms": [5], "floor": "-6"}),
        ],
    )
    def test_certificate_malformed_scalar_is_2(
        self, tmp_path, cert_path, capsys, key, value
    ):
        doc = json.loads(open(cert_path, encoding="utf-8").read())
        doc["branes"][0][key] = value
        path = write(tmp_path, "malformed.json", doc)
        assert main(["toric", "revalidate", path]) == 2
        err = capsys.readouterr().err
        assert "schema error" in err and "brane 0" in err

    @pytest.mark.parametrize(
        "brane, key, value, message",
        [
            (None, "fiber", "a,b", "'fiber'"),
            (None, "order", "x", "'order'"),
            (0, "residual_valuation", "abc", "brane 0"),
            (None, "polytope", {"dim": 1, "facets": 5}, "'polytope'"),
        ],
    )
    @pytest.mark.parametrize("command", ["toric revalidate", "qmap rank"])
    def test_certificate_unparsable_value_is_2(
        self, tmp_path, cert_path, capsys, brane, key, value, message, command
    ):
        doc = json.loads(open(cert_path, encoding="utf-8").read())
        (doc if brane is None else doc["branes"][brane])[key] = value
        path = write(tmp_path, "unparsable.json", doc)
        assert main([*command.split(), path]) == 2
        err = capsys.readouterr().err
        assert "schema error" in err and message in err

    @pytest.mark.parametrize(
        "brane, key, value, message",
        [
            (None, "order", "-1/0", "'order'"),
            (None, "fiber", "1/0", "'fiber'"),
            (0, "residual_valuation", "-1/0", "brane 0"),
            (0, "x", [{"terms": [{"exp": "1/0", "c": "1"}], "floor": "-inf"}], "brane 0"),
            (None, "polytope", {"dim": 1, "facets": [
                {"normal": [1], "offset": "0"}, {"normal": [-1], "offset": "1/0"}]},
             "'polytope'"),
        ],
    )
    @pytest.mark.parametrize("command", ["toric revalidate", "qmap rank"])
    def test_certificate_zero_denominator_is_2(
        self, tmp_path, cert_path, capsys, brane, key, value, message, command
    ):
        doc = json.loads(open(cert_path, encoding="utf-8").read())
        (doc if brane is None else doc["branes"][brane])[key] = value
        path = write(tmp_path, "zero.json", doc)
        assert main([*command.split(), path]) == 2
        err = capsys.readouterr().err
        assert "schema error" in err and message in err and "zero denominator" in err

    @pytest.mark.parametrize("order", ["5", "0", "-inf"])
    @pytest.mark.parametrize(
        "command", ["toric revalidate", "qmap rank", "qmap unit", "qmap charge"]
    )
    def test_certificate_order_not_negative_is_2(
        self, tmp_path, cert_path, capsys, order, command
    ):
        # the orders toric certify refuses; qmap's floor defaults to the order
        doc = json.loads(open(cert_path, encoding="utf-8").read())
        doc["order"] = order
        path = write(tmp_path, "order.json", doc)
        assert main([*command.split(), path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "schema error" in err and "'order'" in err and "negative rational" in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["generators"][0].update(action="1/0"),
            lambda doc: doc.update(floor="1/0"),
            lambda doc: doc.update(field=[1]),
            lambda doc: doc.update(lattice="x"),
            # periods must be a list, not a string, and rank an integer, not a boolean
            lambda doc: doc.update(lattice={"periods": "12"}),
            lambda doc: doc.update(lattice={"rank": True, "periods": ["1"]}),
        ],
        ids=["action", "floor", "field", "lattice", "periods-string", "rank-boolean"],
    )
    @pytest.mark.parametrize("command", ["validate", "homology"])
    def test_complex_unparsable_value_is_2(self, tmp_path, capsys, edit, command):
        doc = json.loads(json.dumps(GOOD_COMPLEX))
        edit(doc)
        path = write(tmp_path, "cx.json", doc)
        assert main(["complex", command, path]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_complex_duplicate_differential_entry_is_2(self, tmp_path, capsys):
        # a second a->b entry must not silently replace the first
        doc = json.loads(json.dumps(GOOD_COMPLEX))
        doc["differential"].append({"from": "a", "to": "b", "coeff": [{"exp": "-1", "c": "5"}]})
        path = write(tmp_path, "cx.json", doc)
        assert main(["complex", "validate", path]) == 2
        assert "duplicate differential entry 'a'->'b'" in capsys.readouterr().err

    @pytest.mark.parametrize("degree", [1.5, 1.25, True, float("inf")])
    def test_complex_nonintegral_degree_is_2(self, tmp_path, capsys, degree):
        # generator a has degree 1: none of these may be truncated to it, and
        # Infinity must not raise OverflowError
        doc = json.loads(json.dumps(GOOD_COMPLEX))
        doc["generators"][0]["degree"] = degree
        path = write(tmp_path, "cx.json", doc)
        assert main(["complex", "validate", path]) == 2
        assert "degree must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("degree", [1, "1", " 1 ", "+1", 1.0])
    def test_complex_integral_degree_is_read(self, tmp_path, degree):
        doc = json.loads(json.dumps(GOOD_COMPLEX))
        doc["generators"][0]["degree"] = degree
        path = write(tmp_path, "cx.json", doc)
        code, rep = run_json(tmp_path, ["complex", "homology", path])
        assert code == 0 and rep["ranks"] == {"0": 1, "1": 0}

    def test_certificate_brane_of_wrong_length_is_2(self, tmp_path, cert_path, capsys):
        doc = json.loads(open(cert_path, encoding="utf-8").read())
        doc["branes"][0]["x"] *= 2
        path = write(tmp_path, "long.json", doc)
        assert main(["toric", "revalidate", path]) == 2
        assert "'x' needs one scalar per dimension (1)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["potential", "critical", "certify"])
    @pytest.mark.parametrize("fiber, dim", [("1/2,1/2", 2), (",", 0)])
    def test_fiber_of_wrong_dimension_is_2(self, tmp_path, capsys, command, fiber, dim):
        # an argument that does not fit the polytope, not a failed check
        path = write(tmp_path, "cp1.json", CP1)
        assert main(["toric", command, path, f"--fiber={fiber}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"novspec: argument --fiber: point has dimension {dim}, polytope has 1\n"

    @pytest.mark.parametrize(
        "command", [["qmap", "rank"], ["qmap", "unit"], ["qmap", "charge"], ["toric", "revalidate"]]
    )
    def test_certificate_fiber_of_wrong_dimension_is_2(
        self, tmp_path, cert_path, capsys, command
    ):
        doc = json.loads(open(cert_path, encoding="utf-8").read())
        doc["fiber"] = "1/2,1/2"
        path = write(tmp_path, "wide.json", doc)
        assert main([*command, path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "schema error" in err and "'fiber' needs one coordinate per dimension (1)" in err

    def test_fractional_order_as_separate_argument(self, tmp_path):
        path = write(tmp_path, "cp1.json", CP1)
        for command in (["certify", path, "--fiber", "1/2"], ["scan", path, "--grid", "1/2"]):
            assert main(["toric", *command, "--order", "-1/2", "--out", os.devnull]) == 0

    def test_nonnegative_order_raises_systemexit_2(self, tmp_path):
        path = write(tmp_path, "cp1.json", CP1)
        for command in (["certify", path, "--fiber", "1/2"], ["scan", path, "--grid", "1/4"]):
            for order in ("3", "0", "-inf", "tenth"):
                with pytest.raises(SystemExit) as exc:
                    main(["toric", *command, f"--order={order}"])
                assert exc.value.code == 2

    def test_unknown_subcommand_raises_systemexit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["toric", "frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, option, value",
        [
            (["toric", "potential", "{cp1}"], "--fiber", "a"),
            (["toric", "critical", "{cp1}"], "--fiber", "1/2,x"),
            (["toric", "certify", "{cp1}"], "--fiber", "1/0,1"),
            (["qmap", "rank", "{cert}"], "--floor", "abc"),
            (["qmap", "unit", "{cert}"], "--floor", "1/0"),
            (["qmap", "charge", "{cert}"], "--floor", "inf"),
            (["qmap", "rank", "{cert}"], "--scale", "abc"),
            (["qmap", "rank", "{cert}"], "--scale", "0"),
            (["qmap", "unit", "{cert}"], "--scale", "1/0"),
            (["qstate", "homogenize", "{oracle}"], "--volume", "abc"),
            (["qstate", "homogenize", "{oracle}"], "--volume", "1/0"),
            (["qstate", "homogenize", "{oracle}"], "--volume", "0"),
            (["qstate", "homogenize", "{oracle}"], "--volume", "-2"),
            (["toric", "certify", "{cp1}", "--fiber", "1/2"], "--eps", "inf"),
            (["toric", "certify", "{cp1}", "--fiber", "1/2"], "--eps", "1e400"),
            (["toric", "certify", "{cp1}", "--fiber", "1/2"], "--eps", "nan"),
            (["toric", "scan", "{cp1}", "--grid", "1/4"], "--eps", "-1"),
            (["toric", "scan", "{cp1}", "--grid", "1/4"], "--eps", "0"),
        ],
    )
    def test_bad_option_value_raises_systemexit_2(
        self, tmp_path, cert_path, capsys, command, option, value
    ):
        paths = {
            "{cp1}": write(tmp_path, "cp1.json", CP1),
            "{cert}": cert_path,
            "{oracle}": write(tmp_path, "oracle.json", ORACLE),
        }
        argv = [paths.get(token, token) for token in command] + [f"{option}={value}"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: argument {option}: " in capsys.readouterr().err

    @pytest.mark.parametrize("floor", ["-1/2", "-inf"])
    def test_negative_floor_as_separate_argument(self, cert_path, floor):
        argv = ["qmap", "rank", cert_path, "--floor", floor, "--out", os.devnull]
        assert main(argv) == 0


GOLDEN = Path(__file__).resolve().parent / "golden"
GROUPS = ("complex", "toric", "qmap", "qstate", "selftest")


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _outcome(parse, argv):
    """What ``parse(argv)`` gives: a Namespace or an exit code, with the
    bytes written to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


# every group's parser and every command's parser, all filled in
GROUP_PARSERS = _subcommands(build_parser())
COMMAND_PARSERS = {
    (g, c): p for g, gp in GROUP_PARSERS.items() for c, p in _subcommands(gp).items()
}
COMMANDS = set(COMMAND_PARSERS)
TOKENS = sorted(
    set(GROUPS)
    | {c for _, c in COMMANDS}
    | {
        option
        for p in [*COMMAND_PARSERS.values(), GROUP_PARSERS["selftest"]]
        for action in p._actions
        for option in action.option_strings
    }
    | {"1/2", "-1/2", "3", "0", "-2", "1/0", "-inf", "0.25", "1/2,1/3", "x.json"}
    | {"", "-", "--", "bogus", "--bogus", "-x", "a,b", "--floor=-1/2", "--fiber=1/0,1"}
)


class TestParser:
    def test_usage_corpus_replays_byte_identical(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        corpus = json.loads((GOLDEN / "cli_usage.json").read_text(encoding="utf-8"))
        helps = {tuple(e["argv"][:-1]) for e in corpus if e["argv"][-1:] == ["--help"]}
        assert helps == {()} | {(g,) for g in GROUPS} | COMMANDS
        for entry in corpus:
            try:
                code = main(entry["argv"])
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            got = [hashlib.sha256(s.encode("utf-8")).hexdigest() for s in (out, err)]
            assert [code, *got] == [
                entry["code"], entry["stdout_sha256"], entry["stderr_sha256"]
            ], entry["argv"]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(TOKENS), max_size=2),
        st.sampled_from([[]] + [[g] for g in GROUPS] + sorted(map(list, COMMANDS))),
        st.lists(st.sampled_from(TOKENS), max_size=6),
    )
    def test_lazy_parser_parses_as_the_full_one(self, head, command, rest):
        # main parses a group and command with that command's parser alone
        # and anything else with the full one; both must read every argv as
        # the full parser does, to the byte on stdout and stderr.
        argv = head + command + rest
        assert _outcome(parse_args, argv) == _outcome(build_parser().parse_args, argv)

    def test_complex_command_builds_only_its_group(self, tmp_path, monkeypatch):
        path = write(tmp_path, "cx.json", GOOD_COMPLEX)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["complex", "homology", path, "--out", os.devnull]) == 0
        assert built == ["novspec complex homology"]

    def test_main_reads_sys_argv(self, tmp_path, monkeypatch):
        path = write(tmp_path, "cx.json", GOOD_COMPLEX)
        out = tmp_path / "out.json"
        argv = ["novspec", "complex", "validate", path, "--out", str(out)]
        monkeypatch.setattr(sys, "argv", argv)
        assert main() == 0
        assert json.loads(out.read_text(encoding="utf-8"))["kind"] == "complex-validation"


def _dumps(obj) -> str:
    parts = []
    cli._encode(obj, "\n", parts.append)
    return "".join(parts)


# any code point; lone surrogates drawn as often as the rest
_CHARACTERS = st.characters() | st.integers(0xD800, 0xDFFF).map(chr)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
    | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")])
    | st.text(_CHARACTERS)
)
_JSON_DOCUMENTS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(_CHARACTERS, max_size=3), inner, max_size=4),
    max_leaves=20,
)


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_DOCUMENTS)
    def test_writes_what_json_dumps_writes(self, doc):
        assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "doc",
        [{}, [], (), [[], {}], {"a": [{}, ()]}, "\ud800é", -0.0,
         collections.OrderedDict([("b", [1]), ("a", ())]), [enum.IntEnum("E", "x").x, True]],
    )
    def test_edge_documents(self, doc):
        assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", [{1: "a"}, {"a": {None: 1}}, [{("k",): 0}]])
    def test_key_that_is_not_a_str_raises_typeerror(self, doc):
        with pytest.raises(TypeError):
            _dumps(doc)


class TestComplexCommands:
    def test_validate_good(self, tmp_path):
        path = write(tmp_path, "cx.json", GOOD_COMPLEX)
        code, doc = run_json(tmp_path, ["complex", "validate", path])
        assert code == 0
        assert doc["kind"] == "complex-validation" and doc["valid"]
        assert doc["schema_version"] == "1"

    def test_validate_bad_exits_1(self, tmp_path):
        path = write(tmp_path, "cx.json", BAD_COMPLEX)
        code, doc = run_json(tmp_path, ["complex", "validate", path])
        assert code == 1 and not doc["valid"]
        assert any("action" in v for v in doc["violations"])

    def test_homology_gated_on_validity(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", BAD_COMPLEX)
        assert main(["complex", "homology", bad]) == 1
        good = write(tmp_path, "good.json", GOOD_COMPLEX)
        code, doc = run_json(tmp_path, ["complex", "homology", good])
        assert code == 0 and doc["kind"] == "homology-report"
        # a->b kills one pair; the free generator c survives in degree 0
        assert doc["ranks"] == {"0": 1, "1": 0}

    def test_spectral_number_of_cycle(self, tmp_path):
        cx = write(tmp_path, "cx.json", GOOD_COMPLEX)
        chain = write(
            tmp_path, "chain.json", {"coeffs": [{"id": "c", "coeff": [{"exp": "0", "c": "1"}]}]}
        )
        code, doc = run_json(
            tmp_path, ["complex", "spectral", cx, "--chain", chain]
        )
        assert code == 0
        assert doc["value"] == "2" and not doc["is_boundary"]
        assert doc["in_spectrum"]

    def test_spectral_number_over_consecutive_fibonacci_periods(self, tmp_path):
        # Euclid takes about 3000 steps on F_3000 and F_3001 (627 digits
        # each) when the lattice vector is solved for: no step may recurse.
        f, g = 0, 1
        for _ in range(3000):
            f, g = g, f + g
        assert len(str(f)) == len(str(g)) == 627
        cx = write(tmp_path, "cx.json", {
            "field": {"mode": "rational"},
            "lattice": {"rank": 2, "periods": [str(f), str(g)]},
            "generators": [{"id": "a", "action": "0", "degree": 0}],
            "differential": [],
        })
        chain = write(
            tmp_path, "chain.json", {"coeffs": [{"id": "a", "coeff": [{"exp": "0", "c": "1"}]}]}
        )
        code, doc = run_json(tmp_path, ["complex", "spectral", cx, "--chain", chain])
        assert code == 0 and doc["value"] == "0"
        n = doc["spectrality"]["lattice_vector"]
        assert omega(PeriodLattice((Fraction(f), Fraction(g))), n) == Fraction(doc["value"])

    def test_spectral_number_writes_a_lattice_vector_past_the_digit_limit(self, tmp_path, capsys):
        # the vector reaching 10^4000 - 1 through F_10000 and F_10001 (2,090
        # digits each) has 6,090-digit entries, past the interpreter's 4,300
        f, g = 0, 1
        for _ in range(10000):
            f, g = g, f + g
        top = 10**4000 - 1
        cx = write(tmp_path, "cx.json", {
            "field": {"mode": "rational"},
            "lattice": {"rank": 2, "periods": [str(f), str(g)]},
            "generators": [{"id": "a", "action": str(top), "degree": 0},
                           {"id": "b", "action": "0", "degree": 0}],
            "differential": [],
        })
        chain = write(
            tmp_path, "chain.json", {"coeffs": [{"id": "b", "coeff": [{"exp": "0", "c": "1"}]}]}
        )
        out = tmp_path / "out.json"
        code = main(["complex", "spectral", cx, "--chain", chain, "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            doc = json.loads(out.read_text(encoding="utf-8"))
            n = doc["spectrality"]["lattice_vector"]
            assert [len(str(abs(k))) for k in n] == [6090, 6090]
            assert doc["spectrality"]["generator"] == "a"
        finally:
            sys.set_int_max_str_digits(limit)
        lattice = PeriodLattice((Fraction(f), Fraction(g)))
        assert omega(lattice, n) == top - Fraction(doc["value"])

    def test_spectral_number_sums_a_repeated_generator(self, tmp_path):
        # c as q^0 and again as -q^0 + q^-1 is the cycle q^-1 c: 2 - 1
        cx = write(tmp_path, "cx.json", GOOD_COMPLEX)
        twice = [{"id": "c", "coeff": [{"exp": "0", "c": "1"}]},
                 {"id": "c", "coeff": [{"exp": "0", "c": "-1"}, {"exp": "-1", "c": "1"}]}]
        chain = write(tmp_path, "chain.json", {"coeffs": twice})
        code, doc = run_json(tmp_path, ["complex", "spectral", cx, "--chain", chain])
        assert code == 0 and doc["value"] == "1"

    def test_bare_complex_field_reads_with_default_eps(self, tmp_path):
        cx = write(tmp_path, "cx.json", {**GOOD_COMPLEX, "field": "complex"})
        code, doc = run_json(tmp_path, ["complex", "tensor", cx, cx])
        assert code == 0 and doc["field"] == {"mode": "complex", "eps": 1e-12}

    def test_spectrum(self, tmp_path):
        cx = write(tmp_path, "cx.json", GOOD_COMPLEX)
        code, doc = run_json(tmp_path, ["complex", "spectrum", cx])
        assert code == 0 and doc["kind"] == "action-spectrum"

    def test_tensor_output_is_a_loadable_complex(self, tmp_path):
        cx = write(tmp_path, "cx.json", GOOD_COMPLEX)
        code, doc = run_json(tmp_path, ["complex", "tensor", cx, cx])
        assert code == 0 and doc["kind"] == "filtered-complex"
        prod = write(tmp_path, "prod.json", doc)
        code, rep = run_json(tmp_path, ["complex", "validate", prod])
        assert code == 0 and rep["valid"]

    def test_tensor_writes_an_action_past_the_digit_limit(self, tmp_path, capsys):
        # the product generator's action, the sum of these two, has about
        # 6,000 digits above and below the bar, past the interpreter's 4,300
        left, right = Fraction(10**3000 - 1, 10**2999 + 7), Fraction(1, 10**3000 + 3)
        paths = [
            write(tmp_path, f"{name}.json", {
                "field": {"mode": "rational"},
                "generators": [{"id": name, "action": str(action), "degree": 0}],
                "differential": [],
            })
            for name, action in (("x", left), ("y", right))
        ]
        out = tmp_path / "out.json"
        code = main(["complex", "tensor", *paths, "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        [generator] = json.loads(out.read_text(encoding="utf-8"))["generators"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(generator["action"]) == left + right
        finally:
            sys.set_int_max_str_digits(limit)

    def test_spectral_number_writes_a_value_past_the_digit_limit(self, tmp_path, capsys):
        # x's action plus the period has about 6,000 digits above and below
        # the bar, past the interpreter's 4,300
        action, period = Fraction(10**3000 - 1, 10**2999 + 7), Fraction(1, 10**3000 + 3)
        cx = write(tmp_path, "cx.json", {
            "field": {"mode": "rational"},
            "lattice": {"rank": 1, "periods": [str(period)]},
            "generators": [{"id": "x", "action": str(action), "degree": 0}],
            "differential": [],
        })
        term = {"exp": str(period), "c": "1"}
        chain = write(tmp_path, "chain.json", {"coeffs": [{"id": "x", "coeff": [term]}]})
        out = tmp_path / "out.json"
        code = main(["complex", "spectral", cx, "--chain", chain, "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            value = Fraction(json.loads(out.read_text(encoding="utf-8"))["value"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert value == action + period

    def test_spectrum_writes_a_generator_past_the_digit_limit(self, tmp_path, capsys):
        # the periods' generator 1/((10^2200 + 3)(10^2200 + 9)) has a
        # 4,401-digit denominator, past the interpreter's 4,300
        p, r = 10**2200 + 3, 10**2200 + 9
        cx = write(tmp_path, "cx.json", {
            "field": {"mode": "rational"},
            "lattice": {"rank": 2, "periods": [f"1/{p}", f"1/{r}"]},
            "generators": [{"id": "x", "action": "0", "degree": 0}],
            "differential": [],
        })
        out = tmp_path / "out.json"
        code = main(["complex", "spectrum", cx, "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            doc = json.loads(out.read_text(encoding="utf-8"))
            generator = Fraction(doc["period_group_generator"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert generator == Fraction(1, p * r) and doc["base_actions"] == ["0"]

    def test_output_corpus_replays_byte_identical(self, tmp_path, capsys):
        # Seeded complexes in every mode, one document of decimal, padded and
        # signed-zero rationals, and a complex graded only mod 2 in every
        # mode, recorded by tests/golden/pin_complex_output.py.
        corpus = json.loads((GOLDEN / "complex_output.json").read_text(encoding="utf-8"))
        docs = corpus["documents"]
        modes = {doc["field"]["mode"] for doc in docs.values() if "field" in doc}
        assert modes == {"rational", "gaussian", "complex"}
        assert {e["argv"][1] for e in corpus["runs"]} == {c for g, c in COMMANDS if g == "complex"}
        for name, doc in docs.items():
            write(tmp_path, name, doc)
        for entry in corpus["runs"]:
            argv = [str(tmp_path / t) if t in docs else t for t in entry["argv"]]
            code = main(argv)
            digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
            assert [code, digest] == [entry["code"], entry["stdout_sha256"]], entry["argv"]


class TestToricCommands:
    def test_validate(self, tmp_path):
        path = write(tmp_path, "cp1.json", CP1)
        code, doc = run_json(tmp_path, ["toric", "validate", path])
        assert code == 0 and doc["ok"] and doc["delzant"]

    def test_validate_unbounded_exits_1(self, tmp_path):
        path = write(tmp_path, "strip.json", STRIP)
        code, doc = run_json(tmp_path, ["toric", "validate", path])
        assert code == 1 and not doc["ok"]

    def test_deep_output_corpus_replays_byte_identical(self, tmp_path, capsys):
        # Certificates at orders -6 to -16, recorded by
        # tests/golden/pin_deep_output.py: long series in every mode.
        corpus = json.loads((GOLDEN / "deep_output.json").read_text(encoding="utf-8"))
        modes = {e["options"][e["options"].index("--mode") + 1] for e in corpus}
        assert modes == {"rational", "gaussian", "complex"}
        for entry in corpus:
            path = write(tmp_path, "polytope.json", entry["polytope"])
            code = main(["toric", "certify", path, *entry["options"]])
            digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
            assert [code, digest] == [entry["code"], entry["stdout_sha256"]], entry["name"]

    def test_toric_output_corpus_replays_byte_identical(self, tmp_path, capsys):
        # Validation reports, grid scans, a potential, the leading critical
        # points of the hexagon and the sheared trapezoid, and a certification
        # that finds no branes, recorded by tests/golden/pin_toric_output.py:
        # every exact LP outcome and the facet values at each grid point.
        corpus = json.loads((GOLDEN / "toric_output.json").read_text(encoding="utf-8"))
        assert {e["code"] for e in corpus if e["command"] == "validate"} == {0, 1}
        for entry in corpus:
            path = write(tmp_path, "polytope.json", entry["polytope"])
            code = main(["toric", entry["command"], path, *entry["options"]])
            digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
            assert [code, digest] == [entry["code"], entry["stdout_sha256"]], (
                entry["name"], entry["command"], entry["options"])

    @staticmethod
    def heavy_imports(argv, modules=("mpmath", "sympy")):
        """Exit code of one CLI run in a fresh interpreter, and which of
        ``modules`` it imported."""
        script = (
            "import sys\n"
            "from novspec.cli import main\n"
            f"code = main({[*argv, '--out', os.devnull]!r})\n"
            f"print(code, *[m for m in {modules!r} if m in sys.modules])\n"
        )
        src = str(Path(novspec.__file__).resolve().parent.parent)
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        code, *loaded = out.stdout.split()
        return int(code), loaded

    def test_validate_does_not_import_sympy(self, tmp_path):
        # Polytope validation loads neither sympy nor mpmath; only the
        # leading-system solver imports sympy, which imports mpmath.
        path = write(tmp_path, "cp1.json", CP1)
        assert self.heavy_imports(["toric", "validate", path]) == (0, [])

    def test_cold_start_loads_only_what_the_command_runs(self, tmp_path):
        # Records are plain classes, so no command loads dataclasses (and
        # inspect with it); the package root imports novspec.novikov only
        # when a command builds a scalar, which polytope validation does not.
        cold = ("dataclasses", "inspect", "novspec.novikov")
        cp1 = write(tmp_path, "cp1.json", CP1)
        cx = write(tmp_path, "cx.json", GOOD_COMPLEX)
        assert self.heavy_imports(["toric", "validate", cp1], cold) == (0, [])
        for argv in (["complex", "validate", cx],
                     ["toric", "scan", cp1, "--grid", "1/4", "--order", "-2"]):
            assert self.heavy_imports(argv, cold) == (0, ["novspec.novikov"]), argv
        # A command compiles its own group's module of the CLI and no other,
        # and toric validate reads and writes records without novspec.fields.
        groups = tuple(f"novspec.cli_{g}" for g in ("complex", "toric", "qmap", "qstate"))
        argv = ["toric", "validate", cp1]
        assert self.heavy_imports(argv, ("novspec.fields", *groups)) == (0, ["novspec.cli_toric"])
        for argv, group in ((["complex", "validate", cx], "complex"),
                            (["toric", "scan", cp1, "--grid", "1/4", "--order", "-2"], "toric")):
            assert self.heavy_imports(argv, groups) == (0, [f"novspec.cli_{group}"]), argv

    def test_binomial_leading_systems_do_not_import_sympy(self, tmp_path):
        # Two facets per leading stratum and a nonsingular exponent matrix:
        # the leading roots come in closed form, evaluated with decimal, so
        # neither sympy nor mpmath is loaded.
        cp1 = write(tmp_path, "cp1.json", CP1)
        cp2 = write(tmp_path, "cp2.json", CP2)
        trap = write(tmp_path, "trap.json", TRAP)
        for argv in (
            ["toric", "scan", cp1, "--grid", "1/4", "--order", "-2"],
            ["toric", "scan", cp2, "--grid", "1/3", "--order", "-2"],
            ["toric", "critical", cp2, "--fiber", "1/3,1/3"],
            ["toric", "certify", trap, "--fiber", "3/4,1/2", "--order", "-1"],
        ):
            assert self.heavy_imports(argv) == (0, []), argv

    def test_singular_leading_system_imports_sympy(self, tmp_path):
        # The trapezoid sheared by A = ((1, 1), (0, 1)): both leading
        # binomials share one exponent difference, so sympy diagnoses it.
        sheared = dict(TRAP, facets=[
            {"normal": [1, 0], "offset": "0"},
            {"normal": [1, 1], "offset": "0"},
            {"normal": [-1, -1], "offset": "-1"},
            {"normal": [-2, -1], "offset": "-2"},
        ])
        path = write(tmp_path, "sheared.json", sheared)
        argv = ["toric", "critical", path, "--fiber", "3/4,-1/4"]
        assert self.heavy_imports(argv) == (0, ["mpmath", "sympy"])
        code, doc = run_json(tmp_path, argv)
        assert code == 0 and doc["diagnosis"]["reason"] == "leading-system-not-finite"

    def test_potential(self, tmp_path):
        path = write(tmp_path, "cp1.json", CP1)
        code, doc = run_json(
            tmp_path, ["toric", "potential", path, "--fiber", "1/2"]
        )
        assert code == 0 and doc["kind"] == "potential"

    def test_potential_off_interior_exits_1(self, tmp_path, capsys):
        path = write(tmp_path, "cp1.json", CP1)
        assert main(["toric", "potential", path, "--fiber", "1"]) == 1
        assert "not interior" in capsys.readouterr().err

    def test_critical(self, tmp_path):
        path = write(tmp_path, "cp1.json", CP1)
        code, doc = run_json(
            tmp_path, ["toric", "critical", path, "--fiber", "1/2"]
        )
        assert code == 0 and doc["kind"] == "leading-critical-points"

    def test_certify_and_revalidate(self, tmp_path, cert_path):
        doc = json.loads(open(cert_path, encoding="utf-8").read())
        assert doc["kind"] == "heaviness-certificate"
        assert doc["theorem"] == "critical-fiber-heaviness"
        assert len(doc["branes"]) == 2
        code, rep = run_json(tmp_path, ["toric", "revalidate", cert_path])
        assert code == 0 and rep["ok"]

    def test_revalidate_tampered_exits_1(self, tmp_path, cert_path):
        doc = json.loads(open(cert_path, encoding="utf-8").read())
        doc["branes"][0]["central_charge"]["terms"][0]["c"] = "17"
        bad = write(tmp_path, "tampered.json", doc)
        code, rep = run_json(tmp_path, ["toric", "revalidate", bad])
        assert code == 1 and not rep["ok"]
        assert any("central charge" in f for f in rep["failures"])

    @pytest.mark.parametrize("residual", ["-inf", "-2"])
    def test_revalidate_two_term_exact_x_reports(self, tmp_path, cert_path, capsys, residual):
        # x = 1 + q^-1 has no exact inverse; an exact residual claim used to
        # end in that inversion error with no report
        doc = json.loads(open(cert_path, encoding="utf-8").read())
        terms = [{"c": "1", "exp": "0"}, {"c": "1", "exp": "-1"}]
        doc["branes"][0].update(x=[{"floor": "-inf", "terms": terms}], residual_valuation=residual)
        bad = write(tmp_path, "two_term.json", doc)
        code, rep = run_json(tmp_path, ["toric", "revalidate", bad])
        assert code == 1 and not rep["ok"] and capsys.readouterr().err == ""
        assert [f.split(": ")[0] for f in rep["failures"]] == ["brane 0"]

    def test_revalidate_complex_charge_missing_a_term_exits_1(self, tmp_path):
        trap = write(tmp_path, "trap.json", TRAP)
        cert = tmp_path / "cert.json"
        argv = ["toric", "certify", trap, "--fiber", "3/4,1/2", "--order=-2", "--mode", "complex"]
        assert main(argv + ["--out", str(cert)]) == 0
        doc = json.loads(cert.read_text(encoding="utf-8"))
        doc["branes"][0]["central_charge"]["terms"].pop()
        code, rep = run_json(tmp_path, ["toric", "revalidate", write(tmp_path, "short.json", doc)])
        assert code == 1
        assert rep["failures"] == ["brane 0: stated central charge does not match re-evaluation"]

    def test_revalidate_polytope_leaving_a_coordinate_on_no_facet_exits_1(self, tmp_path):
        # no facet of the strip 0 <= x <= 1 involves y: the fiber 1/2,0 is
        # interior to it, and the potential has no leading stratum in y
        trap = write(tmp_path, "trap.json", TRAP)
        cert = tmp_path / "cert.json"
        argv = ["toric", "certify", trap, "--fiber", "3/4,1/2", "--order=-2", "--mode", "gaussian"]
        assert main(argv + ["--out", str(cert)]) == 0
        doc = json.loads(cert.read_text(encoding="utf-8"))
        doc["polytope"] = {"dim": 2, "facets": STRIP["facets"][:2]}
        doc["fiber"] = "1/2,0"
        code, rep = run_json(tmp_path, ["toric", "revalidate", write(tmp_path, "strip.json", doc)])
        assert code == 1 and rep["checks"] == ["fiber is interior"]
        assert rep["failures"] == [
            "polytope fails validation: needs at least 3 facets, found 2",
            "no facet involves coordinate 1; polytope is degenerate",
        ]

    @pytest.mark.parametrize("cmd", ["rank", "unit", "charge"])
    def test_qmap_on_a_coordinate_on_no_facet_exits_1(self, tmp_path, capsys, cmd):
        trap = write(tmp_path, "trap.json", TRAP)
        cert = tmp_path / "cert.json"
        argv = ["toric", "certify", trap, "--fiber", "3/4,1/2", "--order=-2", "--mode", "gaussian"]
        assert main(argv + ["--out", str(cert)]) == 0
        doc = json.loads(cert.read_text(encoding="utf-8"))
        doc["polytope"] = {"dim": 2, "facets": STRIP["facets"][:2]}
        doc["fiber"] = "1/2,0"
        capsys.readouterr()
        assert main(["qmap", cmd, write(tmp_path, "strip.json", doc)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "novspec: no facet involves coordinate 1; polytope is degenerate\n"

    def test_complex_lift_that_stalls_exits_1(self, tmp_path, capsys):
        # in floats the trapezoid's Newton residual stops shrinking at -19/2
        trap = write(tmp_path, "trap.json", TRAP)
        argv = ["toric", "certify", trap, "--fiber", "3/4,1/2", "--order=-9", "--mode", "complex"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "lift failed to contract: residual valuation stalled at -19/2" in err

    def test_revalidate_wrong_kind_exits_1(self, tmp_path):
        path = write(tmp_path, "odd.json", {"kind": "potential"})
        code, rep = run_json(tmp_path, ["toric", "revalidate", path])
        assert code == 1
        assert any("not a heaviness certificate" in f for f in rep["failures"])

    def test_certify_none_found_exits_0(self, tmp_path):
        path = write(tmp_path, "cp1.json", CP1)
        code, doc = run_json(
            tmp_path,
            ["toric", "certify", path, "--fiber", "1/4", "--order", "-6",
             "--mode", "rational"],
        )
        assert code == 0 and doc["kind"] == "no-critical-branes"
        assert "not a proof" in doc["note"]

    def test_scan_csv(self, tmp_path):
        path = write(tmp_path, "cp1.json", CP1)
        out = tmp_path / "scan.csv"
        code = main(
            ["toric", "scan", path, "--grid", "1/8", "--order", "-6",
             "--mode", "rational", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
        assert rows[0] == ["fiber", "status", "branes", "leading_weights", "diagnosis"]
        body = {r[0]: r for r in rows[1:]}
        assert len(body) == 7  # interior fibers k/8, k = 1..7
        assert body["1/2"][1] == "certified" and body["1/2"][2] == "2"
        assert all(r[1] == "none-found" for f, r in body.items() if f != "1/2")

    def test_scan_json_deterministic(self, tmp_path):
        path = write(tmp_path, "cp1.json", CP1)
        argv = ["toric", "scan", path, "--grid", "1/4", "--order", "-6",
                "--mode", "rational"]
        code1, doc1 = run_json(tmp_path, argv)
        code2, doc2 = run_json(tmp_path, argv)
        assert code1 == code2 == 0 and doc1 == doc2
        assert doc1["kind"] == "fiber-scan"


class TestQmapCommands:
    def test_rank_on_certified_branes(self, tmp_path, cert_path):
        code, doc = run_json(tmp_path, ["qmap", "rank", cert_path])
        assert code == 0 and doc["kind"] == "quasimap-rank"
        assert [row["rank"] for row in doc["branes"]] == [2, 2]
        assert doc["branes"][0]["ranks_by_degree"] == {"0": 1, "1": 1}

    def test_rank_vanishes_off_critical_points(self, tmp_path, cert_path):
        code, doc = run_json(
            tmp_path, ["qmap", "rank", cert_path, "--scale", "2"]
        )
        assert code == 0
        assert [row["rank"] for row in doc["branes"]] == [0, 0]

    def test_unit_tracks_criticality(self, tmp_path, cert_path):
        code, doc = run_json(tmp_path, ["qmap", "unit", cert_path])
        assert code == 0
        assert all(row["unit_survives"] for row in doc["branes"])
        code, doc = run_json(
            tmp_path, ["qmap", "unit", cert_path, "--scale", "2"]
        )
        assert not any(row["unit_survives"] for row in doc["branes"])

    def test_charge_single_brane(self, tmp_path, cert_path):
        code, doc = run_json(
            tmp_path, ["qmap", "charge", cert_path, "--brane", "0"]
        )
        assert code == 0 and len(doc["branes"]) == 1
        (term,) = doc["branes"][0]["charge"]["terms"]
        assert term["exp"] == "-1/2" and term["c"] in {"-2", "2"}

    def test_complex_brane_past_one_over_eps_exits_1(self, tmp_path, capsys):
        # Scaled by 3e12, a brane coordinate's inverse lead falls below
        # eps = 1e-12; the potential needs that inverse, so the command
        # fails instead of reading it as zero.
        poly = write(tmp_path, "cp1.json", CP1)
        cert = str(tmp_path / "cert.json")
        argv = ["toric", "certify", poly, "--fiber", "1/2", "--mode", "complex", "--order=-1"]
        assert main(argv + ["--out", cert]) == 0
        assert main(["qmap", "rank", cert, "--scale", "3000000000000"]) == 1
        err = capsys.readouterr().err
        assert "inverse lead below eps" in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["gaussian", "complex"])
    def test_floor_below_what_the_branes_determine_exits_1(self, tmp_path, capsys, mode):
        # at order -2 the trapezoid branes fix their gradient down to -5/2 only
        poly = write(tmp_path, "trap.json", TRAP)
        cert = str(tmp_path / "cert.json")
        argv = ["toric", "certify", poly, "--fiber", "3/4,1/2", "--order=-2", "--mode", mode]
        assert main(argv + ["--out", cert]) == 0
        for command in ("rank", "unit", "charge"):
            assert main(["qmap", command, cert, "--floor", "-3"]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert "brane 0: gradient is known only above -5/2, not down to the floor -3" in err
            assert main(["qmap", command, cert, "--floor=-5/2", "--out", os.devnull]) == 0

    @pytest.mark.parametrize("brane", ["7", "-1"])
    def test_brane_out_of_range_exits_2(self, cert_path, capsys, brane):
        # an option value that does not fit its input is an argument error
        assert main(["qmap", "rank", cert_path, "--brane", brane]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --brane: brane index {brane} out of range" in err

    def test_wrong_kind_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "poly.json", CP1)
        assert main(["qmap", "rank", path]) == 2
        assert "heaviness-certificate" in capsys.readouterr().err


class TestQstateCommands:
    def test_homogenize(self, tmp_path):
        path = write(tmp_path, "oracle.json", ORACLE)
        code, doc = run_json(tmp_path, ["qstate", "homogenize", path])
        assert code == 0 and doc["kind"] == "quasistate-estimate"
        assert doc["zeta"]["value"] == "-3/2" and doc["mu"] is None

    def test_homogenize_with_volume(self, tmp_path):
        path = write(tmp_path, "oracle.json", ORACLE)
        code, doc = run_json(
            tmp_path, ["qstate", "homogenize", path, "--volume", "2"]
        )
        assert code == 0 and doc["mu"]["value"] == "3"

    def test_volume_beyond_float_range_needs_rational_samples(self, tmp_path, capsys):
        # A float oracle's mu is a float product, so the volume must be a
        # float; a rational oracle's mu stays exact at any volume.
        floats = write(tmp_path, "floats.json", {"samples": [{"n": 1, "c": 0.25}, {"n": 2, "c": 0.5}]})
        assert main(["qstate", "homogenize", floats, "--volume", "1e400"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("novspec: argument --volume:") and "beyond float range" in err
        path = write(tmp_path, "oracle.json", ORACLE)
        code, doc = run_json(tmp_path, ["qstate", "homogenize", path, "--volume", "1e400"])
        assert code == 0 and doc["mu"]["value"] == str(3 * 10**400 // 2)

    def test_check_functions(self, tmp_path):
        family = {
            "functions": [{"name": "one", "zeta": "1"}],
            "relations": [{"type": "normalized", "f": "one"}],
        }
        path = write(tmp_path, "family.json", family)
        code, doc = run_json(tmp_path, ["qstate", "check", path])
        assert code == 0 and doc["kind"] == "partial-quasistate-check"

    def test_check_violation_exits_1(self, tmp_path):
        family = {
            "functions": [{"name": "one", "zeta": "2"}],
            "relations": [{"type": "normalized", "f": "one"}],
        }
        path = write(tmp_path, "family.json", family)
        code, doc = run_json(tmp_path, ["qstate", "check", path])
        assert code == 1 and not doc["all_pass"]

    def test_check_elements(self, tmp_path):
        family = {
            "elements": [{"name": "a", "mu": "1"}, {"name": "a2", "mu": "2"}],
            "relations": [{"type": "power", "f": "a", "g": "a2", "n": 2}],
        }
        path = write(tmp_path, "family.json", family)
        code, doc = run_json(tmp_path, ["qstate", "check", path])
        assert code == 0 and doc["kind"] == "prequasimorphism-check"

    def test_check_without_either_key_exits_2(self, tmp_path):
        path = write(tmp_path, "family.json", {"relations": []})
        assert main(["qstate", "check", path]) == 2

    def test_heavy(self, tmp_path):
        fam = {"subset": "Y", "functions": [{"name": "H", "zeta": "0", "sup": "1"}]}
        path = write(tmp_path, "heavy.json", fam)
        code, doc = run_json(tmp_path, ["qstate", "heavy", path])
        assert code == 0 and doc["consistent"]
        fam["functions"][0]["zeta"] = "2"
        path = write(tmp_path, "heavy2.json", fam)
        code, doc = run_json(tmp_path, ["qstate", "heavy", path])
        assert code == 1 and doc["violations"]

    def test_product(self, tmp_path):
        tables = {
            "pairs": [
                {"f0": "F", "f1": "G", "zeta0": "1", "zeta1": "2",
                 "zeta_product": "3"}
            ]
        }
        path = write(tmp_path, "prod.json", tables)
        code, doc = run_json(tmp_path, ["qstate", "product", path])
        assert code == 0 and doc["kind"] == "product-quasistate-check"
        tables["pairs"][0]["zeta_product"] = "4"
        path = write(tmp_path, "prod2.json", tables)
        code, doc = run_json(tmp_path, ["qstate", "product", path])
        assert code == 1


    def test_heavy_exact_violation_below_float_resolution(self, tmp_path):
        zeta = "100000000000000001/100000000000000000"
        fam = {"functions": [{"name": "f", "zeta": zeta, "sup": "1"}]}
        path = write(tmp_path, "heavy.json", fam)
        code, doc = run_json(tmp_path, ["qstate", "heavy", path])
        assert code == 1 and not doc["consistent"]
        assert [v["name"] for v in doc["violations"]] == ["f"]

    @pytest.mark.parametrize(
        "family",
        [
            {"functions": [{"name": "f", "zeta": "1/10"}, {"name": "g", "zeta": "3/10"}],
             "relations": [{"type": "shift", "f": "f", "g": "g", "alpha": 0.2}]},
            {"elements": [{"name": "a", "mu": "3/10"}],
             "relations": [{"type": "calabi", "f": "a", "value": 0.30000000000000004}]},
        ],
        ids=["shift", "calabi"],
    )
    def test_float_parameter_sets_float_tolerance(self, tmp_path, family):
        # 1/10 + 0.2 and 0.30000000000000004 are 3/10 to within float rounding;
        # one float parameter makes the whole check a float comparison.
        path = write(tmp_path, "family.json", family)
        code, doc = run_json(tmp_path, ["qstate", "check", path])
        assert code == 0 and doc["all_pass"] and doc["tolerance"] == 1e-09
        assert [a["status"] for a in doc["axioms"] if a["checked"]] == ["pass"]

    def test_rational_values_beyond_float_range_stay_exact(self, tmp_path):
        oracle = {"samples": [{"n": 1, "c": "1e400"}, {"n": 2, "c": "1/2"}]}
        code, doc = run_json(tmp_path, ["qstate", "homogenize", write(tmp_path, "o.json", oracle)])
        assert code == 0 and doc["zeta"]["slope"] == f"{10**400 + 1}/5"
        family = {
            "functions": [{"name": "f", "zeta": "1e400"}, {"name": "g", "zeta": "1/2"}],
            "relations": [{"type": "scale", "f": "g", "g": "f", "factor": "2e400"}],
        }
        code, doc = run_json(tmp_path, ["qstate", "check", write(tmp_path, "f.json", family)])
        assert code == 0 and doc["all_pass"] and doc["tolerance"] == 0.0

    def test_check_exact_lipschitz_violation_below_float_resolution(self, tmp_path):
        family = {
            "functions": [{"name": "f", "zeta": "1"}, {"name": "g", "zeta": "0"}],
            "relations": [{"type": "lipschitz", "f": "f", "g": "g",
                           "dist": "99999999999999999/100000000000000000"}],
        }
        path = write(tmp_path, "family.json", family)
        code, doc = run_json(tmp_path, ["qstate", "check", path])
        by_name = {a["axiom"]: a for a in doc["axioms"]}
        assert code == 1 and by_name["lipschitz"]["status"] == "fail"
        assert by_name["lipschitz"]["failures"]


FUNCS = [{"name": "f", "zeta": "1/3"}, {"name": "g", "zeta": "2/3"}, {"name": "h", "zeta": "1"}]
ELEMS = [{"name": "a", "mu": "1/2"}, {"name": "b", "mu": "1"}, {"name": "c", "mu": "3/2"}]

# One relation with one fault, and what follows "family PATH: " on stderr.
MALFORMED_RELATIONS = {
    "functions-missing-name": (FUNCS, {"type": "le", "f": "f"}, "'g'"),
    "functions-missing-displaceable-name": (
        FUNCS, {"type": "partial_additivity", "f": "f", "sum": "f"}, "'g'"),
    "functions-missing-dist": (FUNCS, {"type": "lipschitz", "f": "f", "g": "g"}, "'dist'"),
    "functions-missing-factor": (FUNCS, {"type": "scale", "f": "f", "g": "g"}, "'factor'"),
    "functions-missing-alpha": (FUNCS, {"type": "shift", "f": "f", "g": "g"}, "'alpha'"),
    "functions-unknown-function": (
        FUNCS, {"type": "triangle", "f": "f", "g": "zz", "sum": "h"},
        "relation references unknown function 'zz'"),
    "functions-unknown-type": (
        FUNCS, {"type": "power", "f": "f", "g": "g", "n": 2},
        "unknown relation type 'power'"),
    "functions-missing-type": (FUNCS, {"f": "f"}, "unknown relation type None"),
    "functions-negative-factor": (
        FUNCS, {"type": "scale", "f": "f", "g": "g", "factor": "-1/2"},
        "semi-homogeneity factors must be >= 0"),
    "elements-missing-name": (ELEMS, {"type": "conjugation", "f": "a"}, "'g'"),
    "elements-missing-product": (
        ELEMS, {"type": "quasi_additivity", "f": "a", "g": "b", "bound": "1"}, "'product'"),
    "elements-missing-n": (ELEMS, {"type": "power", "f": "a", "g": "b"}, "'n'"),
    "elements-missing-bound": (
        ELEMS, {"type": "quasi_additivity", "f": "a", "g": "b", "product": "c"}, "'bound'"),
    "elements-missing-hofer-bound": (
        ELEMS, {"type": "lipschitz", "f": "a", "g": "b"}, "'bound'"),
    "elements-missing-value": (ELEMS, {"type": "calabi", "f": "a"}, "'value'"),
    "elements-unknown-element": (
        ELEMS, {"type": "calabi", "f": "zz", "value": "1"},
        "relation references unknown element 'zz'"),
    "elements-unknown-type": (
        ELEMS, {"type": "scale", "f": "a", "g": "b", "factor": "2"},
        "unknown relation type 'scale'"),
    **{
        f"elements-power-n-{n}": (
            ELEMS, {"type": "power", "f": "a", "g": "b", "n": n},
            "power relations need integer n >= 1")
        for n in (0, True, 1.5, "2")
    },
}

# Documents whose float arithmetic overflows, the command line (DOC for the
# document's path) and the start of the stderr line that refuses them.
OVERFLOWING = {
    "zeta": ({"samples": [{"n": 1, "c": 1e308}, {"n": 2, "c": 1e308}]},
             ["qstate", "homogenize", "DOC"], "novspec: schema error: oracle DOC: "),
    "mu": ({"samples": [{"n": 1, "c": 1e300}, {"n": 2, "c": 2e300}]},
           ["qstate", "homogenize", "DOC", "--volume", "1e10"], "novspec: argument --volume: "),
    "excess": ({"functions": [{"name": "f", "zeta": 1e308, "sup": -1e308}]},
               ["qstate", "heavy", "DOC"], "novspec: schema error: family DOC: "),
    "expected": ({"pairs": [{"zeta0": 1e308, "zeta1": 1e308, "zeta_product": 1.0}]},
                 ["qstate", "product", "DOC"], "novspec: schema error: tables DOC: "),
}

# Exact sums and products of in-range rationals that leave float range,
# read where a float elsewhere in the document makes the check compare in
# floats; the error names the exact value.
BEYOND_FLOAT = {
    "product": ({"pairs": [{"zeta0": "17e307", "zeta1": "17e307", "zeta_product": 1.0}]},
                ["qstate", "product", "DOC"], "tables", 34 * 10**307),
    "scale": ({"functions": [{"name": "f", "zeta": "1e200"}, {"name": "g", "zeta": 0.5}],
               "relations": [{"type": "scale", "f": "f", "g": "g", "factor": "1e200"}]},
              ["qstate", "check", "DOC"], "family", 10**400),
}


class TestQstateRefusals:
    @pytest.mark.parametrize("members, relation, message", MALFORMED_RELATIONS.values(),
                             ids=MALFORMED_RELATIONS)
    def test_malformed_relation_is_2(self, tmp_path, capsys, members, relation, message):
        key = "functions" if "zeta" in members[0] else "elements"
        path = write(tmp_path, "family.json", {key: members, "relations": [relation]})
        assert main(["qstate", "check", path]) == 2
        assert capsys.readouterr() == ("", f"novspec: schema error: family {path}: {message}\n")

    @pytest.mark.parametrize("doc, argv, err", OVERFLOWING.values(), ids=OVERFLOWING)
    def test_float_overflow_is_2(self, tmp_path, capsys, doc, argv, err):
        # json would write the overflowed result as Infinity or NaN, which
        # are not JSON; the command refuses it instead.
        path = write(tmp_path, "doc.json", doc)
        assert main([path if t == "DOC" else t for t in argv]) == 2
        out, got = capsys.readouterr()
        assert out == "" and got.startswith(err.replace("DOC", path))
        assert "overflows" in got and "Traceback" not in got

    @pytest.mark.parametrize("doc, argv, what, value", BEYOND_FLOAT.values(), ids=BEYOND_FLOAT)
    def test_exact_value_beyond_float_range_is_2(self, tmp_path, capsys, doc, argv, what, value):
        path = write(tmp_path, "doc.json", doc)
        assert main([path if t == "DOC" else t for t in argv]) == 2
        assert capsys.readouterr() == (
            "", f"novspec: schema error: {what} {path}: {value} is beyond float range\n")

    def test_one_sample_oracle_is_2(self, tmp_path, capsys):
        path = write(tmp_path, "oracle.json", {"samples": [{"n": 1, "c": "1"}]})
        assert main(["qstate", "homogenize", path]) == 2
        assert capsys.readouterr() == (
            "", f"novspec: schema error: oracle {path}: "
            "homogenization needs at least two oracle samples\n")

    @pytest.mark.parametrize("flag", ["false", 1, None])
    def test_non_boolean_heavy_flag_is_2(self, tmp_path, capsys, flag):
        tables = {"pairs": [], "factors_heavy": [{"subset": "A", "heavy": flag}]}
        assert main(["qstate", "product", write(tmp_path, "prod.json", tables)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("novspec: schema error: tables ")


class TestSelftest:
    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["selftest", "--seed", "3", "--out", str(a)]) == 0
        assert main(["selftest", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text(encoding="utf-8"))
        assert doc["ok"] and doc["kind"] == "selftest" and doc["seed"] == 3

    def test_mutation_detected(self, tmp_path):
        code, doc = run_json(tmp_path, ["selftest", "--seed", "1", "--mutate"])
        assert code == 0
        assert doc["mutation"]["detected"]
        assert doc["mutation"]["violations"]

    def test_command_output_corpus_replays_byte_identical(self, tmp_path, capsys):
        # qmap on gaussian and complex trapezoid certificates and on rational
        # CP^1 x CP^1 and cube certificates, toric
        # revalidate on honest certificates in every mode and on tampered
        # copies, qstate on rational and float documents of every relation
        # type, and selftest at seeds 0-3, recorded by
        # tests/golden/pin_command_output.py.
        corpus = json.loads((GOLDEN / "command_output.json").read_text(encoding="utf-8"))
        assert {tuple(e["argv"][:2]) for e in corpus["runs"]} == {
            (g, c) for g, c in COMMANDS if g in ("qmap", "qstate")
        } | {("selftest", "--seed"), ("toric", "revalidate")}
        docs = corpus["documents"]
        for name, doc in docs.items():
            write(tmp_path, name, doc)
        for entry in corpus["runs"]:
            argv = [str(tmp_path / t) if t in docs else t for t in entry["argv"]]
            code = main(argv)
            digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
            assert [code, digest] == [entry["code"], entry["stdout_sha256"]], entry["argv"]


# -- rationals past the digit limit ---------------------------------------


def test_rationals_past_the_digit_limit_are_written_as_with_the_limit_lifted(tmp_path, capsys):
    # Vertices, weights, fibers, witness coefficients, quasi-state values and
    # a vertex determinant whose integers pass the interpreter's 4,300-digit
    # limit on int-to-str conversion: each run writes, under the limit, the
    # bytes it writes with the limit lifted, and nothing on stderr.
    a, b, p, q = (Fraction(1, 10**2200 + k) for k in (1, 3, 7, 9))
    n = 10**2200 + 1
    c, e = Fraction(10**3000 + 1, 10**2999 + 3), Fraction(10**3000 + 7, 10**2999 + 9)
    docs = {
        "triangle.json": {"dim": 2, "facets": [
            {"normal": [1, 0], "offset": str(q)}, {"normal": [0, 1], "offset": "0"},
            {"normal": [-1, -1], "offset": str(-p)}]},
        "box.json": {"dim": 2, "facets": [
            {"normal": [1, 0], "offset": "0"}, {"normal": [0, 1], "offset": "0"},
            {"normal": [-1, 0], "offset": str(-a)}, {"normal": [0, -1], "offset": str(-b)}]},
        # the first two normals meet with determinant n^2 + (n + 1)^2
        "wide.json": {"dim": 2, "facets": [
            {"normal": [n, n + 1], "offset": "-1"}, {"normal": [-n - 1, n], "offset": "-1"},
            {"normal": [1, -2 * n - 1], "offset": "-1"}]},
        "cx.json": {
            "field": {"mode": "rational"}, "lattice": {"rank": 1, "periods": ["1"]},
            "generators": [{"id": "a", "action": "1", "degree": 1},
                           {"id": "b", "action": "0", "degree": 0},
                           {"id": "z", "action": "0", "degree": 0}],
            "differential": [{"from": "a", "to": "b", "coeff": [{"exp": "0", "c": str(c)}]},
                             {"from": "a", "to": "z", "coeff": [{"exp": "-1", "c": str(e)}]}]},
        "chain.json": {"coeffs": [{"id": "b", "coeff": [{"exp": "0", "c": str(e)}]},
                                  {"id": "z", "coeff": [{"exp": "0", "c": str(c)}]}]},
        "heavy.json": {"functions": [{"name": "H", "zeta": str(p), "sup": str(q)}]},
        "oracle.json": {"samples": [{"n": 1, "c": str(p)}, {"n": 2, "c": str(q)}]},
        "product.json": {"pairs": [{"zeta0": str(p), "zeta1": str(q), "zeta_product": "0"}]},
    }
    paths = {name: write(tmp_path, name, doc) for name, doc in docs.items()}
    fiber = f"{p},{q}"
    for argv, expected in [
        (["toric", "validate", "triangle.json"], 0),
        (["toric", "potential", "box.json", "--fiber", fiber], 0),
        (["toric", "critical", "box.json", "--fiber", fiber], 0),
        (["toric", "validate", "wide.json"], 1),
        (["complex", "spectral", "cx.json", "--chain", "chain.json"], 0),
        (["qstate", "heavy", "heavy.json"], 1),
        (["qstate", "homogenize", "oracle.json"], 0),
        (["qstate", "product", "product.json"], 1),
    ]:
        argv = [paths.get(t, t) for t in argv]
        code, (out, err) = main(argv), capsys.readouterr()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            lifted = main(argv), capsys.readouterr().out
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (expected, "") and (code, out) == lifted, argv


# -- reader fuzz ----------------------------------------------------------

CHAIN = {"coeffs": [{"id": "c", "coeff": [{"exp": "0", "c": "1"}]}], "floor": "-inf"}

# One skeleton document per reader, with the command lines that read it;
# "DOC" stands for the document's path, and a skeleton of None for the
# certificate of the ``cert_path`` fixture.
READERS = {
    "complex": (GOOD_COMPLEX, [["complex", "homology", "DOC"]]),
    "complex-float": ({
        **GOOD_COMPLEX,
        "field": {"mode": "complex", "eps": 1e-12},
        "differential": [{"from": "a", "to": "b", "coeff": [{"exp": "-1", "c": {"re": 1.0, "im": 0.5}}]}],
    }, [["complex", "homology", "DOC"], ["complex", "validate", "DOC"]]),
    "chain": (CHAIN, [["complex", "spectral", "COMPLEX", "--chain", "DOC"]]),
    "polytope": (TRAP, [["toric", "validate", "DOC"]]),
    "certificate": (None, [["toric", "revalidate", "DOC"], ["qmap", "rank", "DOC"],
                           ["qmap", "unit", "DOC"], ["qmap", "charge", "DOC"]]),
    "oracle": (ORACLE, [["qstate", "homogenize", "DOC", "--volume", "2"]]),
    "quasistate-family": ({
        "functions": [{"name": "f", "zeta": "1"}, {"name": "g", "zeta": 0.5}],
        "relations": [
            {"type": "lipschitz", "f": "f", "g": "g", "dist": "1"},
            {"type": "scale", "f": "f", "g": "g", "factor": "1/2"},
            {"type": "shift", "f": "g", "g": "f", "alpha": 0.5},
            {"type": "triangle", "f": "f", "g": "g", "sum": "f"},
            {"type": "normalized", "f": "f"},
        ],
    }, [["qstate", "check", "DOC"]]),
    "quasimorphism-family": ({
        "elements": [{"name": "a", "mu": "1"}, {"name": "b", "mu": "2"}],
        "relations": [
            {"type": "power", "f": "a", "g": "b", "n": 2},
            {"type": "quasi_additivity", "f": "a", "g": "a", "product": "b", "bound": "0"},
            {"type": "calabi", "f": "a", "value": 1.0},
        ],
    }, [["qstate", "check", "DOC"]]),
    "heaviness": ({"subset": "Y", "functions": [{"name": "H", "zeta": "0", "sup": 1.5}]},
                  [["qstate", "heavy", "DOC"]]),
    "product": ({
        "pairs": [{"f0": "F", "f1": "G", "zeta0": "1", "zeta1": 2.0, "zeta_product": "3"}],
        "factors_heavy": [{"subset": "A", "heavy": True}, {"subset": "B", "heavy": False}],
    }, [["qstate", "product", "DOC"]]),
}

_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["1/2", "-1", "1/0", "-inf", "rational", "complex", "a"])
    | st.sampled_from([10**400, -(10**400), "1e400", "-1e400", "inf", "nan"])
)
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=5,
)
DELETE = object()


def _paths(doc, prefix=()):
    """Every position in a JSON document, the document itself first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _at(doc, path):
    """The value at ``path`` in a JSON document."""
    return functools.reduce(lambda d, k: d[k], path, doc)


def _replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced, or deleted."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = _at(doc, head)
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


class TestReaderFuzz:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory, cert_path):
        tmp = tmp_path_factory.mktemp("fuzz")
        write(tmp, "complex.json", GOOD_COMPLEX)
        return tmp, json.loads(Path(cert_path).read_text(encoding="utf-8"))

    @pytest.mark.parametrize("skeleton, commands", READERS.values(), ids=list(READERS))
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_reader_exits_0_1_or_2(self, workdir, skeleton, commands, data):
        # A wrong value anywhere in a valid document, or a deleted key, is an
        # exit code of the contract, never a traceback.
        tmp, certificate = workdir
        skeleton = certificate if skeleton is None else skeleton
        path = data.draw(st.sampled_from(list(_paths(skeleton))))
        value = data.draw(JSON_VALUES | st.just(DELETE) if path else JSON_VALUES)
        doc_path = write(tmp, "doc.json", _replaced(skeleton, path, value))
        argv = data.draw(st.sampled_from(commands))
        argv = [{"DOC": doc_path, "COMPLEX": str(tmp / "complex.json")}.get(a, a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)

    def test_an_integer_past_the_digit_limit_in_a_corpus_document_exits_2(self, tmp_path, capsys):
        # Each corpus document that holds a JSON integer, its first integer
        # leaf replaced by a 5,000-digit literal: json.loads refuses that
        # literal under the interpreter's 4,300-digit limit on str-to-int
        # conversion, and the first corpus run that reads the document exits
        # 2 with one input-error line naming the file.
        cases = 0
        for corpus_name in ("command_output.json", "complex_output.json"):
            corpus = json.loads((GOLDEN / corpus_name).read_text(encoding="utf-8"))
            docs, tmp = corpus["documents"], tmp_path / corpus_name
            tmp.mkdir()
            for name, doc in docs.items():
                write(tmp, name, doc)
            for name, doc in docs.items():
                leaf = next((path for path in _paths(doc) if type(_at(doc, path)) is int), None)
                if leaf is None:
                    continue
                text = json.dumps(_replaced(doc, leaf, "LONG"))
                long_doc = tmp / f"long_{name}"
                long_doc.write_text(text.replace('"LONG"', "9" * 5000, 1), encoding="utf-8")
                argv = next(e["argv"] for e in corpus["runs"] if name in e["argv"])
                argv = [str(long_doc) if t == name else str(tmp / t) if t in docs else t
                        for t in argv]
                code, (out, err) = main(argv), capsys.readouterr()
                assert (code, out) == (2, ""), argv
                assert err.startswith(f"novspec: input error: {long_doc}: ") and err.count("\n") == 1
                assert "Traceback" not in err
                cases += 1
        assert cases >= 41
