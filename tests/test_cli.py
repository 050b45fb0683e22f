"""End-to-end CLI contract: exit codes, JSON round trips, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import novspec
from novspec.cli import main

# facet value at lam is <normal, lam> - offset, so [0, 1] is offsets 0 and -1
CP1 = {
    "dim": 1,
    "facets": [
        {"normal": [1], "offset": "0"},
        {"normal": [-1], "offset": "-1"},
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


class TestToricCommands:
    def test_validate(self, tmp_path):
        path = write(tmp_path, "cp1.json", CP1)
        code, doc = run_json(tmp_path, ["toric", "validate", path])
        assert code == 0 and doc["ok"] and doc["delzant"]

    def test_validate_unbounded_exits_1(self, tmp_path):
        path = write(tmp_path, "strip.json", STRIP)
        code, doc = run_json(tmp_path, ["toric", "validate", path])
        assert code == 1 and not doc["ok"]

    def test_validate_does_not_import_sympy(self, tmp_path):
        # Polytope validation is sympy-free; only the leading-system solver
        # imports it.
        path = write(tmp_path, "cp1.json", CP1)
        script = (
            "import sys\n"
            "from novspec.cli import main\n"
            f"code = main(['toric', 'validate', {path!r}, '--out', {os.devnull!r}])\n"
            "print(code, 'sympy' in sys.modules)\n"
        )
        src = str(Path(novspec.__file__).resolve().parent.parent)
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.split() == ["0", "False"]

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

    def test_brane_out_of_range_exits_1(self, cert_path, capsys):
        assert main(["qmap", "rank", cert_path, "--brane", "5"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_wrong_kind_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "poly.json", CP1)
        assert main(["qmap", "rank", path]) == 2
        assert "heaviness-certificate" in capsys.readouterr().err


class TestQstateCommands:
    def oracle(self):
        return {
            "samples": [{"n": n, "c": str(n * 3 // 2) if n % 2 == 0 else f"{3 * n}/2"}
                        for n in range(1, 9)],
            "tag": "synthetic",
        }

    def test_homogenize(self, tmp_path):
        path = write(tmp_path, "oracle.json", self.oracle())
        code, doc = run_json(tmp_path, ["qstate", "homogenize", path])
        assert code == 0 and doc["kind"] == "quasistate-estimate"
        assert doc["zeta"]["value"] == "-3/2" and doc["mu"] is None

    def test_homogenize_with_volume(self, tmp_path):
        path = write(tmp_path, "oracle.json", self.oracle())
        code, doc = run_json(
            tmp_path, ["qstate", "homogenize", path, "--volume", "2"]
        )
        assert code == 0 and doc["mu"]["value"] == "3"

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
