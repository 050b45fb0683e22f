"""Seeded inputs, op lists and output checks for the novspec benchmark.

Each workload is a fixed list of ops.  An op is one ``novspec`` command
line, run in process as ``novspec.cli.main(argv)``.  The program under
test receives only file paths and flags; everything it reads is written
here, as JSON, from the seed alone.

Seeds
-----
``DEFAULT_SEED`` is the seed whose stdout digests are pinned in
``digests.json``.  A seed changes the bytes every op reads and writes but
not the work an op does, so that timings differ between seeds only by
measurement noise:

* toric workloads (``lift``, ``scan``): the seed draws, per polytope, an
  integer translation t and maps every facet and fiber through
  x -> x + t (facet <n, x> >= c becomes <n, x> >= c + <n, t>).  Facet
  values at the mapped fiber are unchanged, so the potential, the leading
  strata, the certified fibers and the Newton iteration counts are too.
  Signed coordinate permutations were tried and dropped: a sign flip
  changes which coordinates enter the potential with negative exponents,
  and so how many series inversions a lift does (flipped images of the
  trapezoid certified in 0.65x the time of the unflipped one).
* ``homology``: the complexes, their cycles and the tensor pairs are drawn
  once by ``novspec.randomcx.random_complex`` from ``random.Random`` fed
  with ``HOMOLOGY_BASE_SEED``.  The run's seed feeds a second
  ``random.Random`` that shifts every action of each complex by a rational
  (filtration drops, homology and elimination work are unchanged; spectra
  and spectral numbers move by the shift) and scales each cycle by a unit
  coefficient.  Drawing the complexes themselves from the run's seed made
  a pass's work vary by 10% (interquartile range over six seeds, timed
  round-robin in one process).

Run ``python3 bench/workloads.py --workload lift --seed 0 --out DIR`` to
write one workload's inputs and its op list (``ops.json``) to DIR.  The
same seed gives byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
WORKLOADS = ("lift", "scan", "homology")

TRAPEZOID = ([(1, 0), (0, 1), (0, -1), (-1, -1)], [0, 0, -1, -2])
TRAPEZOID_FIBER = ("3/4", "1/2")
# Lift order: -1, not the -6 of the performance target.  On a shared 2-vCPU
# machine whose speed drifts by 1.5x in phases lasting minutes, a run can
# only time an op steadily by repeating it and keeping its fastest time
# (see run.py), and that needs ops of a second or two.  Over ten runs with
# different seeds, wall_s spread by 0.33 of its median both with one 25-34 s
# pass per run at -4 and with two or three 7-11 s passes at -2.  At -1 each
# of the four branes still takes three Newton iterations through series
# inversion, in 1-2 s per certificate.
LIFT_ORDER = "-1"

# Scan polytopes: (name, normals, offsets, grid, extra flags, fibers the scan
# certifies).  Grids are chosen so that certified fibers lift cheaply: by the
# exact short-circuit in rational mode, or in complex mode.  The trapezoid's
# 1/3 grid holds no certified fiber, so none of its fibers is lifted.  Each
# polytope gets a scan and a ``toric critical`` per certified fiber, but no
# ``toric validate``: both ops validate the polytope themselves.  [0,1]^3 and
# [0,1]^4 are left out: their sympy LPs made single ops of 0.8-1.5 s and a
# pass of 7-11 s, and with two or three passes per run wall_s still spread by
# 0.27 of its median over ten seeds (see the lift order note).
SCAN_POLYTOPES = [
    ("segment", [(1,), (-1,)], [0, -1], "1/8",
     ["--mode", "rational", "--order", "-6"], [("1/2",)]),
    ("cp2", [(1, 0), (0, 1), (-1, -1)], [0, 0, -1], "1/6",
     ["--mode", "complex", "--order", "-10"], [("1/3", "1/3")]),
    ("trapezoid", *TRAPEZOID, "1/3", [], []),
    ("cp1xcp1", [(1, 0), (0, 1), (-1, 0), (0, -1)], [0, 0, -1, -1], "1/4",
     ["--mode", "rational", "--order", "-8"], [("1/2", "1/2")]),
]

# Homology schedule: generator counts of the single complexes, each drawn
# once per coefficient mode, and of the two factors of each tensor pair.
# The period lattice is trivial, so every differential entry is a monomial.
# With a rank-1 or rank-2 lattice the elimination cost of one complex is
# heavy-tailed (one seed in twelve took 100-1000x the median at 28-40
# generators), and a pass would time a few outliers instead of the workload.
SINGLE_SIZES = (8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48)
PAIR_SIZES = ((4, 6), (5, 6), (6, 6), (6, 7), (7, 7), (7, 8))
HOMOLOGY_MODES = ("rational", "gaussian")
HOMOLOGY_BASE_SEED = "novspec-homology-base"


def _import_novspec():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _frac(x) -> str:
    return str(Fraction(x))


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path.name


def _op(label, argv, check, save=None, rc=0) -> dict:
    """One op: its argv, expected exit code, output check, and the file
    (if any) its stdout is saved to for later ops."""
    return {"label": label, "argv": argv, "rc": rc, "check": check, "save": save}


# -- toric -------------------------------------------------------------------


def _toric_inputs(rng, normals, offsets, fibers):
    """Polytope document and fiber strings after the seeded translation."""
    shift = [rng.randint(-3, 3) for _ in normals[0]]
    facets = [{"normal": list(n), "offset": _frac(c + sum(a * b for a, b in zip(n, shift)))}
              for n, c in zip(normals, offsets)]
    doc = {"dim": len(shift), "facets": facets}
    return doc, [",".join(_frac(Fraction(c) + t) for c, t in zip(f, shift)) for f in fibers]


def _lift(rng: random.Random, work: Path):
    doc, (fiber,) = _toric_inputs(rng, *TRAPEZOID, [TRAPEZOID_FIBER])
    poly = _write(work / "trapezoid.json", doc)
    cert_g = "cert_gaussian.json"
    cert_c = "cert_complex.json"
    branes = {"kind": "certificate", "branes": 4}
    ops = [
        _op("toric validate trapezoid", ["toric", "validate", poly],
            {"kind": "polytope-ok"}),
        _op(f"toric certify gaussian {LIFT_ORDER}",
            ["toric", "certify", poly, f"--fiber={fiber}", "--mode", "gaussian",
             "--order", LIFT_ORDER], branes, save=cert_g),
        _op(f"toric certify complex {LIFT_ORDER}",
            ["toric", "certify", poly, f"--fiber={fiber}", "--mode", "complex",
             "--order", LIFT_ORDER], branes, save=cert_c),
    ]
    for name, cert in (("gaussian", cert_g), ("complex", cert_c)):
        ops.append(_op(f"toric revalidate {name}", ["toric", "revalidate", cert],
                       {"kind": "revalidation-ok"}))
        # One rank op per brane: with one op per certificate the pass had
        # seven unlike ops, and op_p50_s jumped between two of them.
        for brane in range(4):
            ops.append(_op(f"qmap rank {name} brane {brane}",
                           ["qmap", "rank", cert, "--brane", str(brane)],
                           {"kind": "qmap-rank", "branes": 1, "rank": 4}))
    # The validate op is cheap and pays the lazy sympy import, so it is the
    # op timed cold for setup_s and the one op run to warm up.
    return ops, 1


def _scan(rng: random.Random, work: Path):
    ops = []
    for name, normals, offsets, grid, flags, fibers in SCAN_POLYTOPES:
        doc, certified = _toric_inputs(rng, normals, offsets, fibers)
        poly = _write(work / f"{name}.json", doc)
        ops.append(_op(f"toric scan {name} {grid}",
                       ["toric", "scan", poly, "--grid", grid, *flags],
                       {"kind": "scan", "certified": certified}))
        for fiber in certified:
            ops.append(_op(f"toric critical {name} {fiber}",
                           ["toric", "critical", poly, f"--fiber={fiber}"],
                           {"kind": "leading-roots"}))
    # Warm up on the segment's ops: they load every lazily imported module.
    return ops, 2


# -- homology ----------------------------------------------------------------


def _complex_of_size(rng, field, n):
    """Draw random complexes until one has n generators and a nonzero
    homology class (so a non-boundary cycle exists)."""
    from novspec.randomcx import random_complex

    while True:
        data = random_complex(rng, field, max_generators=n, max_lattice_rank=0)
        if len(data.complex.generators) == n and data.free_ids:
            return data


def _complex_doc(cx) -> dict:
    doc = {"schema_version": "1", "kind": "filtered-complex"}
    doc.update(cx.to_json())
    return doc


def _ranks(ranks: dict) -> dict:
    return {str(k): v for k, v in sorted(ranks.items())}


def _shifted(rng, cx):
    """The complex with every action moved by one seeded rational."""
    from novspec.complexes import FilteredComplex, OrbitGenerator

    shift = Fraction(rng.randint(-8, 8), rng.choice((1, 2)))
    gens = [OrbitGenerator(g.id, g.action + shift, g.degree) for g in cx.generators]
    return FilteredComplex(cx.field, cx.lattice, gens, cx.entries, cx.floor)


def _homology(rng: random.Random, work: Path):
    from novspec.complexes import chain_scale, chain_to_json
    from novspec.fields import CoefficientField
    from novspec.novikov import NovikovScalar
    from novspec.tensor import kunneth_ranks

    base = random.Random(HOMOLOGY_BASE_SEED)
    ops = []
    for mode in HOMOLOGY_MODES:
        field = CoefficientField(mode)
        for n in SINGLE_SIZES:
            data = _complex_of_size(base, field, n)
            cycle = data.random_cycle(base)
            cx = _shifted(rng, data.complex)
            unit = Fraction(rng.choice((1, -1)) * rng.randint(1, 4), rng.randint(1, 3))
            cycle = chain_scale(cycle, NovikovScalar.monomial(field, unit, 0))
            tag = f"{mode[0]}{n}"
            path = _write(work / f"cx_{tag}.json", _complex_doc(cx))
            chain = _write(work / f"chain_{tag}.json", chain_to_json(cycle))
            spec = {
                "base_actions": sorted({_frac(g.action) for g in cx.generators},
                                       key=Fraction),
                "generator": _frac(cx.lattice.group_generator()),
            }
            ops += [
                _op(f"complex validate {tag}", ["complex", "validate", path],
                    {"kind": "complex-valid"}),
                _op(f"complex homology {tag}", ["complex", "homology", path],
                    {"kind": "homology", "ranks": _ranks(data.expected_ranks())}),
                _op(f"complex spectrum {tag}", ["complex", "spectrum", path],
                    dict(spec, kind="spectrum")),
                _op(f"complex spectral {tag}",
                    ["complex", "spectral", path, "--chain", chain],
                    dict(spec, kind="spectral")),
            ]
        for n0, n1 in PAIR_SIZES:
            d0 = _complex_of_size(base, field, n0)
            d1 = _complex_of_size(base, field, n1)
            tag = f"{mode[0]}{n0}x{n1}"
            left = _write(work / f"left_{tag}.json", _complex_doc(_shifted(rng, d0.complex)))
            right = _write(work / f"right_{tag}.json", _complex_doc(_shifted(rng, d1.complex)))
            prod = f"prod_{tag}.json"
            ops += [
                _op(f"complex tensor {tag}", ["complex", "tensor", left, right],
                    {"kind": "tensor", "generators": n0 * n1}, save=prod),
                _op(f"complex homology {tag}", ["complex", "homology", prod],
                    {"kind": "homology", "ranks": _ranks(
                        kunneth_ranks(d0.expected_ranks(), d1.expected_ranks()))}),
            ]
    return ops, len(ops)


_BUILDERS = {"lift": _lift, "scan": _scan, "homology": _homology}


def generate(workload: str, seed: int, work: Path):
    """Write the workload's inputs for this seed under ``work``.

    Returns ``(ops, warmup)``: the op list and how many of its leading ops
    are run once, untimed, before measuring.  ``ops.json`` in ``work``
    records the op list with each op's expected exit code and check.  Op
    paths are file names, relative to ``work``, where the ops run.
    """
    _import_novspec()
    work.mkdir(parents=True, exist_ok=True)
    ops, warmup = _BUILDERS[workload](random.Random(f"{workload}:{seed}"), work)
    _write(work / "ops.json", {"workload": workload, "seed": seed,
                               "warmup": warmup, "ops": ops})
    return ops, warmup


# -- checks ------------------------------------------------------------------


def _in_spectrum(value: str, check: dict) -> bool:
    v = Fraction(value)
    g = Fraction(check["generator"])
    for base in map(Fraction, check["base_actions"]):
        if (v == base) if g == 0 else ((v - base) / g).denominator == 1:
            return True
    return False


def check_output(check: dict, text: str) -> list:
    """Problems with one op's stdout; empty when the output is right.

    These checks hold for any seed: they compare against values the
    generator knows, never against another novspec output.  An output the
    check cannot read (a missing key, a wrong type) is a problem too.
    """
    try:
        return _check_doc(check, json.loads(text))
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    except Exception as exc:  # noqa: BLE001 - any unreadable output fails the op
        return [f"output check raised {type(exc).__name__}: {exc}"]


def _check_doc(check: dict, doc) -> list:
    kind = check["kind"]
    if kind == "polytope-ok":
        return [] if doc.get("ok") is True else ["polytope did not validate"]
    if kind == "certificate":
        if doc.get("kind") != "heaviness-certificate":
            return [f"expected a certificate, got {doc.get('kind')!r}"]
        got = len(doc["branes"])
        return [] if got == check["branes"] else [f"{got} branes, expected {check['branes']}"]
    if kind == "revalidation-ok":
        return [] if doc.get("ok") is True else [f"revalidation failed: {doc.get('failures')}"]
    if kind == "qmap-rank":
        ranks = [b["rank"] for b in doc["branes"]]
        if ranks != [check["rank"]] * check["branes"]:
            return [f"quasimap ranks {ranks}, expected {check['branes']} x {check['rank']}"]
        return []
    if kind == "scan":
        got = sorted(r["fiber"] for r in doc["rows"] if r["status"] == "certified")
        if got != sorted(check["certified"]):
            return [f"certified fibers {got}, expected {sorted(check['certified'])}"]
        from novspec.critical import revalidate_certificate

        return [
            f"certificate at {r['fiber']} fails revalidation: {res['failures']}"
            for r in doc["rows"] if r["certificate"] is not None
            for res in [revalidate_certificate(r["certificate"])] if not res["ok"]
        ]
    if kind == "leading-roots":
        return [] if doc.get("roots") else ["no leading roots at a certified fiber"]
    if kind == "complex-valid":
        return [] if doc.get("valid") is True else [f"invalid complex: {doc.get('violations')}"]
    if kind == "homology":
        got = {k: v for k, v in doc.get("ranks", {}).items() if v}
        return [] if got == check["ranks"] else [f"homology ranks {got}, expected {check['ranks']}"]
    if kind == "spectrum":
        got = (doc.get("base_actions"), doc.get("period_group_generator"))
        if got != (check["base_actions"], check["generator"]):
            return [f"spectrum {got}, expected {check['base_actions']}, {check['generator']}"]
        return []
    if kind == "spectral":
        if doc.get("is_boundary") or not _in_spectrum(doc["value"], check):
            return [f"spectral number {doc.get('value')} is not in the spectrum"]
        return []
    if kind == "tensor":
        got = len(doc.get("generators", []))
        return [] if got == check["generators"] else [f"{got} product generators"]
    return [f"unknown check kind {kind!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True, help="directory for the inputs")
    args = parser.parse_args(argv)
    ops, _ = generate(args.workload, args.seed, Path(args.out))
    print(f"{len(ops)} ops written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
