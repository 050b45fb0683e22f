"""Checks of the benchmark itself.

    python3 bench/selfcheck.py [--workload NAME]

1. The same seed writes byte-identical inputs, and another seed writes
   different ones, for every workload.
2. Two traced runs of the same seed report identical per-layer counts.
3. A wrong pinned digest, and a wrong expected homology rank, are each
   reported as a failed op and make ``run.main`` return non-zero.
4. An op that raises is reported as a failed op, and the run still ends
   with its result line.

Exits 0 when every check holds.  The traced runs use ``--workload``
(default ``homology``, the cheapest).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def _files(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def check_inputs() -> list:
    problems = []
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        tmp = Path(tmp)
        for name in workloads.WORKLOADS:
            a, b, c = tmp / f"{name}-a", tmp / f"{name}-b", tmp / f"{name}-c"
            workloads.generate(name, 7, a)
            workloads.generate(name, 7, b)
            workloads.generate(name, 8, c)
            if _files(a) != _files(b):
                problems.append(f"{name}: seed 7 wrote different inputs twice")
            if _files(a) == _files(c):
                problems.append(f"{name}: seeds 7 and 8 wrote the same inputs")
    return problems


def _run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run.main(argv)
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


def check_counts(workload: str) -> list:
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "1"]
    counts = []
    for _ in range(2):
        rc, result = _run(argv)
        if rc != 0:
            return [f"traced {workload} run failed: {result}"]
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] != "s" and k != "trace.overhead_ratio"})
    if counts[0] != counts[1]:
        diff = {k for k in counts[0] if counts[0][k] != counts[1].get(k)}
        return [f"per-layer counts differ between two traced runs: {sorted(diff)}"]
    return []


def check_detects_wrong_digest() -> list:
    real = run.DIGESTS
    pins = json.loads(real.read_text())
    pins["homology"][0]["sha256"] = "0" * 64
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        run.DIGESTS = Path(tmp) / "digests.json"
        run.DIGESTS.write_text(json.dumps(pins))
        try:
            rc, result = _run(["--workload", "homology", "--seconds", "0"])
        finally:
            run.DIGESTS = real
    if rc == 0 or result["failed"] != 1:
        return [f"a wrong digest gave exit {rc} and {result['failed']} failed ops"]
    return []


def check_detects_wrong_rank() -> list:
    real = workloads._ranks

    def off_by_one(ranks):
        out = real(ranks)
        first = next(iter(out))
        out[first] += 1
        return out

    workloads._ranks = off_by_one
    try:
        rc, result = _run(["--workload", "homology", "--seed", "5", "--seconds", "0"])
    finally:
        workloads._ranks = real
    if rc == 0 or result["failed"] == 0:
        return [f"wrong expected ranks gave exit {rc} and {result['failed']} failed ops"]
    return []


def check_detects_crash() -> list:
    from novspec import cli

    real = cli.main

    def crash_spectrum(argv):
        if argv[:2] == ["complex", "spectrum"]:
            raise ZeroDivisionError("injected")
        return real(argv)

    cli.main = crash_spectrum
    try:
        rc, result = _run(["--workload", "homology", "--seed", "5", "--seconds", "0"])
    finally:
        cli.main = real
    expected = len(workloads.HOMOLOGY_MODES) * len(workloads.SINGLE_SIZES)
    if rc == 0 or result["failed"] != expected:
        return [f"{expected} raising ops gave exit {rc} and {result['failed']} failed ops"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="checks of the benchmark itself")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="homology")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    problems = []
    for name, check in (("inputs are seeded", check_inputs),
                        ("counts repeat", lambda: check_counts(args.workload)),
                        ("wrong digest fails", check_detects_wrong_digest),
                        ("wrong rank fails", check_detects_wrong_rank),
                        ("raising op fails", check_detects_crash)):
        found = check()
        print(f"{'ok' if not found else 'FAIL'}  {name}")
        problems += found
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
