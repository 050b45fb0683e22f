"""Pin the stdout sha256 of every op of every workload at the default seed.

    python3 bench/pin.py [--workload NAME ...]

Runs one pass of each named workload (all by default) at
``workloads.DEFAULT_SEED``, requires every op to pass its exit-code and
output checks, and writes the digests to ``digests.json``.  Re-pin only
when an output change is intended: ``run.py`` counts any other changed
byte as a failed op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import run
import workloads


def pin(name: str) -> list:
    with run.work_dir(f"pin-{name}") as work:
        ops, _ = workloads.generate(name, workloads.DEFAULT_SEED, work)
        runner = run.Runner(work, ops, None)
        outputs, _ = runner.run_pass()
    if runner.failures:
        raise SystemExit(f"{name}: not pinned, ops failed:\n" + "\n".join(runner.failures))
    return [{"label": op["label"], "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
            for op, text in zip(ops, outputs)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pin default-seed stdout digests")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    pins = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    for name in args.workload or workloads.WORKLOADS:
        pins[name] = pin(name)
        print(f"{name}: {len(pins[name])} digests")
    run.DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
