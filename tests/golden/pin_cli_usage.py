"""Pin the exit code and output bytes of the CLI's usage and error paths.

    PYTHONPATH=src python3 tests/golden/pin_cli_usage.py

Runs each argv below through ``novspec.cli.main`` in process, with
``COLUMNS=80`` so argparse wraps help text the same way on every terminal,
and writes the exit code and the sha256 of stdout and of stderr to
``cli_usage.json``.  ``tests/test_cli.py`` replays the file.  Re-pin only
when an output change is intended, and name the change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "cli_usage.json"

GROUPS = {
    "complex": ("validate", "homology", "spectral", "spectrum", "tensor"),
    "toric": ("validate", "potential", "critical", "certify", "scan", "revalidate"),
    "qmap": ("rank", "unit", "charge"),
    "qstate": ("homogenize", "check", "heavy", "product"),
    "selftest": (),
}


def argvs() -> list:
    out = [["--help"]]
    for group, commands in GROUPS.items():
        out.append([group, "--help"])
        out += [[group, command, "--help"] for command in commands]
    out += [
        [],
        ["bogus"],
        ["complex"],
        ["--bogus", "complex", "homology", "x"],
        ["qmap", "charge", "c.json", "--scale", "2"],
    ]
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(argv: list) -> dict:
    from novspec.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {
        "argv": argv,
        "code": code,
        "stdout_sha256": sha256(out.getvalue()),
        "stderr_sha256": sha256(err.getvalue()),
    }


def main() -> int:
    os.environ["COLUMNS"] = "80"
    entries = [record(argv) for argv in argvs()]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} argv pinned to {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
