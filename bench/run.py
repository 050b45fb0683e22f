"""The novspec benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {lift,scan,homology} --seed N \
        --seconds S --trace {0,1}

The inputs are generated from the seed (``workloads.py``) into a fresh
directory under ``.bench_work/``, removed at exit.  Each op is one
in-process ``novspec.cli.main(argv)`` call with stdout captured.  Ops run
as a closed loop with one client: one process, no threads, and the next
op starts only after the previous one returns.  Before each op sympy's
cache is cleared, so every op meets the cache state a fresh ``novspec``
process meets; lazy imports stay loaded (they count in ``setup_s``).

Untraced run (``--trace 0``), end-to-end metrics:

* ``wall_s``: one pass at each op's fastest time: the sum over the ops
  of the least time each took in this run's passes.  The workload's
  warm-up ops run once, untimed, first; then each pass is followed by one
  cold start, and pass and cold start repeat while another pair should
  end within ``--seconds`` (at least one pair).
* ``setup_s``: ``import novspec.cli`` plus the workload's first op, run
  cold in a fresh interpreter: the fastest of the run's cold starts, for
  the reason ``wall_s`` keeps fastest times.  Spreading the cold starts
  over the run, between the passes, keeps them from all landing in one
  slow phase of the machine.
* ``peak_rss_mb``: peak resident memory of this process.

Also printed, not in the result line: ``op_p50_s`` and ``op_p90_s``, the
median and 90th percentile over the ops of their fastest times, with the
op and pass counts.  They mean something on ``homology`` only: ``lift``
and ``scan`` have a dozen unlike ops, whose order statistics moved by
0.2-0.6 of their median between seeds.

Why the fastest time: on a shared 2-vCPU machine the speed of a core
drifts by 1.5x in phases lasting minutes.  Over four 25-s windows of
``homology`` in one process, the median pass time spread 0.64-0.96 s while
the sum of per-op fastest times spread 0.52-0.58 s.  The estimator needs
short ops timed many times, which is why the workloads keep every op to a
second or two (see ``workloads.py``).

Traced run (``--trace 1``): after the warm-up, untraced passes alternate
with passes that have every layer wrapped (``layers.py``), while another
pair should end within ``--seconds`` (at least one pair).  The per-layer
metrics come from the first traced pass alone, so counts repeat exactly;
``trace.overhead_ratio`` is the traced pass over the untraced one, each
timed as ``wall_s`` is, at each op's fastest time.

Every op's exit code is checked on every pass, and every pass must repeat
the first pass's stdout byte for byte.  The first pass's outputs also go
through the seed-independent checks in ``workloads.check_output``, outside
the timed region.  For ``DEFAULT_SEED`` the sha256 of every op's stdout
must match ``digests.json``.  An op failing any of these counts in
``failed``, and so does an op that raises: its traceback is kept as the
failure and the run goes on.  ``fail_ratio`` = failed / attempted.  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it name each metric with its unit.  The exit code is 0 only when every op
passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"

COLD_TIMEOUT_S = 60

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


class Runner:
    """Runs ops in process, in the work directory, and records failures."""

    def __init__(self, work: Path, ops: list, pinned):
        self.work = work
        self.ops = ops
        self.pinned = pinned  # list of sha256 per op, or None
        self.first = None  # stdout of each op in the first checked pass
        self.attempted = 0
        self.failures = []

    def run_op(self, op):
        from novspec import cli

        if "sympy" in sys.modules:
            sys.modules["sympy"].core.cache.clear_cache()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = cli.main(op["argv"])
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # counted as a failed op by the exit-code check
                rc = None
                traceback.print_exc()
            took = perf_counter() - start
        text = out.getvalue()
        if op["save"]:
            (self.work / op["save"]).write_text(text, encoding="utf-8")
        return rc, text, err.getvalue(), took

    def run_pass(self, ops=None, checked=True):
        """One pass over the ops; returns (outputs, per-op seconds)."""
        outputs, times = [], []
        for i, op in enumerate(ops or self.ops):
            rc, text, err, took = self.run_op(op)
            outputs.append(text)
            times.append(took)
            if checked:
                self._check(i, op, rc, text, err)
        if checked and self.first is None:
            self.first = outputs
        return outputs, times

    def _check(self, i, op, rc, text, err):
        self.attempted += 1
        problems = []
        if rc != op["rc"]:
            problems.append(f"exit code {rc}, expected {op['rc']}: {err.strip()[-300:]}")
        if self.first is not None:
            if text != self.first[i]:
                problems.append("stdout differs from the first pass")
        elif not problems:
            problems += workloads.check_output(op["check"], text)
            if self.pinned is not None:
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                if i >= len(self.pinned) or digest != self.pinned[i]:
                    problems.append(f"stdout sha256 {digest[:16]} differs from the pinned digest")
        if problems:
            self.failures.append(f"op {i} ({op['label']}): " + "; ".join(problems))


def cold_start_seconds(work: Path, argv: list) -> float:
    """``import novspec.cli`` plus one op in a fresh interpreter."""
    code = (
        "import contextlib, io, json, sys, time\n"
        "t = time.perf_counter()\n"
        "import novspec.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = novspec.cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([rc, time.perf_counter() - t]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], cwd=work,
                          env=env, capture_output=True, text=True,
                          timeout=COLD_TIMEOUT_S, check=True)
    rc, seconds = json.loads(proc.stdout.strip().splitlines()[-1])
    if rc != 0:
        raise RuntimeError(f"cold op {argv} exited {rc}: {proc.stderr[-300:]}")
    return seconds


@contextlib.contextmanager
def work_dir(tag: str):
    """A fresh directory under ``.bench_work/``, the cwd while open, then removed."""
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        yield work
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(runner: Runner, ops, warmup, seconds):
    """End-to-end metrics of an untraced run, and a note on the samples."""
    runner.run_pass(ops[:warmup], checked=False)
    passes, colds = [], []
    start = perf_counter()
    while True:
        begun = perf_counter()
        passes.append(runner.run_pass()[1])
        colds.append(cold_start_seconds(runner.work, ops[0]["argv"]))
        # Start another pair only if it should end within the run's seconds.
        now = perf_counter()
        if now - start + (now - begun) > seconds:
            break
    best = [min(times) for times in zip(*passes)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p90 = statistics.quantiles(best, n=10, method="inclusive")[-1]
    return {
        "wall_s": _metric(sum(best), "s"),
        "setup_s": _metric(min(colds), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }, (f"op_p50_s {statistics.median(best):.6g} s, op_p90_s {p90:.6g} s over {len(best)} ops,"
        f" each timed at its fastest of {len(passes)} passes; setup_s the fastest of"
        f" {len(colds)} cold starts")


def _traced_pass(runner: Runner):
    """One pass with every layer wrapped; returns (tracer, outputs, times)."""
    import layers

    tracer = layers.Tracer()
    tracer.install()
    try:
        outputs, times = runner.run_pass()
    finally:
        tracer.remove()
    return tracer, outputs, times


def measure_traced(runner: Runner, ops, warmup, seconds):
    """Per-layer metrics of the first traced pass, the overhead ratio over
    alternating untraced and traced passes, and a note on the samples."""
    runner.run_pass(ops[:warmup], checked=False)
    untraced, traced = [], []
    first = None
    start = perf_counter()
    # Start another pair only if it should end within the run's seconds.
    while not traced or (perf_counter() - start + sum(untraced[-1]) + sum(traced[-1])
                         <= seconds):
        untraced.append(runner.run_pass()[1])
        tracer, outputs, times = _traced_pass(runner)
        traced.append(times)
        if first is None:
            first = tracer, outputs
    ratio = sum(min(t) for t in zip(*traced)) / sum(min(t) for t in zip(*untraced))
    return first[0].metrics(first[1], ratio), (
        f"per-layer metrics of one traced pass; overhead over {len(traced)} pairs of passes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="novspec benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "novspec" / "cli.py").is_file():
        print(f"bench: no novspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    pinned = None
    if args.seed == workloads.DEFAULT_SEED:
        pins = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        pinned = [d["sha256"] for d in pins.get(args.workload, [])]
    with work_dir(f"{args.workload}-{args.seed}") as work:
        ops, warmup = workloads.generate(args.workload, args.seed, work)
        runner = Runner(work, ops, pinned)
        if args.trace:
            metrics, note = measure_traced(runner, ops, warmup, args.seconds)
        else:
            metrics, note = measure(runner, ops, warmup, args.seconds)

    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(runner.failures)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"({note})")
    print(f"fail_ratio {failed / runner.attempted:.6g} 1 ({failed} of {runner.attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
