"""Run one optonoise benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload fixture-sweep --seed 1 --seconds 36 --trace 0

The workload's commands run in-process through ``optonoise.cli.cli_main``,
back to back (closed loop, one client), for ``--seconds`` seconds.  Every
output file is checked against an oracle.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy loads: the single-threaded
# baseline, and no contention with the other process sharing the machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("round_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "fraction"),
)

SETUP_REPEATS = 5

# Reference probe: a fixed Python loop plus Philox normal draws and an
# einsum, the three kinds of work the workloads do.  PROBE_NOMINAL_S is its
# median time on the 2-vCPU VM the README baseline was measured on;
# setup_s is reported in seconds at that speed (see README.md).
PROBE_LOOP = 20_000
PROBE_SHAPE = (5_000, 64)
PROBE_NOMINAL_S = 0.014


class Runner:
    """Runs commands, checks their outputs and keeps the tallies."""

    def __init__(self, work: Path, tracer=None):
        import numpy as np
        from optonoise.cli import cli_main

        self.cli_main = cli_main
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self._np = np
        self._probe_gen = np.random.Generator(np.random.Philox(0))
        self._probe_weights = np.random.default_rng(0).normal(size=(64, 64))

    def probe(self) -> float:
        """Wall time of the reference work, which never touches optonoise.

        On a shared VM the CPU speed drifts by tens of percent over tens
        of seconds; dividing each command's time by the probes taken right
        before and after it cancels most of that drift.
        """
        start = time.perf_counter()
        total = 0
        for k in range(PROBE_LOOP):
            total += k
        z = self._probe_gen.standard_normal(PROBE_SHAPE)
        self._np.einsum("ij,...j->...i", self._probe_weights, z, optimize=False)
        return time.perf_counter() - start

    def run(self, command, traced: bool = False) -> float:
        """Run one command; return its wall time.  Checks run untimed."""
        import workloads

        out = self.work / f"{command.name}.json"
        argv = ["--output", str(out), *command.argv]
        span = self.tracer.open("cli.main") if traced else None
        start = time.perf_counter()
        code = self.cli_main(argv)
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.close(span)
        self.attempted += 1
        try:
            if code != 0:
                raise workloads.CheckFailed(f"exit code {code}")
            if traced:
                self.tracer.count("cli.bytes_out", out.stat().st_size)
            command.check(workloads.read_output(out))
        except Exception as exc:  # any bad output counts as one failed command
            self.failed += 1
            print(f"FAILED {command.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed

    def run_round(self, commands, traced: bool) -> list[tuple[float, float]]:
        """Run every command once; return (wall time, time in probe units) each."""
        out = []
        before = self.probe()
        for command in commands:
            elapsed = self.run(command, traced)
            after = self.probe()
            out.append((elapsed, 2.0 * elapsed / (before + after)))
            before = after
        return out


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  import_s: float = 0.0, scale: str = "full") -> dict:
    """One benchmark run; returns the result object that ``main`` prints.

    ``import_s`` is the caller's import time, counted into ``setup_s``.
    ``scale="tiny"`` measures the warm-up sizes instead of the full ones;
    the smoke tests use it.
    """
    import workloads  # first: puts src/ on sys.path
    import spans

    OUT_DIR.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        tracer = spans.Tracer() if trace else None
        runner = Runner(root, tracer)
        before = runner.probe()
        import_ref = import_s / before
        setups = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            plan = workloads.build_plan(workload, seed, root / f"in{rep}", scale)
            warm = workloads.build_plan(workload, seed, root / f"warm{rep}", "tiny")
            for command in warm:
                runner.run(command)
            elapsed = time.perf_counter() - start
            after = runner.probe()
            setups.append(2.0 * elapsed / (before + after))
            before = after

        names = [c.name for c in plan]
        walls = {name: [] for name in names}
        ratios = {name: [] for name in names}
        traced_rounds, plain_rounds = [], []
        deadline = time.perf_counter() + seconds
        round_no = 0
        while True:
            # in a traced run, odd rounds are traced and even rounds give the
            # untraced wall time the tracing overhead is measured against
            traced = trace and round_no % 2 == 1
            if traced:
                tracer.run = round_no
                tracer.install()
            start = time.perf_counter()
            try:
                timings = runner.run_round(plan, traced)
            finally:
                if traced:
                    tracer.uninstall()
            wall = time.perf_counter() - start
            (traced_rounds if traced else plain_rounds).append(sum(t for t, _ in timings))
            if not traced:
                for name, (elapsed, ratio) in zip(names, timings):
                    walls[name].append(elapsed)
                    ratios[name].append(ratio)
            round_no += 1
            enough = round_no >= (2 if trace else 1)
            if enough and time.perf_counter() + wall > deadline:
                break

        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
        }
        if trace:
            overhead = statistics.median(traced_rounds) - statistics.median(plain_rounds)
            values = tracer.metrics(len(traced_rounds), overhead)
            units = spans.PER_LAYER
            tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
        else:
            values = {
                "setup_s": PROBE_NOMINAL_S * (import_ref + statistics.median(setups)),
                "round_ref": sum(statistics.median(r) for r in ratios.values()),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pass_frac": 1.0 - runner.failed / runner.attempted,
            }
            units = END_TO_END
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units}
        medians = ", ".join(f"{n} {statistics.median(walls[n]):.3f}s" for n in names)
        print(
            f"{workload}: {round_no} rounds ({len(traced_rounds)} traced), "
            f"{runner.attempted} commands, {runner.failed} failed; "
            f"median wall per untraced command: {medians}",
            file=sys.stderr,
        )
        return result
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "optonoise" / "__init__.py").is_file():
        print(f"error: no optonoise sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    import workloads  # timed: imports optonoise, numpy and scipy
    import spans  # noqa: F401

    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
