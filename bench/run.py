"""xsep benchmark: one workload, one process, one thread, closed loop.

Usage, from the repository root:

    python3 bench/run.py --workload {sweep,verdicts,dense} --seed N \
        --seconds S --trace {0,1}

The workload's operation pool is built from the seed; set-up (input
generation, matrix files) is not timed. After one warm-up pass, whole passes
over the pool run back to back until S seconds have passed. Each operation
starts when the previous one has returned, and its output is checked by an
oracle after its latency has been taken.

--trace 0 reports the end-to-end metrics: throughput, latency percentiles,
peak memory and the import time of a fresh interpreter. Times are scaled to
a reference machine speed measured by a calibration loop run between
operations (see `run_untraced`); the unscaled figures are printed above the
result but are not part of it. --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see tracer.py), plus the tracing overhead; the spans are written to
.bench_work/spans-<workload>.npz.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when the run finished,
even if outputs were wrong (then correct is false).
"""

import os

# Pin the BLAS pools to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 15
# Timings are scaled to a machine on which `calibrate()` returns CALIB_REF_S,
# after at most CALIB_EVERY_S of operation time (see `run_untraced`).
CALIB_STEPS = 1500
CALIB_REF_S = 0.003
CALIB_EVERY_S = 0.1
# A traced run stops alternating once this many spans are held in memory.
SPAN_CAP = 1_000_000


def use_source_tree() -> None:
    """Import xsep from this checkout's src/, never from an installed copy."""
    if not (SRC / "xsep" / "__init__.py").is_file():
        raise SystemExit(f"error: no xsep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import xsep

    if Path(xsep.__file__).resolve().parent != SRC / "xsep":
        raise SystemExit(f"error: imported xsep from {xsep.__file__}, not {SRC}")


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running `import xsep`.

    Each time is scaled like an operation latency, by the calibrations just
    before and after it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import xsep"]
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    # would quantize the measurement.
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # compiles .pyc
    times = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        dt = time.perf_counter() - t0
        after = calibrate()
        times.append(dt * CALIB_REF_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


def calibrate() -> float:
    """Median of five timings of a fixed loop of interpreter and small-array
    numpy work; the median drops loops hit by a preemption."""
    import numpy as np

    a = np.zeros((4, 4), dtype=complex)
    times = []
    for _ in range(5):
        s = 0.0
        t0 = time.perf_counter()
        for i in range(CALIB_STEPS):
            s += math.sqrt(i + 1.0)
            a[1, 2] = s
            float(np.abs(a).sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, op, tracer=None) -> float:
        """Run one op and check its output; returns its latency in seconds."""
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # a raising operation is a failed operation
            ok = False
        else:
            ok = None
        dt = time.perf_counter() - t0
        if ok is None:
            try:
                ok = bool(op.check(out))
            except Exception:  # an output the oracle cannot read is wrong
                ok = False
        self.attempted += 1
        self.failed += not ok
        return dt

    def run_pass(self, ops, tracer=None) -> float:
        """Run every op once, in order; returns the summed latency in seconds."""
        return sum(self.run(op, tracer) for op in ops)


def _latency_metrics(lat, done: int) -> dict:
    import numpy as np

    p50, p90 = np.percentile(lat, [50, 90]) * 1e3
    return {
        "ops_per_s": (float(done / np.sum(lat)), "1/s"),
        "op_p50_ms": (float(p50), "ms"),
        "op_p90_ms": (float(p90), "ms"),
    }


def run_untraced(ops, seconds: float, tally: Tally) -> tuple[dict, dict, int]:
    """Reported metrics, the same figures unscaled, and the sample count.

    The speed of a shared virtual CPU drifts by up to a factor of two within
    seconds, more than a run can average out. So the calibration loop runs
    whenever CALIB_EVERY_S of operation time has passed, and each latency is
    scaled by CALIB_REF_S over the mean of the calibrations just before and
    after it.
    """
    tally.run_pass(ops)  # warm-up
    failed_before = tally.failed
    raw, scaled, pending = [], [], []
    before = calibrate()

    def flush():
        nonlocal before
        after = calibrate()
        factor = CALIB_REF_S / (0.5 * (before + after))
        scaled.extend(dt * factor for dt in pending)
        raw.extend(pending)
        pending.clear()
        before = after

    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in ops:
            pending.append(tally.run(op))
            if sum(pending) >= CALIB_EVERY_S:
                flush()
    if pending:
        flush()
    done = len(raw) - (tally.failed - failed_before)
    return _latency_metrics(scaled, done), _latency_metrics(raw, done), len(raw)


def run_traced(ops, seconds: float, tally: Tally, spans_path: Path) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tally.run_pass(ops)  # warm-up
    untraced = traced = 0.0
    start = time.perf_counter()
    while True:
        untraced += tally.run_pass(ops)
        with tracer.installed():
            traced += tally.run_pass(ops, tracer)
        if time.perf_counter() - start >= seconds or tracer.span_count >= SPAN_CAP:
            break
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "fraction")
    tracer.save(spans_path)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "verdicts", "dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_source_tree()
    import numpy as np
    import workloads

    setup_s = None if args.trace else measure_setup()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        inputs = workloads.INPUTS[args.workload](args.seed)
        ops = workloads.OPS[args.workload](inputs, workdir)
        tally = Tally()
        if args.trace:
            metrics = run_traced(ops, args.seconds, tally, WORK / f"spans-{args.workload}.npz")
        else:
            metrics, unscaled, samples = run_untraced(ops, args.seconds, tally)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
            metrics["setup_s"] = (setup_s, "s")
        extras = workloads.EXTRA_OPS.get(args.workload)
        if extras is not None:
            tally.run_pass(extras(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} pool={len(ops)} timed_samples={0 if args.trace else samples}")
    print(f"nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={np.__version__} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    failed_frac = tally.failed / tally.attempted
    print(f"{'failed_frac':40s} {failed_frac:.6g} fraction "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in unscaled.items():
            print(f"{name + ' (unscaled)':40s} {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
