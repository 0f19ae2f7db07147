"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload stream_unidg --seed 3 --seconds 25 --trace 0

Run from the root of a checkout. With --trace 0 the run sets up the workload
several times (median: setup_s), then times closed-loop operations for
--seconds and prints the end-to-end metrics. With --trace 1 it sets up once,
times untraced operations for half of --seconds and traced operations for the
other half, prints the per-layer metrics (per operation) and writes every span
to .perfbench_out/. The last line of stdout is one JSON object; the exit code
is nonzero when any operation failed or an output check did not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Matrices here are at most 6000x48: BLAS or OpenMP threads would only
# measure the scheduler of a small shared host.
THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k) for k in THREAD_CAPS},
    }


# Reported times are in reference seconds: wall time scaled by the host speed
# measured next to it, REFERENCE_CAL_S / (calibration loop time). The constant
# is a round figure near the loop's time on an idle core of the 2-core x86-64
# host the benchmark was defined on; it fixes the scale and nothing else.
REFERENCE_CAL_S = 1.3e-3
SAMPLE_PERIOD_S = 0.05


def calibration_seconds() -> float:
    """Wall time of a fixed loop with the package's mix of work: small
    matmuls, batch-norm and Adam-like ufunc chains on 32x48 arrays, and
    dict/sort interpreter work."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, w = rng.standard_normal((32, 48)), rng.standard_normal((48, 48))
    x, m, v = a.copy(), np.zeros_like(a), np.zeros_like(a)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(30):
        acc += float(np.maximum(a @ w, 0.0).sum())
        acc += sum(sorted({i: 2 * i for i in range(20)}.values()))
        xh = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + 1e-5)
        m *= 0.9
        m += 0.1 * xh
        v *= 0.999
        v += 0.001 * (xh * xh)
        x -= 1e-3 * m / (np.sqrt(v) + 1e-8)
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration samples taken before, during and after one timed block.

    With a `period`, a SIGALRM handler also runs the calibration loop every
    `period` seconds, so a long block is scaled by the host speed over its
    whole length, not only at its ends. The handler runs between bytecodes of
    the main thread; `spent` is its time, which is not the block's.
    """

    def __init__(self, period: float | None = None):
        self.period = period

    def __enter__(self) -> "HostSpeed":
        self.samples = [calibration_seconds()]
        self.spent = 0.0
        if self.period:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self.t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibration_seconds())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0 - self.spent
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibration_seconds())
        # median host speed over the samples: robust to one calibration
        # being preempted, and ticks are evenly spaced in time
        self.factor = statistics.median(REFERENCE_CAL_S / c for c in self.samples)

    @property
    def reference(self) -> float:
        """The block's time in reference seconds."""
        return self.wall * self.factor


def timed_ops(workload, seconds, min_ops, first, tracer=None):
    """Closed loop: op i+1 starts after op i and its checks are done.

    Returns (wall seconds per op, reference seconds per op, attempted,
    failed, next op index). An exception or a failed check fails the
    operation, not the run. Traced ops are scaled by samples taken around
    them only, so no calibration time lands inside a span.
    """
    walls, refs, attempted, failed = [], [], 0, 0
    i = first
    deadline = time.perf_counter() + seconds
    while i - first < min_ops or time.perf_counter() < deadline:
        attempted += workload.ops_per_op
        try:
            if tracer is not None:
                tracer.op = i
                tracer.install()
            try:
                period = SAMPLE_PERIOD_S if workload.long_ops and tracer is None else None
                with HostSpeed(period) as speed:
                    result = workload.op(i)
            finally:
                if tracer is not None:
                    tracer.restore()
            problems = workload.check(i, result, speed.factor)
        except Exception as e:  # a failing op is counted, and the loop goes on
            problems = [f"op {i}: {type(e).__name__}: {e}"] * workload.ops_per_op
        else:
            walls.append(speed.wall)
            refs.append(speed.reference)
            workload.op_ref_s.append(speed.reference)
        for problem in problems:
            print(f"FAILED {workload.name} op {i}: {problem}", file=sys.stderr)
        failed += len(problems)
        i += 1
    if not walls:
        raise RuntimeError(f"{workload.name}: no operation succeeded")
    return walls, refs, attempted, failed, i


def timed_setup(workload, repeats):
    """Median wall and reference seconds of `repeats` set-ups, and a problem
    if they did not all build the same inputs."""
    walls, refs, outputs = [], [], []
    for _ in range(repeats):
        with HostSpeed(SAMPLE_PERIOD_S) as speed:
            outputs.append(workload.setup())
        walls.append(speed.wall)
        refs.append(speed.reference)
    problems = [] if all(o == outputs[0] for o in outputs) else ["set-up is not reproducible"]
    return statistics.median(walls), statistics.median(refs), problems


def run_untraced(workload, seconds):
    setup_wall, setup_ref, problems = timed_setup(workload, workload.setup_repeats)
    walls, refs, attempted, failed, _ = timed_ops(workload, seconds, workload.min_ops, 0)
    failed += len(problems)
    holdout, target = workload.accuracies()
    metrics = {
        "setup_s": (setup_ref, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_ms_p50": (statistics.median(refs) * 1e3, "ms"),
        "holdout_accuracy": (holdout, "fraction"),
        "target_accuracy": (target, "fraction"),
    }
    extra = [
        ("wall.setup_s", setup_wall, "s"),
        ("wall.op_ms_p50", statistics.median(walls) * 1e3, "ms"),
        *workload.report(),
    ]
    print(f"{workload.name}: {len(walls)} timed ops ({attempted} operations), "
          f"median of {workload.setup_repeats} set-ups")
    return metrics, extra, attempted, failed


def run_traced(workload, seconds, seed):
    from layers import per_layer_metrics, targets
    from tracer import Tracer

    import numpy as np

    _, _, problems = timed_setup(workload, 1)
    _, plain, attempted, failed, nxt = timed_ops(workload, seconds / 2, 1, 0)
    tracer = Tracer(targets())
    _, traced, a2, f2, _ = timed_ops(workload, seconds / 2, 1, nxt, tracer)
    attempted += a2
    failed += f2 + len(problems)
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics = per_layer_metrics(tracer, len(traced), overhead)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"trace_{workload.name}_seed{seed}"
    np.savez(f"{stem}.npz", names=np.asarray(tracer.names), **tracer.arrays())
    with open(f"{stem}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "traced_ops": len(traced),
                   "untraced_ops": len(plain), "spans": len(tracer.span_start),
                   "env": environment(), "metrics": {k: v for k, (v, _) in metrics.items()}},
                  fh, indent=1, sort_keys=True)
    print(f"{workload.name}: {len(plain)} untraced and {len(traced)} traced ops, "
          f"{len(tracer.span_start)} spans in {stem}.npz")
    return metrics, [], attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    for key in THREAD_CAPS:
        os.environ[key] = "1"
    if not (ROOT / "src" / "marginadapt" / "__init__.py").is_file():
        print(f"error: no marginadapt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, str(workdir))
    print("env:", json.dumps(environment(), sort_keys=True))
    try:
        if args.trace:
            metrics, extra, attempted, failed = run_traced(workload, args.seconds, args.seed)
        else:
            metrics, extra, attempted, failed = run_untraced(workload, args.seconds)
    finally:
        workload.close()
    for name, (value, unit) in [*metrics.items(), *[(n, (v, u)) for n, v, u in extra]]:
        print(f"{name:<44} {value:>14.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
