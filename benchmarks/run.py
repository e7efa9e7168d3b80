"""Benchmark of the bellbounds CLI verbs, end to end and per layer.

Usage, from the root of a bellbounds checkout:

    python3 benchmarks/run.py --workload harness --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): ``harness`` (verify), ``optimize`` (optimize
--n 3 and 4) and ``large_n`` (bounds at N = 9).  Each is a closed loop in one
process: every op starts after the previous one ends, round-robin over the
workload's distinct ops, until the next op would end past ``--seconds``
(at least one full round always runs).

Set-up (a fresh import of ``src/bellbounds`` and the workload's ``prepare``)
is timed once before the loop and again between ops, whenever set-up has
had less than SETUP_SHARE of the loop's time so far, so that its median
samples the same stretch of the run as the ops do.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first measures
untraced for half the time, then installs the span wrappers of spans.py for
exactly one round, so the per-layer counts depend on the inputs alone; it
reports the per-layer metrics and the tracing overhead, and writes the spans
to ``.bench_build/benchmarks/spans-<workload>.npz``.

Stdout carries an environment block, one line per metric with its unit, and
last a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin the BLAS pool before numpy loads: with OpenBLAS's default threads a
# dense N >= 6 call flips between a threaded and a serial time mid-run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, load_oracles  # noqa: E402

# Set-up's share of the op loop's time (see the module docstring).
SETUP_SHARE = 0.1
REQUIRED = ("src/bellbounds/__init__.py", "tests/oracles.py")
OUT_DIR = ROOT / ".bench_build" / "benchmarks"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "time_to_solution_s": "s",
    "peak_rss_mb": "MB",
}
# Named per layer in BENCHMARK.json; zero where a workload bypasses the layer.
# Every span name has a self time, so together they cover the traced wall time.
PER_LAYER_COUNTS = (
    "polynomials.realize",
    "linalg.kron_chain",
    "linalg.expectation",
    "bounds.chi",
    "bounds.eta",
    "bounds.covariance_inequality",
    "linalg.jacobi_eigenvalues",
    "rng.next_u64",
    "observables.embed_local",
    "observables.validate_dichotomic",
    "experiments.objective",
)
PER_LAYER_SELF = tuple(dict.fromkeys(name for _, _, name in spans.SPANS)) + (
    spans.OBJECTIVE_SPAN,
)


def fresh_import():
    """Import bellbounds from this checkout's src/ as if for the first time."""
    for name in [m for m in sys.modules if m == "bellbounds" or m.startswith("bellbounds.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    package = importlib.import_module("bellbounds")
    importlib.import_module("bellbounds.cli")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"bellbounds resolved to {package.__file__}, outside {src}")
    return package


def git_sha() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
    }


class Runner:
    """Runs a prepared workload's ops and keeps one sample per op run."""

    def __init__(self, workload):
        self.workload = workload
        self.samples = []  # (op, seconds, work, failure reason or None)

    def call(self, op):
        cli = sys.modules["bellbounds.cli"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(op.argv))
        except Exception:  # a crashing op is a failed op; the run goes on
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        work, reason = self.workload.check(op, code, out.getvalue())
        if reason is not None:
            print(f"op {op.name} failed: {reason}\n{err.getvalue()}", file=sys.stderr)
        self.samples.append((op, seconds, work, reason))
        return seconds

    def loop(self, seconds: float, between=None) -> list:
        """Round-robin until the next op would end past the deadline.

        ``between(elapsed)`` runs before each op, in the loop's time.
        """
        first = len(self.samples)
        last = {}
        start = time.perf_counter()
        rounds = 0
        while True:
            for op in self.workload.ops:
                if between is not None:
                    between(time.perf_counter() - start)
                elapsed = time.perf_counter() - start
                if rounds and elapsed + last[op.name] > seconds:
                    return self.samples[first:]
                last[op.name] = self.call(op)
            rounds += 1

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if sample[3] is not None)


def op_medians(samples) -> dict:
    """Per distinct op: (median seconds, work, sample count)."""
    grouped = {}
    for op, seconds, work, _ in samples:
        grouped.setdefault(op.name, (op, [], work))[1].append(seconds)
    return {
        name: (op, statistics.median(times), work, len(times))
        for name, (op, times, work) in grouped.items()
    }


def throughput(samples) -> tuple[float, float]:
    """(work per second, seconds per round) from each op's median time."""
    medians = op_medians(samples).values()
    round_s = sum(median for _, median, _, _ in medians)
    return sum(work for _, _, work, _ in medians) / round_s, round_s


def measure(name: str, seed: int, seconds: float, trace: bool, workload=None):
    """Set up, check and time one workload; returns (report, tracer or None)."""
    template = workload or WORKLOADS[name]()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setups = []

    def set_up():
        """A copy of the workload, prepared after a fresh import; timed."""
        prepared = copy.copy(template)
        start = time.perf_counter()
        prepared.prepare(fresh_import(), seed, workdir)
        setups.append(time.perf_counter() - start)
        return prepared

    def set_up_again(elapsed):
        # the same seed rewrites the same input files
        while sum(setups) < SETUP_SHARE * elapsed:
            set_up()

    try:
        workload = set_up()
        workload.expect(load_oracles(ROOT))
        runner = Runner(workload)
        if not trace:
            samples = runner.loop(seconds, between=set_up_again)
            ops_per_s, round_s = throughput(samples)
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": ops_per_s,
                "time_to_solution_s": round_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            return Report(metrics, runner, samples, setups), None
        untraced, _ = throughput(runner.loop(seconds / 2))
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            traced_samples = []
            for op in workload.ops:
                tracer.op_id += 1
                runner.call(op)
                traced_samples.append(runner.samples[-1])
        finally:
            restore()
        traced, _ = throughput(traced_samples)
        metrics = layer_metrics(tracer)
        metrics["trace.ops_per_s"] = traced
        metrics["trace.overhead_ops_per_s"] = untraced - traced
        return Report(metrics, runner, traced_samples, setups), tracer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(tracer) -> dict:
    calls = tracer.calls()
    self_s = tracer.self_times()
    metrics = {f"{layer}.calls": calls.get(layer, 0) for layer in PER_LAYER_COUNTS}
    metrics.update({f"{layer}.self_s": self_s.get(layer, 0.0) for layer in PER_LAYER_SELF})
    return metrics


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("ops_per_s"):
        return "1/s"
    return END_TO_END_UNITS.get(name, "s")


class Report:
    """Metrics of one run; ``samples`` are the op runs they were taken from
    and ``setups`` the set-up times."""

    def __init__(self, metrics, runner, samples, setups):
        self.metrics = metrics
        self.attempted = len(runner.samples)
        self.failed = runner.failed
        self.samples = samples
        self.setups = setups

    def lines(self) -> list[str]:
        out = [
            f"setup: samples={len(self.setups)} median_s={statistics.median(self.setups):.6g} "
            f"min_s={min(self.setups):.6g} max_s={max(self.setups):.6g}"
        ]
        for op, median, work, count in op_medians(self.samples).values():
            times = [s for o, s, _, _ in self.samples if o.name == op.name]
            out.append(
                f"op {op.name}: samples={count} median_s={median:.6g} "
                f"min_s={min(times):.6g} max_s={max(times):.6g} work={work}"
            )
            if op.mixed:
                out.append(f"mixed_ops_per_s = {1.0 / median:.6g} 1/s")
        for key, value in self.metrics.items():
            out.append(f"{key} = {value:.6g} {metric_unit(key)}")
        out.append(f"failed_ops_ratio = {self.failed / self.attempted:.6g} ratio")
        return out

    def result(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                key: {"value": value, "unit": metric_unit(key)}
                for key, value in self.metrics.items()
            },
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"error: {ROOT} is not a bellbounds checkout: no {', '.join(missing)}",
              file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed, bool(args.trace))
    report, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if tracer is not None:
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz", env)
    for key, value in env.items():
        print(f"env {key} = {value}")
    for line in report.lines():
        print(line)
    print(json.dumps(report.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
