"""Tests of the benchmark itself, on reduced workload sizes.

Run from the repository root:  python3 -m pytest -q benchmarks
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
from workloads import Harness, LargeN, Op, Optimize, correlator_value, planar_locals

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "harness": lambda: Harness(trials=8),
    "optimize": lambda: Optimize(sizes=(2,)),
    "large_n": lambda: LargeN(n=5),
}


def traced(name, seed=7):
    return run.measure(name, seed, 0.0, True, workload=SMALL[name]())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_exact_counters_repeat_across_traced_runs(name):
    first, _ = traced(name)
    second, _ = traced(name)
    counters = [key for key in first.metrics if key.endswith(".calls")]
    assert counters
    assert {k: first.metrics[k] for k in counters} == {k: second.metrics[k] for k in counters}
    assert first.failed == second.failed == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_add_up_to_traced_wall_time(name):
    report, tracer = traced(name)
    wall = sum(seconds for _, seconds, _, _ in report.samples)
    total_self = sum(v for k, v in report.metrics.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(tracer.root_time(), rel=1e-9)
    # the op loop's own timer also covers output capture and the check
    assert total_self <= wall
    assert total_self == pytest.approx(wall, rel=0.05)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_metric_is_emitted(name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        report, _ = run.measure(name, 3, 0.0, trace, workload=SMALL[name]())
        emitted = report.result()["metrics"]
        assert {m["name"]: m["unit"] for m in SPEC[section]} == {
            key: value["unit"] for key, value in emitted.items()
        }
        for value in emitted.values():
            assert math.isfinite(value["value"])


def test_layers_a_workload_exercises_are_nonzero():
    report, _ = traced("harness")
    for key in ("linalg.jacobi_eigenvalues.calls", "bounds.covariance_inequality.calls",
                "rng.next_u64.calls", "polynomials.realize.calls"):
        assert report.metrics[key] > 0
    assert report.metrics["experiments.objective.calls"] == 0
    report, _ = traced("optimize")
    assert report.metrics["experiments.objective.calls"] > 0
    assert report.metrics["bounds.chi.calls"] == report.metrics["bounds.eta.calls"] == 0


def test_install_restores_the_originals():
    run.fresh_import()
    cli = sys.modules["bellbounds.cli"]
    linalg = sys.modules["bellbounds.linalg"]
    before = (cli.run, cli.expectation, linalg.QuantumState.__dict__["pure"])
    restore = spans.install(spans.Tracer())
    assert cli.run is not before[0] and cli.expectation is not before[1]
    restore()
    assert (cli.run, cli.expectation, linalg.QuantumState.__dict__["pure"]) == before


def test_correlator_reference_matches_dense_realize():
    bb = run.fresh_import()
    rng = np.random.default_rng(5)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(3, 2))
    scenario = bb.MeasurementScenario.planar(angles)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    other = rng.normal(size=8) + 1j * rng.normal(size=8)
    other /= np.linalg.norm(other)
    rho = 0.3 * np.outer(amps, amps.conj()) + 0.7 * np.outer(other, other.conj())
    for poly in (bb.mk(3), bb.svetlichny(3, "+")):
        matrix = bb.realize(poly, scenario)
        for state in (bb.QuantumState.pure(amps), bb.QuantumState.mixed(rho)):
            want = bb.expectation(state, matrix)
            got = correlator_value(poly, state.density_matrix(), planar_locals(angles))
            assert got == pytest.approx(want, abs=1e-12)


def test_checks_reject_wrong_output(tmp_path):
    workload = LargeN(n=3)
    workload.prepare(run.fresh_import(), 11, tmp_path)
    workload.expect(run.load_oracles(run.ROOT))
    value, bound = workload.expected["pure_svetlichny"]
    op = workload.ops[1]
    good = f"operator_value={value!r}\nvalue={bound!r}\n"
    assert workload.check(op, 0, good) == (1, None)
    assert workload.check(op, 0, f"operator_value={value + 1e-6!r}\nvalue={bound!r}\n")[1]
    assert workload.check(op, 4, good)[1] == "exit code 4"
    harness = Harness(trials=8)
    harness.prepare(run.fresh_import(), 1, tmp_path)
    assert harness.check(None, 0, "trials=8\nviolations=0\n")[1] is None
    assert harness.check(None, 0, "trials=8\nviolations=0\nx=1\n")[1]
    assert harness.check(None, 1, "trials=8\nviolations=2\n")[1]


def test_a_failed_op_is_counted_and_the_run_goes_on(tmp_path):
    workload = Harness(trials=8)
    workload.prepare(run.fresh_import(), 1, tmp_path)
    workload.ops = [Op("bad", ("verify", "--trials", "0")), workload.ops[0]]
    runner = run.Runner(workload)
    runner.loop(0.0)
    assert [reason for _, _, _, reason in runner.samples] == ["exit code 4", None]
    assert runner.failed == 1


def test_command_prints_result_last():
    out = subprocess.run(
        SPEC["command"] + ["--workload", "harness", "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert any(line.startswith("env blas_threads = 1") for line in out)
    assert any(line.startswith("failed_ops_ratio = 0 ") for line in out)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "harness", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
