import math

import numpy as np
import pytest

from bellbounds import InvariantViolation, experiments
from bellbounds.experiments import (
    SWEEP_CSV_HEADER,
    HarnessReport,
    OptimizerConfig,
    SweepConfig,
    SweepRow,
    figure_sweep,
    maximize_violation,
    nelder_mead,
    verify_bounds_random,
    write_sweep_csv,
)
from bellbounds.rng import SplitMix64

from oracles import (
    fig1_party1_bound,
    fig1_value,
    fig2_bound,
    fig2_value,
    fig3_pair12_bound,
    fig3_value,
)

ROOT2 = math.sqrt(2.0)


class TestSplitMix64:
    def test_canonical_output_stream(self):
        # reference values for the standard splitmix64 finalizer, seed 1234567
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_uniform_is_top_53_bits(self):
        rng = SplitMix64(1234567)
        assert rng.uniform() == (6457827717110365317 >> 11) * 2.0**-53

    def test_uniform_range(self):
        rng = SplitMix64(7)
        draws = [rng.uniform() for _ in range(2000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6

    def test_below_range_and_reach(self):
        rng = SplitMix64(5)
        draws = [rng.below(6) for _ in range(600)]
        assert set(draws) == {0, 1, 2, 3, 4, 5}

    def test_below_validation(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)

    def test_normal_moments(self):
        rng = SplitMix64(31337)
        sample = rng.normals(20000)
        assert abs(float(np.mean(sample))) < 0.03
        assert abs(float(np.std(sample)) - 1.0) < 0.03

    def test_deterministic_restart(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(10)] == [
            b.next_u64() for _ in range(10)
        ]


class TestFigureSweeps:
    def test_fig1_matches_closed_forms(self):
        rows = figure_sweep(SweepConfig(figure="fig1", samples=41))
        assert len(rows) == 41
        for row in rows:
            assert abs(row.operator_value - fig1_value(row.alpha)) < 1e-9
            assert abs(row.refined_bound - fig1_party1_bound(row.alpha)) < 1e-9
            assert abs(row.known_tsirelson - 4.0 * ROOT2) < 1e-12
            assert row.classical_bound == 4.0
            assert row.algebraic_bound == 8.0

    def test_fig2_matches_closed_forms(self):
        rows = figure_sweep(SweepConfig(figure="fig2", samples=41))
        for row in rows:
            assert abs(row.operator_value - fig2_value(row.alpha)) < 1e-9
            assert abs(row.refined_bound - fig2_bound(row.alpha)) < 1e-9

    def test_fig3_matches_closed_forms(self):
        rows = figure_sweep(SweepConfig(figure="fig3", samples=41))
        for row in rows:
            # operator value is signed; the oracle keeps the sign too
            assert abs(row.operator_value - fig3_value(row.alpha)) < 1e-9
            assert abs(row.refined_bound - fig3_pair12_bound(row.alpha)) < 1e-9
            assert abs(row.known_tsirelson - 4.0 * ROOT2) < 1e-12
            assert row.classical_bound == 2.0
            assert row.algebraic_bound == 4.0

    def test_rows_respect_bound(self):
        for figure in ("fig1", "fig2", "fig3"):
            for row in figure_sweep(SweepConfig(figure=figure, samples=31)):
                assert abs(row.operator_value) <= row.refined_bound + 1e-9

    def test_endpoints_honor_requested_window(self):
        rows = figure_sweep(
            SweepConfig(figure="fig1", alpha_start=0.0, alpha_end=1.0, samples=11)
        )
        assert rows[0].alpha == 0.0
        assert rows[-1].alpha == 1.0
        assert abs(rows[5].alpha - 0.5) < 1e-15

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(figure="fig9")
        with pytest.raises(ValueError):
            SweepConfig(figure="fig1", samples=1)
        with pytest.raises(ValueError):
            SweepConfig(figure="fig1", samples=10_000_001)
        with pytest.raises(ValueError):
            SweepConfig(figure="fig1", alpha_start=float("nan"))
        with pytest.raises(ValueError):
            SweepConfig(figure="custom")


class TestSweepCsv:
    def test_golden_bytes(self, tmp_path):
        rows = [
            SweepRow(0.5, 1.25, 2.0, 2.0 * ROOT2, 2.0, 4.0),
            SweepRow(-0.25, -0.125, 1.0, 2.0 * ROOT2, 2.0, 4.0),
        ]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        data = path.read_bytes()
        assert b"\r" not in data
        lines = data.decode("ascii").split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert lines[1] == "0.5,1.25,2,2.82842712474619,2,4"
        assert lines[2] == "-0.25,-0.125,1,2.82842712474619,2,4"
        assert lines[3] == ""

    def test_round_trip_precision(self, tmp_path):
        rows = figure_sweep(SweepConfig(figure="fig3", samples=7))
        path = tmp_path / "fig3.csv"
        write_sweep_csv(rows, path)
        body = path.read_text().strip().split("\n")[1:]
        for row, line in zip(rows, body):
            fields = [float(f) for f in line.split(",")]
            assert abs(fields[0] - row.alpha) < 1e-14
            assert abs(fields[1] - row.operator_value) < 1e-14
            assert abs(fields[2] - row.refined_bound) < 1e-14


class TestVerifyBoundsRandom:
    def test_deterministic(self):
        first = verify_bounds_random(11, 50, 2, 4)
        second = verify_bounds_random(11, 50, 2, 4)
        assert first == second

    def test_small_run_is_sound(self):
        report = verify_bounds_random(1, 200, 2, 4)
        assert isinstance(report, HarnessReport)
        assert report.trials == 200
        assert report.violations == 0
        assert report.worst_slack_svetlichny >= -1e-9
        assert report.worst_slack_covariance >= -1e-9
        assert report.worst_psd_eigen >= -1e-10

    def test_mk_slack_absent_without_odd_n_above_two(self):
        report = verify_bounds_random(3, 30, 2, 2)
        assert report.worst_slack_mk == math.inf

    def test_report_text_shape(self):
        text = verify_bounds_random(2, 20, 2, 3).to_text()
        lines = text.splitlines()
        assert lines[0] == "trials=20"
        assert lines[-1] == "violations=0"
        assert any(line.startswith("worst_slack_svetlichny=") for line in lines)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            verify_bounds_random(1, 0, 2, 4)
        with pytest.raises(ValueError):
            verify_bounds_random(1, 10, 1, 4)
        with pytest.raises(ValueError):
            verify_bounds_random(1, 10, 2, 7)
        with pytest.raises(ValueError):
            verify_bounds_random(1, 10, 4, 2)


def bowl(x: np.ndarray) -> float:
    return float((x[0] - 1.5) ** 2 + 3.0 * (x[1] + 0.5) ** 2)


class TestNelderMead:
    def test_minimizes_quadratic(self):
        x, fx, evals, converged = nelder_mead(
            bowl, np.zeros(2), tol=1e-12, max_evals=5000
        )
        assert converged
        assert fx < 1e-10
        assert abs(x[0] - 1.5) < 1e-5
        assert abs(x[1] + 0.5) < 1e-5
        assert evals <= 5000

    def test_budget_exhaustion_reported(self):
        x, fx, evals, converged = nelder_mead(
            bowl, np.zeros(2), tol=1e-300, max_evals=40
        )
        assert not converged
        assert evals <= 40

    def test_handles_one_dimension(self):
        x, fx, _, converged = nelder_mead(
            lambda v: float((v[0] - 2.0) ** 2), np.zeros(1), 1e-12, 2000
        )
        assert converged
        assert abs(x[0] - 2.0) < 1e-5


class TestMaximizeViolation:
    def test_two_party_ceiling(self):
        result = maximize_violation(
            OptimizerConfig(n_parties=2, multistarts=4, max_evals=4000)
        )
        assert result.value >= 2.0 * ROOT2 - 1e-6
        assert result.converged
        assert result.angles.shape == (4,)

    def test_max_gap_never_negative(self):
        result = maximize_violation(
            OptimizerConfig(
                n_parties=3,
                objective="max-gap",
                multistarts=2,
                max_evals=800,
            )
        )
        assert result.value >= -1e-9

    def test_scenario_errors_propagate(self, monkeypatch):
        def broken(params, n_parties, family):
            raise InvariantViolation("injected scenario failure")

        monkeypatch.setattr(experiments, "_scenario_from_params", broken)
        with pytest.raises(InvariantViolation, match="injected"):
            maximize_violation(
                OptimizerConfig(n_parties=2, multistarts=1, max_evals=10)
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(n_parties=1)
        with pytest.raises(ValueError):
            OptimizerConfig(n_parties=2, objective="nonsense")
        with pytest.raises(ValueError):
            OptimizerConfig(n_parties=2, family="spherical")
        with pytest.raises(ValueError):
            OptimizerConfig(n_parties=2, multistarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(n_parties=2, tol=0.0)
