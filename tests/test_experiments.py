import math
import time

import numpy as np
import pytest

from bellbounds import (
    InvariantViolation,
    covariance_inequality,
    expectation,
    experiments,
    ghz_state,
    mk,
    observables,
    svetlichny,
)
from bellbounds.experiments import (
    SWEEP_CSV_HEADER,
    HarnessReport,
    OptimizerConfig,
    SweepConfig,
    SweepRow,
    _scenario_from_params,
    _setting_rows,
    _tensor_value,
    figure_sweep,
    maximize_violation,
    nelder_mead,
    verify_bounds_random,
    write_sweep_csv,
)
from bellbounds.linalg import pauli_tensor
from bellbounds.rng import SplitMix64

from oracles import (
    dense_realize,
    fig1_party1_bound,
    fig1_value,
    fig2_bound,
    fig2_value,
    fig3_pair12_bound,
    fig3_value,
    poly_ghz_value,
    random_states,
)

ROOT2 = math.sqrt(2.0)
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def coefficient_weight(poly) -> float:
    return float(sum(abs(c) for c in poly.terms.values()))


def ghz_tensor_tol(poly) -> float:
    """Bound on |tensor-route value - cos-sum value| on GHZ_N, planar rows.

    u = eps / 2.  Each Pauli tensor entry is one complex dot product of two
    unit vectors with 2**N entries (the Pauli strings only rephase and
    permute psi, exactly): off by (2**N + 2) u, with |T[k]| <= 1.  Planar
    rows carry 3 u per entry and have 1-norm <= sqrt 2, so
    sum_k prod_p |n_p[k_p]| <= 2**(N/2); the N contraction steps add 3N
    roundings per term, and the final dot over the 2**N setting words adds
    2**N u per unit of sum|c| (each correlator has modulus <= 1).  The fsum
    oracle is off by (2 pi N + 2) u per term (angles in [0, 2 pi)).
    """
    n = poly.n_parties
    per_unit = (2**n + 2 + 6 * n) * 2 ** (n / 2) + 2**n + 2 * math.pi * n + 2
    return per_unit * UNIT_ROUNDOFF * coefficient_weight(poly)


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
        sample = [rng.normal() for _ in range(20000)]
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

    def test_seed_42_margins_are_pinned(self, monkeypatch):
        # Swapping two block draws keeps the stream position, so only the
        # covariance draws move, and their reported worst slack is pinned at
        # 0 by draws with B_i = B_j.  The slacks of the other draws are
        # recorded as well, so the test sees every draw's place in the order,
        # and the report's worst over those draws must be their minimum.
        distinct = []

        def recording(state, first, second, other):
            records = covariance_inequality(state, first, second, other)
            if [obs.setting for obs in first] != [obs.setting for obs in second]:
                distinct.extend(record.slack for record in records)
            return records

        monkeypatch.setattr(experiments, "covariance_inequality", recording)
        report = verify_bounds_random(42, 200, 2, 5)
        assert (report.trials, report.violations) == (200, 0)
        pinned = {
            "worst_slack_svetlichny": 0.4261504485157084,
            "worst_slack_mk": 0.8213839221517241,
            "worst_slack_covariance": 0.0,
            "worst_slack_covariance_distinct": 0.010335360546662425,
            "worst_psd_eigen": 2.808433992669277e-06,
        }
        for name, value in pinned.items():
            assert getattr(report, name) == value, name
        assert len(distinct) == 514
        assert min(distinct) == 0.010335360546662425
        assert report.worst_slack_covariance_distinct == min(distinct)

    def test_each_witness_replays_its_margin_alone(self):
        # the stream state S_t at a worst trial's first draw, with N fixed
        # to that trial's, reruns exactly that trial
        report = verify_bounds_random(42, 200, 2, 5)
        fields = {
            "svetlichny": "worst_slack_svetlichny",
            "mk": "worst_slack_mk",
            "covariance": "worst_slack_covariance",
            "covariance_distinct": "worst_slack_covariance_distinct",
            "psd": "worst_psd_eigen",
        }
        assert set(report.witnesses) == set(fields)
        for check, (trial, n, seed) in report.witnesses.items():
            assert n == 2 + trial % 4
            replay = verify_bounds_random(seed, 1, n, n)
            assert getattr(replay, fields[check]) == getattr(report, fields[check]), check

    def test_no_normal_is_cached_at_a_trial_start(self, monkeypatch):
        # otherwise S_t alone would not fix the trial's draws
        spares = []
        draw = experiments._random_state

        def checking(rng, n_parties):
            spares.append(rng._spare)
            return draw(rng, n_parties)

        monkeypatch.setattr(experiments, "_random_state", checking)
        verify_bounds_random(5, 300, 2, 6)
        assert spares == [None] * 300

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

    @pytest.mark.parametrize(
        "tol,max_evals,point,value,evals,converged",
        [
            # the budget runs out inside the initial simplex
            (1e-300, 2, [0.5, 0.0], 1.75, 2, False),
            # at the top of the loop
            (1e-300, 40, [1.5026443749666214, -0.4998331107199192], 7.076275059511583e-06, 40, False),
            # after the first of the two vertices of a shrink
            (1e-300, 240, [1.5, -0.5], 0.0, 240, False),
            # converged
            (1e-12, 5000, [1.5000000000000746, -0.5000000000002249], 1.573483162190658e-25, 182, True),
        ],
    )
    def test_exits_are_pinned(self, tol, max_evals, point, value, evals, converged):
        x, fx, used, done = nelder_mead(bowl, np.zeros(2), tol=tol, max_evals=max_evals)
        assert x.tolist() == point
        assert type(fx) is float and fx == value
        assert (used, done) == (evals, converged)

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

    @pytest.mark.parametrize("family", ["planar", "bloch"])
    @pytest.mark.parametrize("objective", ["max-svetlichny", "max-mk"])
    def test_operator_objectives_stay_off_the_dense_path(self, monkeypatch, objective, family):
        def dense(*args):
            raise AssertionError("the dense route ran")

        monkeypatch.setattr(experiments, "realize", dense)
        monkeypatch.setattr(experiments, "expectation", dense)
        validations = []
        validate = observables.validate_dichotomic

        def counted(matrix):
            validations.append(1)
            return validate(matrix)

        monkeypatch.setattr(observables, "validate_dichotomic", counted)
        config = OptimizerConfig(
            n_parties=3, objective=objective, family=family, multistarts=2, max_evals=300
        )
        result = maximize_violation(config)
        assert result.evals >= 2 * (len(result.angles) + 1)
        # one scenario, built for the returned angles
        assert len(validations) == 2 * 3

    def test_twelve_parties_within_budget(self):
        # The budget is 10 s.  Through realize and expectation one N = 12
        # evaluation took about 1.2 s (one core of a 2-core Intel Xeon), so
        # 50 of them took about a minute; the tensor route computes the
        # Pauli tensor once (under 1 s) and then takes about 2 ms per
        # evaluation.
        start = time.perf_counter()
        result = maximize_violation(OptimizerConfig(n_parties=12, multistarts=1, max_evals=50))
        assert time.perf_counter() - start < 10.0
        assert result.evals == 50 and result.angles.shape == (24,)
        poly = svetlichny(12, "-")
        reached = abs(poly_ghz_value(poly, _scenario_from_params(result.angles, 12, "planar")))
        assert abs(result.value - reached) <= ghz_tensor_tol(poly)

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


class TestTensorObjective:
    @pytest.mark.parametrize("family", ["planar", "bloch"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_dense_route(self, n, family):
        # u = eps / 2; the rows are unit vectors, |T[k]| <= 1 and every
        # correlator has modulus <= 1, so sum_k prod_p |n_p[k_p]| <= 3**(N/2)
        # <= 2**N.  Tensor route, per unit of sum|c|: T entries off by
        # (2**N + 2) u (see ghz_tensor_tol), row entries by 3 u and the N
        # contraction steps by 3N roundings per term, then 2**N u for the
        # final dot: at most (2**N + 3 + 6N) 2**N u.  Dense route: the oracle
        # matrix is off by 4 N u per entry (TestRealize in
        # test_polynomials.py), and <psi|O|psi> sums 4**N products with
        # sum_ij |psi_i psi_j| <= 2**N: at most (4N + 2**(N+1) + 4) 2**N u.
        # Together (3 2**N + 10N + 7) 2**N u.
        per_unit = (3 * 2**n + 10 * n + 7) * 2**n * UNIT_ROUNDOFF
        gen = np.random.default_rng(6600 + n)
        params = gen.uniform(0.0, 2.0 * math.pi, (2 if family == "planar" else 4) * n)
        rows = _setting_rows(params, n, family)
        assert np.allclose(np.linalg.norm(rows, axis=2), 1.0, rtol=0.0, atol=4 * UNIT_ROUNDOFF)
        scenario = _scenario_from_params(params, n, family)
        for state in (ghz_state(n), random_states(6700 + n, n)[0]):
            tensor = pauli_tensor(state)
            for poly in (svetlichny(n, "-"), svetlichny(n, "+"), mk(n)):
                got = _tensor_value(tensor, poly.table, rows)
                want = expectation(state, dense_realize(poly, scenario))
                assert abs(got - want) <= per_unit * coefficient_weight(poly), (state, poly)

    @pytest.mark.parametrize("n", range(7, 13))
    def test_matches_ghz_closed_form(self, n):
        gen = np.random.default_rng(6800 + n)
        params = gen.uniform(0.0, 2.0 * math.pi, 2 * n)
        rows = _setting_rows(params, n, "planar")
        scenario = _scenario_from_params(params, n, "planar")
        tensor = pauli_tensor(ghz_state(n))
        for poly in (svetlichny(n, "-"), mk(n)):
            got = _tensor_value(tensor, poly.table, rows)
            assert abs(got - poly_ghz_value(poly, scenario)) <= ghz_tensor_tol(poly)
