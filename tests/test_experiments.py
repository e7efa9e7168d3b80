import math
import time

import numpy as np
import pytest

from bellbounds import (
    InvariantViolation,
    best_svetlichny_bound,
    covariance_inequality,
    expectation,
    experiments,
    ghz_state,
    mk,
    svetlichny,
)
from bellbounds.experiments import (
    LIVE_SEARCHES,
    SWEEP_CSV_HEADER,
    _SEARCH_SEED,
    HarnessReport,
    OptimizerConfig,
    SweepConfig,
    SweepRow,
    _objective,
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

from blas_kernel import kernel_pins
from oracles import (
    dense_realize,
    fig1_party1_bound,
    fig1_value,
    fig2_bound,
    fig2_value,
    fig3_pair12_bound,
    fig3_value,
    point_setting_rows,
    point_tensor_value,
    poly_ghz_value,
    random_states,
    scalar_nelder_mead,
    scalar_normal,
    slot_by_slot_bloch,
    triple_loop_directions,
)

ROOT2 = math.sqrt(2.0)
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0

# The margins of verify_bounds_random(42, 200, 2, 5) per OpenBLAS kernel,
# measured as the pins in test_cli.py were.
_SEED_42_COMMON = {"worst_slack_svetlichny": 0.4261504485157084, "worst_slack_covariance": 0.0}
HARNESS_MARGIN_PINS = {
    "SkylakeX": {
        **_SEED_42_COMMON,
        "worst_slack_mk": 0.8213839221517241,
        "worst_slack_covariance_distinct": 0.010335360546662425,
        "worst_psd_eigen": 2.808433992669277e-06,
    },
    "Haswell": {
        **_SEED_42_COMMON,
        "worst_slack_mk": 0.8213839221517241,
        "worst_slack_covariance_distinct": 0.01033536054666884,
        "worst_psd_eigen": 2.808433992667062e-06,
    },
    "Sandybridge": {
        **_SEED_42_COMMON,
        "worst_slack_mk": 0.8213839221517242,
        "worst_slack_covariance_distinct": 0.01033536054666884,
        "worst_psd_eigen": 2.8084339926662254e-06,
    },
    "Katmai": {
        **_SEED_42_COMMON,
        "worst_slack_mk": 0.8213839221517243,
        "worst_slack_covariance_distinct": 0.010335360546668896,
        "worst_psd_eigen": 2.8084339924557937e-06,
    },
}


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

    def test_normals_block_equals_single_draws(self):
        # blocks of odd and even sizes and lone normal() calls, some starting
        # on a pending spare, over more than 10**5 draws, against one
        # Box-Muller draw at a time; the state and spare match after each
        block, single = SplitMix64(2024), SplitMix64(2024)
        sizes = [0, 1, 2, 3, 8, 7, 64, 1, 1, 5, 128, 33] * 100 + [80001]
        drawn = 0
        for index, size in enumerate(sizes):
            if index % 5 == 4:  # a lone draw leaves a spare pending
                lone = block.normal()
                assert type(lone) is float and lone == scalar_normal(single)
                assert (block.state, block._spare) == (single.state, single._spare)
            assert block.normals(size).tolist() == [scalar_normal(single) for _ in range(size)]
            assert (block.state, block._spare) == (single.state, single._spare)
            drawn += size
        assert drawn >= 10**5
        assert block.next_u64() == single.next_u64()

    def test_bloch_draw_skips_a_zero_triple_as_the_triple_loop(self):
        # a stream whose first triple is (0, -0, 0) and whose third squares
        # to 0 (1e-170**2 underflows): the block draw tops up and ends where
        # the triple-by-triple draw ends, with the same directions
        class ListStream:
            def __init__(self, values):
                self.values, self.used = values, 0

            def normal(self):
                self.used += 1
                return self.values[self.used - 1]

            def normals(self, count):
                self.used += count
                return np.array(self.values[self.used - count:self.used])

        tail = np.random.default_rng(77).normal(size=60).tolist()
        values = [0.0, -0.0, 0.0, 0.3, -1.2, 0.5, 1e-170, 0.0, -1e-170] + tail
        for n_parties in (1, 2, 3, 5):
            block, single = ListStream(values), ListStream(values)
            got = experiments._random_scenario_from(block, n_parties, "bloch").locals
            want = slot_by_slot_bloch(triple_loop_directions(single.normal, n_parties))
            assert got.tobytes() == want.tobytes()
            assert block.used == single.used == 3 * (2 * n_parties + 2)

    def test_normals_rejects_a_negative_count(self):
        with pytest.raises(ValueError):
            SplitMix64(1).normals(-1)

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
        pinned = kernel_pins(HARNESS_MARGIN_PINS)
        for name, value in pinned.items():
            assert getattr(report, name) == value, name
        assert len(distinct) == 514
        assert min(distinct) == pinned["worst_slack_covariance_distinct"]
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

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_psd_stack_bound_leaves_the_report_alone(self, monkeypatch, seed):
        # a bound of 1 checks each trial on its own, as one call per trial
        # did; any other bound must give the same report, witnesses included
        stacks = []
        jacobi = experiments.jacobi_eigenvalues

        def recording(matrices):
            stacks.append(len(matrices))
            return jacobi(matrices)

        monkeypatch.setattr(experiments, "jacobi_eigenvalues", recording)
        reports = {}
        for bound in (1, 3, experiments.PSD_STACK):
            monkeypatch.setattr(experiments, "PSD_STACK", bound)
            stacks.clear()
            reports[bound] = verify_bounds_random(seed, 60, 2, 6)
            assert sum(stacks) == 60 and max(stacks) <= bound
        first = reports.pop(1)
        assert set(first.witnesses) >= {"svetlichny", "mk", "covariance", "psd"}
        for report in reports.values():
            assert report == first
            for check in ("svetlichny", "mk", "psd"):
                assert report.witnesses[check] == first.witnesses[check], check

    def test_tied_psd_margins_go_to_the_first_trial(self, monkeypatch):
        # A stack takes its pure states before its mixed ones, so with a
        # mixed state first, later trials reach the fold before trial 0.
        seed = next(s for s in range(100) if SplitMix64(s).uniform() < 0.25)
        monkeypatch.setattr(experiments, "jacobi_eigenvalues", lambda c: np.zeros(c.shape[:2]))
        report = verify_bounds_random(seed, 20, 2, 2)
        assert report.worst_psd_eigen == 0.0
        assert report.witnesses["psd"] == (0, 2, seed)

    def test_tied_bound_margins_go_to_the_first_trial(self, monkeypatch):
        # Every N = 3 trial gets eta = chi+- = 0 and |value| = 0, so every
        # svetlichny margin is 4 sqrt(2) and every mk margin 2 sqrt(2).  With
        # a mixed state first, the later pure trials of its stack reach the
        # fold before trial 0.
        seed = next(s for s in range(100) if SplitMix64(s).uniform() < 0.25)
        monkeypatch.setattr(experiments, "expectation", lambda state, operator: 0.0)
        monkeypatch.setattr(experiments, "_etas", lambda kind, states, locals_: np.zeros(locals_.shape[:2]))
        monkeypatch.setattr(
            experiments, "_chis", lambda locals_, marginals, pairs: np.zeros(marginals.shape[:2] + (2,))
        )
        report = verify_bounds_random(seed, 20, 3, 3)
        assert report.worst_slack_svetlichny == 4.0 * math.sqrt(2.0)
        assert report.worst_slack_mk == 2.0 * math.sqrt(2.0)
        assert report.witnesses["svetlichny"] == report.witnesses["mk"] == (0, 3, seed)

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


def bowls(x: np.ndarray) -> np.ndarray:
    """``bowl`` of each row of a (B, 2) stack."""
    return (x[:, 0] - 1.5) ** 2 + 3.0 * (x[:, 1] + 0.5) ** 2


# Each search runs the library's lockstep driver on the batched bowl, and
# the scalar reference on the one-point bowl: the two must agree exactly.
SEARCHES = {
    "lockstep": lambda start, tol, max_evals: nelder_mead(bowls, [start], tol, max_evals)[0],
    "scalar": lambda start, tol, max_evals: scalar_nelder_mead(bowl, start, tol, max_evals),
}


class TestNelderMead:
    def test_minimizes_quadratic(self):
        for name, search in SEARCHES.items():
            x, fx, evals, converged = search(np.zeros(2), tol=1e-12, max_evals=5000)
            assert converged, name
            assert fx < 1e-10
            assert abs(x[0] - 1.5) < 1e-5
            assert abs(x[1] + 0.5) < 1e-5
            assert evals <= 5000

    def test_budget_exhaustion_reported(self):
        for name, search in SEARCHES.items():
            x, fx, evals, converged = search(np.zeros(2), tol=1e-300, max_evals=40)
            assert not converged, name
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
        for name, search in SEARCHES.items():
            x, fx, used, done = search(np.zeros(2), tol=tol, max_evals=max_evals)
            assert x.tolist() == point, name
            assert type(fx) is float and fx == value, name
            assert (used, done) == (evals, converged), name

    def test_handles_one_dimension(self):
        runs = (
            nelder_mead(lambda v: (v[:, 0] - 2.0) ** 2, [np.zeros(1)], 1e-12, 2000)[0],
            scalar_nelder_mead(lambda v: float((v[0] - 2.0) ** 2), np.zeros(1), 1e-12, 2000),
        )
        for x, fx, _, converged in runs:
            assert converged
            assert abs(x[0] - 2.0) < 1e-5

    def test_live_searches_are_bounded(self):
        # 50 starts: at most LIVE_SEARCHES points per call, and a start is
        # read only when a search ends, never all of them up front.
        pulled = []
        batches = []

        def starts():
            for index in range(50):
                pulled.append(index)
                yield np.full(2, 0.1 * index)

        def objective(batch):
            batches.append((len(batch), len(pulled)))
            return bowls(batch)

        results = nelder_mead(objective, starts(), 1e-9, 300)
        assert len(results) == len(pulled) == 50
        assert max(size for size, _ in batches) == LIVE_SEARCHES
        assert batches[0] == (LIVE_SEARCHES, LIVE_SEARCHES)
        for index, (point, value, evals, converged) in enumerate(results):
            want = scalar_nelder_mead(bowl, np.full(2, 0.1 * index), 1e-9, 300)
            assert (point.tolist(), value, evals, converged) == (want[0].tolist(), *want[1:])

    def test_no_starts_give_no_results(self):
        assert nelder_mead(bowls, [], 1e-9, 100) == []

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_length_objective_raises(self, extra):
        # One value too few or too many per round: no search may be lost.
        def objective(batch):
            return np.resize(bowls(batch), len(batch) + extra)

        with pytest.raises(ValueError):
            nelder_mead(objective, [np.zeros(2)] * 3, 1e-9, 100)


def scalar_objective(config: OptimizerConfig):
    """The one-point minimand that ``maximize_violation`` searched before its
    searches went into lockstep, from the one-point references."""
    n, family = config.n_parties, config.family
    state = ghz_state(n)
    if config.objective == "max-gap":

        def gap(params):
            report = best_svetlichny_bound(_scenario_from_params(params, n, family), state)
            return -(report.known_tsirelson - report.value)

        return gap
    poly = svetlichny(n, "-") if config.objective == "max-svetlichny" else mk(n)
    tensor = pauli_tensor(state)
    return lambda params: -abs(
        point_tensor_value(tensor, poly.table, point_setting_rows(params, n, family))
    )


def assert_same_searches(got, starts, objective, tol, max_evals, exits=None):
    """Each lockstep result equals the scalar run from its start, bit for bit."""
    assert len(got) == len(starts)
    for index, (start, result) in enumerate(zip(starts, got)):
        point, value, evals, converged = scalar_nelder_mead(
            objective, start, tol, max_evals, exits
        )
        assert result[0].tolist() == point.tolist(), index
        assert type(result[1]) is float and result[1] == value, index
        assert result[2:] == (evals, converged), index


class TestLockstepMatchesScalar:
    """The lockstep searches take the scalar reference's trajectory, start
    by start: the same point, value, evaluation count and converged flag,
    with more starts than ``LIVE_SEARCHES`` and with one."""

    def test_every_exit_on_the_bowl(self):
        gen = np.random.default_rng(6900)
        starts = [np.zeros(2), *gen.uniform(-3.0, 3.0, (LIVE_SEARCHES + 2, 2))]
        exits = []
        for tol, budgets in ((1e-300, (1, 2, 3, 40, 239, 240, 241)), (1e-12, (5000,))):
            for max_evals in budgets:
                for count in (1, len(starts)):
                    got = nelder_mead(bowls, starts[:count], tol, max_evals)
                    assert_same_searches(got, starts[:count], bowl, tol, max_evals, exits)
        assert set(exits) == {"simplex", "top", "shrink", "converged"}

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("family", ["planar", "bloch"])
    @pytest.mark.parametrize("objective", ["max-svetlichny", "max-mk", "max-gap"])
    def test_objectives(self, objective, family, n):
        config = OptimizerConfig(n_parties=n, objective=objective, family=family)
        batched, scalar = _objective(config), scalar_objective(config)
        dims = (2 if family == "planar" else 4) * n
        starts = list(np.random.default_rng(7000 + n).uniform(0.0, 2 * math.pi, (9, dims)))
        # a budget that ends inside the initial simplex, two that end
        # mid-search, and one of 120 evaluations per start
        for max_evals in (dims - 1, 2 * dims + 1, 4 * dims + 3, 120):
            got = nelder_mead(batched, starts, 1e-9, max_evals)
            assert_same_searches(got, starts, scalar, 1e-9, max_evals)
        got = nelder_mead(batched, starts[:1], 1e-9, 120)
        assert_same_searches(got, starts[:1], scalar, 1e-9, 120)

    @pytest.mark.parametrize("multistarts", [1, LIVE_SEARCHES + 3])
    def test_maximize_violation(self, multistarts):
        config = OptimizerConfig(n_parties=3, multistarts=multistarts, max_evals=600 * multistarts)
        result = maximize_violation(config)
        rng = SplitMix64(_SEARCH_SEED)
        objective = scalar_objective(config)
        runs = []
        for _ in range(multistarts):
            start = np.array([2.0 * math.pi * rng.uniform() for _ in range(6)])
            runs.append(scalar_nelder_mead(objective, start, config.tol, 600))
        assert result.starts == tuple((-value, used, done) for _, value, used, done in runs)
        best = min(runs, key=lambda run: run[1])
        assert result.angles.tolist() == best[0].tolist()
        assert (result.value, result.converged) == (-best[1], best[3])
        assert result.evals == sum(run[2] for run in runs)


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
        builds = []

        def counted(params, n_parties, family):
            builds.append((n_parties, family))
            return _scenario_from_params(params, n_parties, family)

        monkeypatch.setattr(experiments, "_scenario_from_params", counted)
        config = OptimizerConfig(
            n_parties=3, objective=objective, family=family, multistarts=2, max_evals=300
        )
        result = maximize_violation(config)
        assert result.evals >= 2 * (len(result.angles) + 1)
        # one scenario, built for the returned angles
        assert builds == [(3, family)]

    @pytest.mark.parametrize("family", ["planar", "bloch"])
    def test_max_gap_scores_a_round_in_one_pass(self, monkeypatch, family):
        def per_point(*args):
            raise AssertionError("max-gap scored a point on its own")

        calls = {"rounds": 0, "scenarios": 0, "etas": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        search = experiments.nelder_mead
        monkeypatch.setattr(experiments, "best_svetlichny_bound", per_point)
        monkeypatch.setattr(
            experiments, "_scenario_from_params", counted("scenarios", _scenario_from_params)
        )
        monkeypatch.setattr(experiments, "_etas", counted("etas", experiments._etas))
        monkeypatch.setattr(
            experiments,
            "nelder_mead",
            lambda objective, *args, **kwargs: search(counted("rounds", objective), *args, **kwargs),
        )
        config = OptimizerConfig(
            n_parties=3, objective="max-gap", family=family, multistarts=2, max_evals=300
        )
        result = maximize_violation(config)
        assert result.evals >= 2 * (len(result.angles) + 1) and calls["rounds"] > 1
        # one scenario and one stacked eta call per round, one scenario for
        # the returned angles
        assert calls["etas"] == calls["rounds"]
        assert calls["scenarios"] == calls["rounds"] + 1

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
    """The batched rows and values of 3 points at once, each held to the
    dense route and to the one-point reference, which must agree with it
    bit for bit (the lockstep search's results rest on that)."""

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
        batch = gen.uniform(0.0, 2.0 * math.pi, (3, (2 if family == "planar" else 4) * n))
        rows = _setting_rows(batch, n, family)
        assert rows.shape == (3, n, 2, 3)
        assert np.allclose(np.linalg.norm(rows, axis=3), 1.0, rtol=0.0, atol=4 * UNIT_ROUNDOFF)
        for point, point_rows in zip(batch, rows):
            assert point_rows.tolist() == point_setting_rows(point, n, family).tolist()
        scenarios = [_scenario_from_params(point, n, family) for point in batch]
        for state in (ghz_state(n), random_states(6700 + n, n)[0]):
            tensor = pauli_tensor(state)
            for poly in (svetlichny(n, "-"), svetlichny(n, "+"), mk(n)):
                got = _tensor_value(tensor, poly.table, rows)
                assert got.shape == (3,)
                for value, point_rows, scenario in zip(got.tolist(), rows, scenarios):
                    reference = point_tensor_value(tensor, poly.table, point_rows)
                    assert value == reference, (state, poly)
                    want = expectation(state, dense_realize(poly, scenario))
                    assert abs(value - want) <= per_unit * coefficient_weight(poly), (state, poly)

    @pytest.mark.parametrize("n", range(7, 13))
    def test_matches_ghz_closed_form(self, n):
        gen = np.random.default_rng(6800 + n)
        batch = gen.uniform(0.0, 2.0 * math.pi, (2, 2 * n))
        rows = _setting_rows(batch, n, "planar")
        tensor = pauli_tensor(ghz_state(n))
        for poly in (svetlichny(n, "-"), mk(n)):
            got = _tensor_value(tensor, poly.table, rows)
            for value, point, point_rows in zip(got.tolist(), batch, rows):
                assert value == point_tensor_value(tensor, poly.table, point_rows)
                scenario = _scenario_from_params(point, n, "planar")
                assert abs(value - poly_ghz_value(poly, scenario)) <= ghz_tensor_tol(poly)
