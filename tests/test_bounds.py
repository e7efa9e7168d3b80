import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellbounds import (
    BoundReport,
    InvariantViolation,
    MeasurementScenario,
    QuantumState,
    SIGMA_X,
    SIGMA_Y,
    DichotomicObservable,
    anticommutator,
    best_mk_bound,
    best_svetlichny_bound,
    chi,
    classical_pair_report,
    covariance_inequality,
    embed_local,
    eta,
    expectation,
    ghz_state,
    mk,
    mk_bound_classical_pair,
    mk_bound_odd,
    planar_observable,
    random_scenario,
    realize,
    svetlichny,
    svetlichny_bound,
)
from bellbounds.rng import SplitMix64

from oracles import chi_ghz_pair, eta_from_gap, fig1_party1_eta, fig3_pair12_bound

ROOT2 = math.sqrt(2.0)
angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def ghz3_scenario(party1, party2=(0.0, math.pi / 2), party3=(0.0, math.pi / 2)):
    return MeasurementScenario.planar((party1, party2, party3))


class TestEta:
    def test_equal_settings_give_one_exactly(self):
        scenario = ghz3_scenario((0.4, 0.4))
        assert eta(scenario, ghz_state(3), 1) == 1.0

    def test_pi_offset_gives_one_exactly(self):
        scenario = ghz3_scenario((0.0, math.pi))
        assert eta(scenario, ghz_state(3), 1) == 1.0

    def test_orthogonal_settings_give_zero(self):
        scenario = ghz3_scenario((0.3, 0.3 + math.pi / 2))
        assert eta(scenario, ghz_state(3), 1) < 1e-12

    def test_fig1_party_profile(self):
        state = ghz_state(3)
        for alpha in np.linspace(-math.pi, math.pi, 41):
            scenario = ghz3_scenario((float(alpha), math.pi / 4))
            assert abs(
                eta(scenario, state, 1) - fig1_party1_eta(float(alpha))
            ) < 1e-12
            assert eta(scenario, state, 2) < 1e-12
            assert eta(scenario, state, 3) < 1e-12

    @given(angles, angles)
    def test_matches_direct_anticommutator_mean(self, t0, t1):
        # the sum-of-squares route must agree with the literal definition
        scenario = ghz3_scenario((t0, t1))
        state = ghz_state(3)
        direct = expectation(
            state,
            embed_local(
                anticommutator(planar_observable(t0), planar_observable(t1)),
                1,
                3,
            ),
        )
        want = min((0.5 * direct) ** 2, 1.0)
        assert abs(eta(scenario, state, 1) - want) < 1e-12

    @given(angles, angles)
    def test_depends_only_on_setting_gap(self, t0, t1):
        scenario = ghz3_scenario((t0, t1))
        assert abs(
            eta(scenario, ghz_state(3), 1) - eta_from_gap(t0 - t1)
        ) < 1e-12

    def test_party_validation(self):
        scenario = ghz3_scenario((0.0, 1.0))
        with pytest.raises(ValueError):
            eta(scenario, ghz_state(3), 4)


class TestSvetlichnyBound:
    def test_reference_values(self):
        assert abs(svetlichny_bound(3, 0.0) - 4.0 * ROOT2) < 1e-15
        assert svetlichny_bound(3, 1.0) == 4.0
        assert abs(svetlichny_bound(3, 0.75) - 4.0 * math.sqrt(1.5)) < 1e-15

    def test_scales_with_party_count(self):
        assert abs(svetlichny_bound(5, 0.0) - 16.0 * ROOT2) < 1e-14

    def test_monotone_in_eta(self):
        values = [svetlichny_bound(3, e) for e in np.linspace(0.0, 1.0, 101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            svetlichny_bound(1, 0.0)
        with pytest.raises(ValueError):
            svetlichny_bound(3, -0.1)
        with pytest.raises(ValueError):
            svetlichny_bound(3, 1.1)


class TestChi:
    def test_fig3_pair_values(self):
        state = ghz_state(3)
        for alpha in np.linspace(-math.pi, math.pi, 41):
            a = float(alpha)
            scenario = ghz3_scenario((a, -math.pi / 4))
            assert abs(
                chi(scenario, state, 1, 2, "+") + 2.0 * math.sin(a + math.pi / 4)
            ) < 1e-12
            assert abs(
                chi(scenario, state, 1, 2, "-") - 2.0 * math.sin(a + math.pi / 4)
            ) < 1e-12

    @given(angles, angles, angles, angles)
    def test_matches_gap_oracle(self, a0, a1, b0, b1):
        scenario = ghz3_scenario((a0, a1), (b0, b1))
        state = ghz_state(3)
        for sign in ("+", "-"):
            got = chi(scenario, state, 1, 2, sign)
            assert abs(got - chi_ghz_pair(a0 - a1, b0 - b1, sign)) < 1e-12

    @given(angles, angles, angles, angles)
    def test_matches_direct_anticommutator(self, a0, a1, b0, b1):
        scenario = ghz3_scenario((a0, a1), (b0, b1))
        state = ghz_state(3)
        obs = {
            (p, s): embed_local(scenario.observable(p, s).local, p, 3)
            for p in (1, 2) for s in (0, 1)
        }
        for sign, pairing in (
            ("+", ((0, 1), (1, 0))),
            ("-", ((0, 0), (1, 1))),
        ):
            (sa, sb), (sc_, sd) = pairing
            first = obs[1, sa] @ obs[2, sb]
            second = obs[1, sc_] @ obs[2, sd]
            direct = expectation(state, first @ second + second @ first)
            assert abs(chi(scenario, state, 1, 2, sign) - direct) < 1e-12

    def test_identical_observables_hit_two_exactly(self):
        scenario = MeasurementScenario.planar(((0.2, 0.2), (1.0, 1.0), (0.0, 0.0)))
        state = ghz_state(3)
        assert chi(scenario, state, 1, 2, "+") == 2.0
        assert chi(scenario, state, 1, 2, "-") == 2.0

    def test_symmetric_under_pair_swap(self):
        scenario = ghz3_scenario((0.9, -0.4), (0.1, 1.3))
        state = ghz_state(3)
        for sign in ("+", "-"):
            assert abs(
                chi(scenario, state, 1, 2, sign)
                - chi(scenario, state, 2, 1, sign)
            ) < 1e-14

    def test_argument_validation(self):
        scenario = ghz3_scenario((0.0, 1.0))
        state = ghz_state(3)
        with pytest.raises(ValueError):
            chi(scenario, state, 1, 1, "+")
        with pytest.raises(ValueError):
            chi(scenario, state, 1, 2, "x")


class TestMkBoundOdd:
    def test_reference_values(self):
        assert mk_bound_odd(3, 2.0, -2.0) == 4.0
        assert mk_bound_odd(3, -2.0, 2.0) == 0.0
        assert abs(mk_bound_odd(5, 0.0, 0.0) - 8.0 * ROOT2) < 1e-14

    def test_peak_at_uncorrelated_settings(self):
        grid = np.linspace(-2.0, 2.0, 81)
        peak = max(mk_bound_odd(3, float(c), float(c)) for c in grid)
        assert abs(peak - 2.0 * ROOT2) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mk_bound_odd(4, 0.0, 0.0)
        with pytest.raises(ValueError):
            mk_bound_odd(1, 0.0, 0.0)
        with pytest.raises(ValueError):
            mk_bound_odd(3, 2.5, 0.0)
        with pytest.raises(ValueError):
            mk_bound_odd(3, 0.0, -2.5)


class TestMkBoundClassicalPair:
    def test_reference_values(self):
        assert abs(mk_bound_classical_pair(3, 0.0) - 2.0 * ROOT2) < 1e-15
        assert mk_bound_classical_pair(3, 1.0) == 2.0
        assert mk_bound_classical_pair(3, -1.0) == 2.0
        assert abs(mk_bound_classical_pair(5, 0.6) - 10.73312629199899) < 1e-11

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mk_bound_classical_pair(3, 1.5)
        with pytest.raises(ValueError):
            mk_bound_classical_pair(2, 0.0)

    @given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    def test_equals_odd_bound_with_equal_chis(self, c):
        # sqrt(2+c) + sqrt(2-c) = 2 sqrt(1 + sqrt(1 - (c/2)**2))
        assert abs(
            mk_bound_odd(3, c, c) - mk_bound_classical_pair(3, c / 2.0)
        ) < 1e-12


def diagonal_scenario(rng, n_parties):
    pairs = []
    for party in range(1, n_parties + 1):
        row = []
        for setting in (0, 1):
            signs = [
                1.0 if rng.below(2) else -1.0,
                1.0 if rng.below(2) else -1.0,
            ]
            row.append(
                DichotomicObservable(np.diag(signs).astype(complex), party, setting)
            )
        pairs.append(tuple(row))
    return MeasurementScenario(tuple(pairs))


def diagonal_state(rng, n_parties):
    dim = 1 << n_parties
    probs = np.array([rng.uniform() + 1e-6 for _ in range(dim)])
    probs /= probs.sum()
    return QuantumState.mixed(np.diag(probs).astype(complex))


class TestClassicallyCorrelatedPairs:
    def test_odd_bound_collapses_to_classical_pair_form(self):
        # diagonal observables commute, so chi+ = chi- and the refined MK
        # bound must coincide with the classical-pair expression
        rng = SplitMix64(2024)
        for _ in range(120):
            scenario = diagonal_scenario(rng, 3)
            state = diagonal_state(rng, 3)
            plus = chi(scenario, state, 1, 2, "+")
            minus = chi(scenario, state, 1, 2, "-")
            assert abs(plus - minus) < 1e-12
            bound = mk_bound_odd(3, plus, minus)
            assert abs(bound - mk_bound_classical_pair(3, plus / 2.0)) < 1e-10
            assert bound <= 2.0 * ROOT2 + 1e-12

    def test_classical_pair_report(self):
        rng = SplitMix64(99)
        scenario = diagonal_scenario(rng, 3)
        state = diagonal_state(rng, 3)
        report = classical_pair_report(scenario, state, 1, 2)
        assert report.kind == "mk-classical-pair"
        assert -1.0 <= report.witness["quad_corr"] <= 1.0
        assert 2.0 <= report.value <= 2.0 * ROOT2 + 1e-12


def random_states(seed, n_parties):
    """A random pure state and a rank-2 mixture on n_parties qubits."""
    gen = np.random.default_rng(seed)
    dim = 1 << n_parties
    vecs = gen.normal(size=(2, dim)) + 1j * gen.normal(size=(2, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    weight = gen.uniform()
    rho = weight * np.outer(vecs[0], vecs[0].conj())
    rho += (1.0 - weight) * np.outer(vecs[1], vecs[1].conj())
    return QuantumState.pure(vecs[0]), QuantumState.mixed((rho + rho.conj().T) / 2.0)


def embedded_observables(scenario):
    n = scenario.n_parties
    return {
        (p, s): embed_local(scenario.observable(p, s).local, p, n)
        for p in range(1, n + 1)
        for s in (0, 1)
    }


class TestReducedRouteMatchesDense:
    """eta, chi and quad_corr read reduced states; check them against the
    dense full-space definitions on every party and ordered pair."""

    @pytest.mark.parametrize("n_parties", range(2, 8))
    def test_eta_and_chi(self, n_parties):
        scenario = random_scenario(4200 + n_parties, n_parties, "bloch")
        obs = embedded_observables(scenario)
        parties = range(1, n_parties + 1)
        for state in random_states(n_parties, n_parties):
            for p in parties:
                half = 0.5 * expectation(state, anticommutator(obs[p, 0], obs[p, 1]))
                assert abs(eta(scenario, state, p) - min(half * half, 1.0)) < 1e-12
            for n, m in ((n, m) for n in parties for m in parties if n != m):
                for sign, ((s0, t0), (s1, t1)) in (
                    ("+", ((0, 1), (1, 0))),
                    ("-", ((0, 0), (1, 1))),
                ):
                    direct = expectation(
                        state,
                        anticommutator(obs[n, s0] @ obs[m, t0], obs[n, s1] @ obs[m, t1]),
                    )
                    assert abs(chi(scenario, state, n, m, sign) - direct) < 1e-12

    @pytest.mark.parametrize("n_parties", (3, 5, 7))
    def test_quad_corr_on_commuting_settings(self, n_parties):
        rng = SplitMix64(77 + n_parties)
        scenario = diagonal_scenario(rng, n_parties)
        obs = embedded_observables(scenario)
        parties = range(1, n_parties + 1)
        states = random_states(n_parties, n_parties) + (diagonal_state(rng, n_parties),)
        for state in states:
            for n, m in ((n, m) for n in parties for m in parties if n != m):
                direct = expectation(
                    state, obs[n, 0] @ obs[n, 1] @ obs[m, 0] @ obs[m, 1]
                )
                report = classical_pair_report(scenario, state, n, m)
                assert abs(report.witness["quad_corr"] - direct) < 1e-12

    def test_party_count_mismatch_is_rejected(self):
        scenario = ghz3_scenario((0.0, 1.0))
        state = ghz_state(4)
        with pytest.raises(ValueError, match="parties"):
            eta(scenario, state, 1)
        with pytest.raises(ValueError, match="parties"):
            chi(scenario, state, 1, 2, "+")
        with pytest.raises(ValueError, match="parties"):
            classical_pair_report(scenario, state, 1, 2)


class TestBestSvetlichnyBound:
    def test_picks_weakest_party(self):
        # party 2 has eta 1, the others eta 0: bound must be 4
        scenario = MeasurementScenario.planar(
            ((0.0, math.pi / 2), (0.3, 0.3), (0.0, math.pi / 2))
        )
        report = best_svetlichny_bound(scenario, ghz_state(3))
        assert report.witness["party"] == 2
        assert report.value == 4.0

    def test_tie_prefers_lowest_party(self):
        scenario = MeasurementScenario.planar(((0.0, math.pi / 2),) * 3)
        report = best_svetlichny_bound(scenario, ghz_state(3))
        assert report.witness["party"] == 1

    def test_report_fields(self):
        scenario = MeasurementScenario.planar(((0.0, math.pi / 2),) * 3)
        report = best_svetlichny_bound(scenario, ghz_state(3))
        assert isinstance(report, BoundReport)
        assert report.kind == "svetlichny"
        assert report.n_parties == 3
        assert report.classical == 4.0
        assert report.algebraic == 8.0
        assert abs(report.known_tsirelson - 4.0 * ROOT2) < 1e-12
        assert 4.0 - 1e-12 <= report.value <= 4.0 * ROOT2 + 1e-12

    def test_to_text_lists_sorted_witness_keys(self):
        scenario = MeasurementScenario.planar(((0.0, math.pi / 2),) * 3)
        text = best_svetlichny_bound(scenario, ghz_state(3)).to_text()
        lines = text.splitlines()
        assert lines[0] == "kind=svetlichny"
        assert any(line.startswith("witness_eta=") for line in lines)
        assert any(line.startswith("witness_party=") for line in lines)


class TestBestMkBound:
    def test_scans_all_pairs(self):
        # parties 2 and 3 are tuned so their pair bound vanishes
        scenario = MeasurementScenario.planar(
            ((0.0, 0.0), (0.0, -math.pi / 2), (0.0, math.pi / 2))
        )
        report = best_mk_bound(scenario, ghz_state(3))
        assert report.witness["pair"] == (2, 3)
        assert report.value <= 1e-9

    def test_fig3_reference_pair(self):
        scenario = ghz3_scenario((0.0, -math.pi / 4))
        report = best_mk_bound(scenario, ghz_state(3))
        assert report.witness["pair"] == (1, 2)
        assert abs(report.value - fig3_pair12_bound(0.0)) < 1e-12

    def test_report_fields(self):
        scenario = ghz3_scenario((0.0, -math.pi / 4))
        report = best_mk_bound(scenario, ghz_state(3))
        assert report.kind == "mk-odd"
        assert report.classical == 2.0
        assert report.algebraic == 4.0
        assert {"pair", "chi_plus", "chi_minus"} <= set(report.witness)

    def test_rejects_even_or_small(self):
        with pytest.raises(ValueError):
            best_mk_bound(
                MeasurementScenario.planar(((0.0, 1.0), (0.0, 1.0))),
                ghz_state(2),
            )


class TestCovarianceInequality:
    def test_bell_state_saturation(self):
        state = ghz_state(2)
        first = embed_local(planar_observable(0.0), 1, 2)
        second = embed_local(planar_observable(math.pi / 2), 1, 2)
        other = embed_local(planar_observable(-math.pi / 4), 2, 2)
        result = covariance_inequality(state, first, second, other, 0)
        assert abs(result.lhs - ROOT2) < 1e-12
        assert abs(result.rhs - ROOT2) < 1e-12
        assert result.slack > -1e-10

    def test_identical_observables_are_trivial(self):
        state = ghz_state(2)
        x = embed_local(planar_observable(0.7), 1, 2)
        y = embed_local(planar_observable(0.1), 2, 2)
        result = covariance_inequality(state, x, x, y, 1)
        assert result.lhs == 0.0
        assert result.rhs == 0.0

    @given(angles, angles, angles)
    def test_holds_on_ghz3(self, t0, t1, t2):
        state = ghz_state(3)
        first = embed_local(planar_observable(t0), 1, 3)
        second = embed_local(planar_observable(t1), 1, 3)
        other = embed_local(planar_observable(t2), 2, 3)
        for m_parity in (0, 1):
            result = covariance_inequality(state, first, second, other, m_parity)
            assert result.slack >= -1e-10

    def test_rejects_non_commuting_sides(self):
        state = ghz_state(2)
        first = embed_local(SIGMA_X, 1, 2)
        second = embed_local(SIGMA_Y, 1, 2)
        clash = embed_local(SIGMA_Y, 1, 2)
        with pytest.raises(InvariantViolation):
            covariance_inequality(state, first, second, clash, 0)

    def test_rejects_non_dichotomic(self):
        state = ghz_state(2)
        first = embed_local(0.5 * SIGMA_X, 1, 2)
        other = embed_local(SIGMA_Y, 2, 2)
        with pytest.raises(InvariantViolation):
            covariance_inequality(state, first, first, other, 0)

    def test_argument_validation(self):
        state = ghz_state(2)
        x = embed_local(SIGMA_X, 1, 2)
        y = embed_local(SIGMA_Y, 2, 2)
        with pytest.raises(ValueError):
            covariance_inequality(state, x, x, y, 2)
        with pytest.raises(ValueError):
            covariance_inequality(state, x, x, y, 0, side="Z")


class TestMasterSoundness:
    def test_thousand_random_states_never_beat_the_bound(self):
        rng = SplitMix64(0xB0DD)
        state_rng = np.random.default_rng(20240817)
        checked = 0
        for trial in range(1000):
            n = 2 + rng.below(5)  # parties 2..6
            dim = 1 << n
            family = "planar" if rng.below(2) else "bloch"
            scenario = random_scenario(rng.below(1 << 60), n, family)
            raw = state_rng.normal(size=dim) + 1j * state_rng.normal(size=dim)
            state = QuantumState.pure(raw / np.linalg.norm(raw))
            sv_report = best_svetlichny_bound(scenario, state)
            for parity in ("+", "-"):
                value = expectation(state, realize(svetlichny(n, parity), scenario))
                assert abs(value) <= sv_report.value + 1e-9
                checked += 1
            if n % 2 and n >= 3:
                mk_report = best_mk_bound(scenario, state)
                value = expectation(state, realize(mk(n), scenario))
                assert abs(value) <= mk_report.value + 1e-9
                checked += 1
        assert checked >= 2000
