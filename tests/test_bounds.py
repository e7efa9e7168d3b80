import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellbounds import (
    BoundReport,
    InvariantViolation,
    MeasurementScenario,
    QuantumState,
    DichotomicObservable,
    best_mk_bound,
    best_svetlichny_bound,
    bounds,
    chi,
    classical_pair_report,
    covariance_inequality,
    eta,
    expectation,
    ghz_state,
    mk,
    mk_bound_classical_pair,
    mk_bound_odd,
    realize,
    svetlichny,
    svetlichny_bound,
)
from bellbounds.linalg import SIGMA_X, SIGMA_Y, reduced_state
from bellbounds.observables import embed_local, planar_observable
from bellbounds.rng import SplitMix64

from oracles import (
    anticommutator,
    chi_ghz_pair,
    dense_covariance_inequality,
    eta_from_gap,
    fig1_party1_eta,
    fig3_pair12_bound,
    ghz_planar_correlator,
    random_scenario,
    random_states,
)

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


class TestClamped:
    def test_clamps_within_tolerance_and_rejects_beyond(self):
        assert bounds._clamped(1.0 + 1e-12, 0.0, 1.0, "eta(1)") == 1.0
        with pytest.raises(InvariantViolation):
            bounds._clamped(1.0 + 1e-9, 0.0, 1.0, "eta(1)")

    def test_rejects_nan(self):
        # nan < low and nan > high are both false: only an in-range test catches it
        with pytest.raises(InvariantViolation, match="nan"):
            bounds._clamped(math.nan, 0.0, 1.0, "eta(1)")


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
            plus, minus = chi(scenario, state, 1, 2)
            assert abs(plus + 2.0 * math.sin(a + math.pi / 4)) < 1e-12
            assert abs(minus - 2.0 * math.sin(a + math.pi / 4)) < 1e-12

    @given(angles, angles, angles, angles)
    def test_matches_gap_oracle(self, a0, a1, b0, b1):
        scenario = ghz3_scenario((a0, a1), (b0, b1))
        state = ghz_state(3)
        for sign, got in zip("+-", chi(scenario, state, 1, 2)):
            assert abs(got - chi_ghz_pair(a0 - a1, b0 - b1, sign)) < 1e-12

    @given(angles, angles, angles, angles)
    def test_matches_direct_anticommutator(self, a0, a1, b0, b1):
        scenario = ghz3_scenario((a0, a1), (b0, b1))
        state = ghz_state(3)
        obs = {
            (p, s): embed_local(scenario.observable(p, s).local, p, 3)
            for p in (1, 2) for s in (0, 1)
        }
        for got, pairing in zip(
            chi(scenario, state, 1, 2),
            (((0, 1), (1, 0)), ((0, 0), (1, 1))),  # chi+, then chi-
        ):
            (sa, sb), (sc_, sd) = pairing
            first = obs[1, sa] @ obs[2, sb]
            second = obs[1, sc_] @ obs[2, sd]
            direct = expectation(state, first @ second + second @ first)
            assert abs(got - direct) < 1e-12

    def test_identical_observables_hit_two_exactly(self):
        scenario = MeasurementScenario.planar(((0.2, 0.2), (1.0, 1.0), (0.0, 0.0)))
        state = ghz_state(3)
        assert chi(scenario, state, 1, 2) == (2.0, 2.0)

    def test_symmetric_under_pair_swap(self):
        scenario = ghz3_scenario((0.9, -0.4), (0.1, 1.3))
        state = ghz_state(3)
        for forward, backward in zip(chi(scenario, state, 1, 2), chi(scenario, state, 2, 1)):
            assert abs(forward - backward) < 1e-14

    @pytest.mark.parametrize("n_parties", (3, 5))
    def test_symmetric_on_random_states(self, n_parties):
        # Both orders evaluate the same two operators S = P +- Q on the same
        # pair marginal, so they differ only by rounding.  A marginal entry
        # sums K = 2**(N-2) products whose magnitudes total at most 1, so it
        # is off by at most (K + 4) eps.  <S**2> weighs 16 such entries by
        # |S**2| <= 4, and its 4x4 evaluation (|S| entries <= 2, each
        # column of |rho| summing to <= 2) adds at most 20 eps * 64.  chi is
        # 2 plus or minus one such mean, and each order has its own error.
        eps = np.finfo(float).eps
        marginal = ((1 << (n_parties - 2)) + 4) * eps
        bound = 2.0 * (64.0 * marginal + 20.0 * 64.0 * eps + 2.0 * eps)
        scenario = random_scenario(5100 + n_parties, n_parties, "bloch")
        for state in random_states(5100 + n_parties, n_parties):
            for n, m in itertools.combinations(range(1, n_parties + 1), 2):
                for forward, backward in zip(
                    chi(scenario, state, n, m), chi(scenario, state, m, n)
                ):
                    assert abs(forward - backward) <= bound

    def test_argument_validation(self):
        scenario = ghz3_scenario((0.0, 1.0))
        state = ghz_state(3)
        with pytest.raises(ValueError):
            chi(scenario, state, 1, 1)


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
    def local():
        signs = [1.0 if rng.below(2) else -1.0 for _ in range(2)]
        return np.diag(signs).astype(complex)

    return MeasurementScenario([(local(), local()) for _ in range(n_parties)])


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
            plus, minus = chi(scenario, state, 1, 2)
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
                for got, ((s0, t0), (s1, t1)) in zip(
                    chi(scenario, state, n, m),
                    (((0, 1), (1, 0)), ((0, 0), (1, 1))),  # chi+, then chi-
                ):
                    direct = expectation(
                        state,
                        anticommutator(obs[n, s0] @ obs[m, t0], obs[n, s1] @ obs[m, t1]),
                    )
                    assert abs(got - direct) < 1e-12

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
            chi(scenario, state, 1, 2)
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

    @pytest.mark.parametrize("n_parties", (3, 5, 7))
    def test_scans_each_unordered_pair_once(self, monkeypatch, n_parties):
        # one chi call per unordered pair, and each reads one pair marginal
        # for both signs
        calls, marginals = [], []

        def counting(scenario, state, n, m):
            calls.append((n, m))
            return chi(scenario, state, n, m)

        def tracing(state, parties):
            marginals.append(tuple(parties))
            return reduced_state(state, parties)

        monkeypatch.setattr(bounds, "chi", counting)
        monkeypatch.setattr(bounds, "reduced_state", tracing)
        scenario = random_scenario(5300 + n_parties, n_parties, "bloch")
        expected = set(itertools.combinations(range(1, n_parties + 1), 2))
        for state in random_states(5300 + n_parties, n_parties):
            calls.clear()
            marginals.clear()
            report = best_mk_bound(scenario, state)
            assert len(calls) == n_parties * (n_parties - 1) // 2
            assert set(calls) == expected
            pair_marginals = [parties for parties in marginals if len(parties) == 2]
            assert len(pair_marginals) == n_parties * (n_parties - 1) // 2
            assert set(pair_marginals) == expected
            first, second = report.witness["pair"]
            assert first < second

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


def planar_block(scenario, settings):
    """One observable per (party, setting) pair of a planar scenario."""
    return [scenario.observable(party, setting) for party, setting in settings]


class TestCovarianceInequality:
    def test_bell_state_saturation(self):
        scenario = MeasurementScenario.planar(((0.0, math.pi / 2), (-math.pi / 4, 0.0)))
        first, second, other = (
            planar_block(scenario, [ps]) for ps in ((1, 0), (1, 1), (2, 0))
        )
        result, _ = covariance_inequality(ghz_state(2), first, second, other)
        assert abs(result.lhs - ROOT2) < 1e-12
        assert abs(result.rhs - ROOT2) < 1e-12
        assert result.slack > -1e-10

    def test_identical_observables_are_trivial(self):
        scenario = MeasurementScenario.planar(((0.7, 0.7), (0.1, 0.1)))
        x = planar_block(scenario, [(1, 0)])
        y = planar_block(scenario, [(2, 0)])
        _, result = covariance_inequality(ghz_state(2), x, x, y)
        assert result.lhs == 0.0
        assert result.rhs == 0.0

    @given(angles, angles, angles)
    def test_holds_on_ghz3(self, t0, t1, t2):
        scenario = ghz3_scenario((t0, t1), (t2, t2))
        first, second, other = (
            planar_block(scenario, [ps]) for ps in ((1, 0), (1, 1), (2, 0))
        )
        for result in covariance_inequality(ghz_state(3), first, second, other):
            assert result.slack >= -1e-10

    @pytest.mark.parametrize("n_parties", range(2, 8))
    def test_matches_dense_oracle(self, n_parties):
        # Random bipartitions, with each block party kept with probability
        # 3/4 so that B_i and B_j may sit on different parties.  rhs is not
        # compared: sqrt turns the rounding of a zero radicand into ~1e-8.
        rng = SplitMix64(900 + n_parties)
        scenario = random_scenario(rng.next_u64(), n_parties, "bloch")
        parties = range(1, n_parties + 1)
        states = random_states(n_parties + 50, n_parties)

        def block(members):
            return [
                scenario.observable(p, rng.below(2)) for p in members if rng.below(4)
            ]

        for _ in range(6):
            mask = 1 + rng.below((1 << n_parties) - 2)
            xs = [p for p in parties if mask >> (p - 1) & 1]
            ys = [p for p in parties if not mask >> (p - 1) & 1]
            for own, rest in ((xs, ys), (ys, xs)):
                first, second, other = block(own), block(own), block(rest)
                for state in states:
                    density = state.density_matrix()
                    records = covariance_inequality(state, first, second, other)
                    assert [got.m_parity for got in records] == [0, 1]
                    for m_parity, got in enumerate(records):
                        lhs, radicand = dense_covariance_inequality(
                            density, first, second, other, m_parity
                        )
                        assert abs(got.lhs - lhs) < 1e-12
                        assert abs(got.rhs**2 - max(radicand, 0.0)) < 1e-12

    def test_ghz12_closed_form_without_dense_operators(self):
        # On GHZ a product of planar observables has mean cos(sum of
        # angles), and B_i B_j = prod_p (cos d_p - i sin d_p sigma_z) with
        # d_p the angle gap, so <{B_i, B_j}> = 2 cos(sum of gaps).  A dense
        # operator at N = 12 would take 256 MiB; the call must stay < 1 MB.
        n = 12
        rng = SplitMix64(1212)
        scenario = MeasurementScenario.planar(
            [(2 * math.pi * rng.uniform(), 2 * math.pi * rng.uniform()) for _ in range(n)]
        )
        state = ghz_state(n)
        xs, ys = range(1, 6), range(6, n + 1)
        first = planar_block(scenario, [(p, 0) for p in xs])
        second = planar_block(scenario, [(p, p % 2) for p in xs])
        other = planar_block(scenario, [(p, 1) for p in ys])

        def theta(obs):
            return scenario.angles[obs.party - 1][obs.setting]

        corr_i, corr_j = (
            ghz_planar_correlator([theta(o) for o in block + other])
            for block in (first, second)
        )
        gap = math.fsum(theta(a) - theta(b) for a, b in zip(first, second))
        tracemalloc.start()
        try:
            records = covariance_inequality(state, first, second, other)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        for got, sign in zip(records, (1.0, -1.0)):
            assert abs(got.lhs - abs(corr_i + sign * corr_j)) < 1e-12
            assert abs(got.rhs**2 - (2.0 + sign * 2.0 * math.cos(gap))) < 1e-12

    def test_rejects_non_commuting_sides(self):
        # the blocks commute by construction once other shares no party
        # with first or second, so a shared party is the one way to clash
        scenario = MeasurementScenario.planar(((0.0, math.pi / 2), (0.0, 1.0)))
        first, second, clash = (
            planar_block(scenario, [ps]) for ps in ((1, 0), (1, 1), (1, 1))
        )
        with pytest.raises(ValueError, match="shares parties"):
            covariance_inequality(ghz_state(2), first, second, clash)
        with pytest.raises(ValueError, match="shares parties"):
            covariance_inequality(
                ghz_state(2), first, planar_block(scenario, [(2, 0)]), clash
            )

    def test_rejects_repeated_party(self):
        scenario = MeasurementScenario.planar(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
        twice = planar_block(scenario, [(1, 0), (1, 1)])
        once = planar_block(scenario, [(1, 0)])
        other = planar_block(scenario, [(3, 0)])
        for blocks in ((twice, once, other), (once, twice, other), (once, once, twice)):
            with pytest.raises(ValueError, match="repeats party 1"):
                covariance_inequality(ghz_state(3), *blocks)

    def test_rejects_party_outside_the_state(self):
        scenario = MeasurementScenario.planar(((0.0, 1.0),) * 4)
        x = planar_block(scenario, [(1, 0)])
        beyond = planar_block(scenario, [(4, 0)])
        with pytest.raises(ValueError, match="1..3"):
            covariance_inequality(ghz_state(3), x, x, beyond)

    def test_rejects_non_dichotomic(self):
        # a non-dichotomic local cannot become an observable, and a block
        # takes observables only, not bare matrices
        with pytest.raises(InvariantViolation):
            DichotomicObservable(0.5 * SIGMA_X, 1, 0)
        other = [DichotomicObservable(SIGMA_Y, 2, 0)]
        with pytest.raises(TypeError):
            covariance_inequality(ghz_state(2), [SIGMA_X], [SIGMA_X], other)


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
