"""End-to-end acceptance suite.

Each test checks one numbered claim about the package at its stated
tolerance and records a PASS or FAIL line; the conftest terminal-summary
hook prints the collected lines after the run.
"""

import math
import time

import numpy as np
import pytest

from bellbounds import (
    MeasurementScenario,
    QuantumState,
    best_svetlichny_bound,
    check_equivalence_even,
    expectation,
    ghz_state,
    mk,
    mk_bound_classical_pair,
    mk_bound_odd,
    chi,
    realize,
    svetlichny,
)
from bellbounds.experiments import (
    OptimizerConfig,
    SweepConfig,
    figure_sweep,
    maximize_violation,
    verify_bounds_random,
)
from bellbounds.polynomials import is_permutation_invariant
from bellbounds.rng import SplitMix64

ROOT2 = math.sqrt(2.0)
RESULTS = []


def record(number, detail):
    RESULTS.append((number, "PASS", detail))


def fail(number, detail):
    RESULTS.append((number, "FAIL", detail))
    pytest.fail(detail)


def test_criterion_01_tsirelson_saturation():
    scenario = MeasurementScenario.planar(
        ((-math.pi / 4, math.pi / 4), (0.0, math.pi / 2), (0.0, math.pi / 2))
    )
    state = ghz_state(3)
    value = abs(expectation(state, realize(svetlichny(3, "-"), scenario)))
    bound = best_svetlichny_bound(scenario, state).value
    value_err = abs(value - 4.0 * ROOT2)
    bound_err = abs(bound - 4.0 * ROOT2)
    if value_err > 1e-9 or bound_err > 1e-9:
        fail(1, f"|<S3->| off by {value_err:.3g}, bound off by {bound_err:.3g}")
    record(
        1,
        f"|<S3->| and refined bound both 4*sqrt(2) "
        f"(errors {value_err:.2g}, {bound_err:.2g}; tol 1e-9)",
    )


def test_criterion_02_first_sweep_regression():
    rows = figure_sweep(SweepConfig(figure="fig1", samples=201))
    worst_value = worst_bound = 0.0
    for row in rows:
        want_value = 2.0 * ROOT2 * math.cos(row.alpha + math.pi / 4) + 2.0 * ROOT2
        want_bound = 4.0 * math.sqrt(1.0 + abs(math.sin(row.alpha - math.pi / 4)))
        worst_value = max(worst_value, abs(row.operator_value - want_value))
        worst_bound = max(worst_bound, abs(row.refined_bound - want_bound))
        if abs(row.operator_value) > row.refined_bound + 1e-9:
            fail(2, f"bound violated at alpha={row.alpha}")
    if worst_value > 1e-9 or worst_bound > 1e-9:
        fail(2, f"worst value err {worst_value:.3g}, bound err {worst_bound:.3g}")
    state = ghz_state(3)
    for alpha in (rows[0].alpha, rows[77].alpha, rows[160].alpha):
        scenario = MeasurementScenario.planar(
            ((alpha, math.pi / 4), (0.0, math.pi / 2), (0.0, math.pi / 2))
        )
        report = best_svetlichny_bound(scenario, state)
        if report.witness["party"] != 1:
            fail(2, f"weakest party at alpha={alpha} is {report.witness['party']}")
    record(
        2,
        f"201-point sweep matches closed forms "
        f"(worst value err {worst_value:.2g}, worst bound err {worst_bound:.2g}; "
        f"tol 1e-9) and bound covers value on every row",
    )


def test_criterion_03_second_sweep_endpoints():
    rows = figure_sweep(SweepConfig(figure="fig2", samples=201))
    end = rows[200]
    mid = rows[150]
    value_err = abs(abs(end.operator_value) - 4.0)
    bound_err = abs(end.refined_bound - 4.0)
    mid_err = abs(mid.refined_bound - 4.0 * ROOT2)
    if value_err > 1e-9 or bound_err > 1e-9:
        fail(3, f"alpha=pi: value err {value_err:.3g}, bound err {bound_err:.3g}")
    if mid_err > 1e-9:
        fail(3, f"alpha=pi/2: bound err {mid_err:.3g}")
    record(
        3,
        f"alpha=pi gives value 4 and bound 4 (errs {value_err:.2g}, "
        f"{bound_err:.2g}); alpha=pi/2 gives bound 4*sqrt(2) "
        f"(err {mid_err:.2g}); tol 1e-9",
    )


def test_criterion_04_third_sweep_zero_and_formula():
    rows = figure_sweep(SweepConfig(figure="fig3", samples=201))
    pin = rows[125]
    if abs(pin.alpha - math.pi / 4) > 1e-12:
        fail(4, f"grid index 125 is {pin.alpha}, expected pi/4")
    value_at_pin = abs(pin.operator_value)
    bound_at_pin = pin.refined_bound
    if value_at_pin > 1e-9 or bound_at_pin > 1e-9:
        fail(4, f"alpha=pi/4: |value|={value_at_pin:.3g}, bound={bound_at_pin:.3g}")
    worst_formula = 0.0
    for index, row in enumerate(rows):
        want = 2.0 * math.sqrt(max(2.0 - 2.0 * math.sin(row.alpha + math.pi / 4), 0.0))
        worst_formula = max(worst_formula, abs(row.refined_bound - want))
        if index != 25 and not row.refined_bound < 4.0:
            fail(4, f"bound not below 4 at alpha={row.alpha}")
    if abs(rows[25].refined_bound - 4.0) > 1e-9:
        fail(4, f"alpha=-3pi/4 bound {rows[25].refined_bound}, expected 4")
    if worst_formula > 1e-9:
        fail(4, f"bound formula worst err {worst_formula:.3g}")
    record(
        4,
        f"alpha=pi/4 pins |value|={value_at_pin:.2g} and bound="
        f"{bound_at_pin:.2g} (tol 1e-9); bound matches "
        f"2*sqrt(2-2*sin(alpha+pi/4)) (worst err {worst_formula:.2g}) "
        f"and stays below 4 except alpha=-3pi/4",
    )


def test_criterion_05_structural_suite():
    expected_signs = {2: +1, 4: -1, 6: -1, 8: +1, 10: +1}
    expected_parity = {2: "-", 4: "+", 6: "-", 8: "+", 10: "-"}
    for n in range(2, 13):
        for parity in ("+", "-"):
            if len(svetlichny(n, parity).terms) != 2**n:
                fail(5, f"svetlichny({n},{parity}) term count wrong")
        want_mk = 2 ** (n - 1) if n % 2 else 2**n
        if len(mk(n).terms) != want_mk:
            fail(5, f"mk({n}) term count wrong")
        for family in (svetlichny(n, "+"), svetlichny(n, "-"), mk(n)):
            if not is_permutation_invariant(family):
                fail(5, f"{family.label}({n}) not permutation invariant")
        if n % 2 == 0 and n <= 10:
            result = check_equivalence_even(n)
            if result.sign != expected_signs[n] or result.parity != expected_parity[n]:
                fail(
                    5,
                    f"n={n}: got ({result.parity},{result.sign:+d}), "
                    f"expected ({expected_parity[n]},{expected_signs[n]:+d})",
                )
    record(
        5,
        "term counts exact and permutation invariance (exact Hamming-weight "
        "rule) for N<=12; even equivalences (+,-1)@4 and (-,-1)@6 with the "
        "alternating sign pattern through N=10",
    )


def test_criterion_06_randomized_soundness():
    report = verify_bounds_random(42, 10_000, 2, 5)
    if report.violations != 0:
        fail(6, f"{report.violations} bound violations")
    if report.worst_slack_svetlichny < -1e-9 or report.worst_slack_mk < -1e-9:
        fail(
            6,
            f"slack below -1e-9: svetlichny {report.worst_slack_svetlichny}, "
            f"mk {report.worst_slack_mk}",
        )
    if report.worst_slack_covariance < -1e-9:
        fail(6, f"covariance slack {report.worst_slack_covariance}")
    if report.worst_psd_eigen < -1e-10:
        fail(6, f"covariance eigenvalue {report.worst_psd_eigen}")
    record(
        6,
        f"seed 42, 10000 trials over N in 2..5: zero violations at "
        f"slack -1e-9; covariance min eigenvalue "
        f"{report.worst_psd_eigen:.2g} >= -1e-10",
    )


def _diagonal_scenario(rng, n_parties):
    def local():
        signs = [1.0 if rng.below(2) else -1.0 for _ in range(2)]
        return np.diag(signs).astype(complex)

    return MeasurementScenario([(local(), local()) for _ in range(n_parties)])


def _diagonal_state(rng, n_parties):
    dim = 1 << n_parties
    probs = np.array([rng.uniform() + 1e-6 for _ in range(dim)])
    probs /= probs.sum()
    return QuantumState.mixed(np.diag(probs).astype(complex))


def test_criterion_07_commuting_pair_consistency():
    rng = SplitMix64(4242)
    worst_gap = 0.0
    worst_excess = -math.inf
    for _ in range(200):
        scenario = _diagonal_scenario(rng, 3)
        state = _diagonal_state(rng, 3)
        plus, minus = chi(scenario, state, 1, 2)
        bound = mk_bound_odd(3, plus, minus)
        gap = abs(bound - mk_bound_classical_pair(3, plus / 2.0))
        worst_gap = max(worst_gap, gap)
        worst_excess = max(worst_excess, bound - 2.0 * ROOT2)
        if gap > 1e-10:
            fail(7, f"odd/classical-pair gap {gap:.3g}")
        if bound > 2.0 * ROOT2 + 1e-12:
            fail(7, f"bound {bound} exceeds 2*sqrt(2)")
    record(
        7,
        f"200 diagonal trials: odd bound equals classical-pair form "
        f"(worst gap {worst_gap:.2g}; tol 1e-10) and never exceeds "
        f"2*sqrt(2) (worst excess {worst_excess:.2g})",
    )


def test_criterion_08_optimizer_recovery():
    start = time.monotonic()
    two = maximize_violation(OptimizerConfig(n_parties=2))
    two_elapsed = time.monotonic() - start
    start = time.monotonic()
    three = maximize_violation(OptimizerConfig(n_parties=3))
    three_elapsed = time.monotonic() - start
    if two.value < 2.0 * ROOT2 - 1e-6 or two_elapsed > 60.0:
        fail(8, f"N=2: value {two.value}, {two_elapsed:.1f}s")
    if three.value < 4.0 * ROOT2 - 1e-6 or three_elapsed > 60.0:
        fail(8, f"N=3: value {three.value}, {three_elapsed:.1f}s")
    record(
        8,
        f"optimizer reached {two.value:.12f} (N=2, {two_elapsed:.1f}s) and "
        f"{three.value:.12f} (N=3, {three_elapsed:.1f}s); "
        f"targets 2*sqrt(2)-1e-6 and 4*sqrt(2)-1e-6 within 60s each",
    )


def test_criterion_09_surd_identity():
    c = np.linspace(-2.0, 2.0, 100_001)
    lhs = np.sqrt(2.0 + c) + np.sqrt(2.0 - c)
    rhs = 2.0 * np.sqrt(1.0 + np.sqrt(np.maximum(1.0 - (c / 2.0) ** 2, 0.0)))
    worst = float(np.max(np.abs(lhs - rhs)))
    if worst > 1e-12:
        fail(9, f"identity worst err {worst:.3g}")
    record(
        9,
        f"sqrt(2+c)+sqrt(2-c) = 2*sqrt(1+sqrt(1-(c/2)^2)) on 100001 points "
        f"(worst err {worst:.2g}; tol 1e-12)",
    )
