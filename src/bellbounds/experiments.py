"""Figure sweeps, the randomized soundness harness, and violation search.

Everything here is deterministic given its arguments: random draws come
from the SplitMix64 stream seeded by the caller (or by a fixed module
constant for the optimizer's multistarts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import best_mk_bound, best_svetlichny_bound, covariance_inequality
from .linalg import (
    InvariantViolation,
    QuantumState,
    covariance_witness,
    expectation,
    ghz_state,
    jacobi_eigenvalues,
    read_state_file,
)
from .observables import MeasurementScenario
from .polynomials import mk, realize, svetlichny
from .rng import SplitMix64

SWEEP_CSV_HEADER = "alpha,operator_value,refined_bound,known_tsirelson,classical_bound,algebraic_bound"
SWEEP_SLACK_TOL = 1e-9
HARNESS_SLACK_TOL = 1e-9
HARNESS_PSD_TOL = 1e-10
NELDER_MEAD_STEP = 0.5  # offset of each initial simplex vertex from the start

_SEARCH_SEED = 0x5EED  # fixed multistart stream; OptimizerConfig carries no seed


@dataclass(frozen=True)
class SweepRow:
    """One sample of a figure sweep; |operator_value| <= refined_bound + 1e-9."""

    alpha: float
    operator_value: float
    refined_bound: float
    known_tsirelson: float
    classical_bound: float
    algebraic_bound: float


@dataclass(frozen=True)
class SweepConfig:
    """Preset figure sweep: 'fig1' and 'fig2' sweep svetlichny(3, '-') against
    the eta-refined bound, 'fig3' sweeps mk(3) against the chi-refined one.

    ``state`` is ``"ghz"`` or a state-file path.
    """

    figure: str = "fig1"
    alpha_start: float = -math.pi
    alpha_end: float = math.pi
    samples: int = 201
    state: str = "ghz"

    def __post_init__(self):
        if self.figure not in ("fig1", "fig2", "fig3"):
            raise ValueError(f"unknown figure {self.figure!r}")
        for name, value in (("alpha_start", self.alpha_start), ("alpha_end", self.alpha_end)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.alpha_start < self.alpha_end:
            raise ValueError("alpha_start must be below alpha_end")
        if not math.isfinite(self.alpha_end - self.alpha_start):
            raise ValueError("alpha_end - alpha_start must be finite")
        if not 2 <= self.samples <= 10**6:
            raise ValueError(f"samples must be in [2, 10**6], got {self.samples}")


def _fig1_angles(alpha: float) -> tuple:
    return ((alpha, math.pi / 4), (0.0, math.pi / 2), (0.0, math.pi / 2))


def _fig2_angles(alpha: float) -> tuple:
    return ((0.0, alpha), (0.0, alpha), (0.0, alpha))


def _fig3_angles(alpha: float) -> tuple:
    return ((alpha, -math.pi / 4), (0.0, math.pi / 2), (0.0, math.pi / 2))


_FIGURE_ANGLES = {"fig1": _fig1_angles, "fig2": _fig2_angles, "fig3": _fig3_angles}


def figure_sweep(config: SweepConfig) -> list[SweepRow]:
    """Rows of (alpha, operator value, refined bound, reference lines)."""
    template = _FIGURE_ANGLES[config.figure]
    if config.figure == "fig3":
        operator, best_bound = mk(3), best_mk_bound
    else:
        operator, best_bound = svetlichny(3, "-"), best_svetlichny_bound
    if config.state == "ghz":
        state = ghz_state(operator.n_parties)
    else:
        state = read_state_file(config.state)
    if state.n_parties != operator.n_parties:
        raise ValueError(
            f"state spans {state.n_parties} parties, operator {operator.n_parties}"
        )
    rows = []
    for alpha in np.linspace(config.alpha_start, config.alpha_end, config.samples):
        a = float(alpha)
        scenario = MeasurementScenario.planar(template(a))
        value = expectation(state, realize(operator, scenario))
        report = best_bound(scenario, state)
        if abs(value) > report.value + SWEEP_SLACK_TOL:
            raise InvariantViolation(
                f"sweep row at alpha={a!r}: |value| {abs(value)!r} exceeds "
                f"bound {report.value!r}"
            )
        rows.append(
            SweepRow(
                alpha=a,
                operator_value=value,
                refined_bound=report.value,
                known_tsirelson=report.known_tsirelson,
                classical_bound=report.classical,
                algebraic_bound=report.algebraic,
            )
        )
    return rows


def write_sweep_csv(rows, path) -> None:
    """CSV with the fixed header, 15 significant digits, LF line endings."""
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                f"{value:.15g}"
                for value in (
                    row.alpha,
                    row.operator_value,
                    row.refined_bound,
                    row.known_tsirelson,
                    row.classical_bound,
                    row.algebraic_bound,
                )
            )
        )
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _random_scenario_from(rng: SplitMix64, n_parties: int, family: str) -> MeasurementScenario:
    """Scenario draw; planar takes 2N uniform angles (per party: setting 0
    then 1), bloch takes 3 normals per observable in the same order."""
    if family == "planar":
        angles = []
        for _ in range(n_parties):
            t0 = 2.0 * math.pi * rng.uniform()
            t1 = 2.0 * math.pi * rng.uniform()
            angles.append((t0, t1))
        return MeasurementScenario.planar(angles)
    if family != "bloch":
        raise ValueError(f"unknown family {family!r}")
    directions = []
    for _ in range(n_parties):
        pair = []
        for _ in range(2):
            while True:
                direction = (rng.normal(), rng.normal(), rng.normal())
                if math.sqrt(sum(c * c for c in direction)) > 0.0:
                    break
            pair.append(direction)
        directions.append((pair[0], pair[1]))
    return MeasurementScenario.bloch(directions)


def _haar_pure(rng: SplitMix64, n_parties: int) -> QuantumState:
    """Haar-random pure state: per amplitude, a real then an imaginary normal."""
    dim = 1 << n_parties
    while True:
        amps = np.empty(dim, dtype=complex)
        for index in range(dim):
            re = rng.normal()
            im = rng.normal()
            amps[index] = complex(re, im)
        norm = float(np.linalg.norm(amps))
        if norm > 0.0:
            return QuantumState.pure(amps / norm)


def _random_state(rng: SplitMix64, n_parties: int) -> QuantumState:
    """Pure Haar state, or with probability 0.25 a two-term Haar mixture."""
    if rng.uniform() < 0.25:
        weight = rng.uniform()
        first = _haar_pure(rng, n_parties)
        second = _haar_pure(rng, n_parties)
        rho = weight * first.density_matrix() + (1.0 - weight) * second.density_matrix()
        rho = (rho + rho.conj().T) / 2.0
        return QuantumState.mixed(rho)
    return _haar_pure(rng, n_parties)


def _random_block(rng: SplitMix64, scenario, parties) -> list:
    """The observable of one random setting per listed party, in that order."""
    return [scenario.observable(party, rng.below(2)) for party in parties]


@dataclass(frozen=True)
class HarnessReport:
    """Worst margins seen by verify_bounds_random.

    A violation is a bound slack below -1e-9 or a covariance eigenvalue
    below -1e-10.  worst_slack_mk is +inf when no odd-N trial ran.
    worst_slack_covariance_distinct is the worst covariance slack over the
    draws whose B_i and B_j settings differ (+inf when there was none):
    a draw with B_i = B_j has both sides 0 at m = 1, which pins
    worst_slack_covariance at 0.  It is left out of to_text, so the
    verify report on stdout keeps its lines.
    """

    trials: int
    worst_slack_svetlichny: float
    worst_slack_mk: float
    worst_slack_covariance: float
    worst_slack_covariance_distinct: float
    worst_psd_eigen: float
    violations: int

    def to_text(self) -> str:
        return (
            f"trials={self.trials}\n"
            f"worst_slack_svetlichny={self.worst_slack_svetlichny:.15g}\n"
            f"worst_slack_mk={self.worst_slack_mk:.15g}\n"
            f"worst_slack_covariance={self.worst_slack_covariance:.15g}\n"
            f"worst_psd_eigen={self.worst_psd_eigen:.15g}\n"
            f"violations={self.violations}\n"
        )


def verify_bounds_random(seed: int, trials: int, n_min: int, n_max: int) -> HarnessReport:
    """Randomized soundness sweep over states, scenarios and bipartitions.

    Trial t uses N = n_min + (t mod span).  One SplitMix64(seed) stream
    drives the whole run; per trial the draw order is: state (kind flag,
    then amplitudes/mixture), family flag, scenario, bipartition mask,
    then one setting per block party, in party order, for the X-side
    blocks B_i, B_j (on X) and C (on Y), then for the Y-side blocks
    B_i, B_j (on Y) and C (on X).  Checked per trial: both Svetlichny
    parities against the eta-refined bound, odd-N MK against the
    chi-refined bound, the two-block inequalities on the random
    bipartition (both sides; one covariance_inequality call per side
    gives both parities of m), evaluated on the drawn per-party
    observables, and positive semidefiniteness of the covariance matrix
    of all 2N scenario observables' validated 2x2 locals, read from their
    1- and 2-party reduced states.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 2 <= n_min <= n_max <= 6:
        raise ValueError(f"need 2 <= n_min <= n_max <= 6, got [{n_min}, {n_max}]")
    rng = SplitMix64(seed)
    span = n_max - n_min + 1
    svet_polys = {n: (svetlichny(n, "+"), svetlichny(n, "-")) for n in range(n_min, n_max + 1)}
    mk_polys = {n: mk(n) for n in range(n_min, n_max + 1) if n % 2 and n >= 3}
    worst = dict.fromkeys(("svetlichny", "mk", "covariance", "psd"), math.inf)
    worst_distinct = math.inf  # covariance slack over draws with B_i != B_j
    violations = 0
    for trial in range(trials):
        n = n_min + trial % span
        state = _random_state(rng, n)
        family = "planar" if rng.uniform() < 0.5 else "bloch"
        scenario = _random_scenario_from(rng, n, family)
        margins = []  # (check, margin, tolerance); below -tolerance is a violation

        report = best_svetlichny_bound(scenario, state)
        for poly in svet_polys[n]:
            value = abs(expectation(state, realize(poly, scenario)))
            margins.append(("svetlichny", report.value - value, HARNESS_SLACK_TOL))
        if n in mk_polys:
            mk_report = best_mk_bound(scenario, state)
            value = abs(expectation(state, realize(mk_polys[n], scenario)))
            margins.append(("mk", mk_report.value - value, HARNESS_SLACK_TOL))

        full_mask = (1 << n) - 1
        while True:
            mask = rng.next_u64() & full_mask
            if 0 < mask < full_mask:
                break
        x_parties = [p for p in range(1, n + 1) if mask & (1 << (p - 1))]
        y_parties = [p for p in range(1, n + 1) if p not in x_parties]
        for own, rest in ((x_parties, y_parties), (y_parties, x_parties)):
            b_i = _random_block(rng, scenario, own)
            b_j = _random_block(rng, scenario, own)
            c_op = _random_block(rng, scenario, rest)
            distinct = [obs.setting for obs in b_i] != [obs.setting for obs in b_j]
            for record in covariance_inequality(state, b_i, b_j, c_op):
                margins.append(("covariance", record.slack, HARNESS_SLACK_TOL))
                if distinct:
                    worst_distinct = min(worst_distinct, record.slack)

        witness = covariance_witness(state, scenario)
        smallest = float(jacobi_eigenvalues(witness.c)[0])
        margins.append(("psd", smallest, HARNESS_PSD_TOL))

        for check, margin, tolerance in margins:
            worst[check] = min(worst[check], margin)
            if margin < -tolerance:
                violations += 1
    return HarnessReport(
        trials=trials,
        worst_slack_svetlichny=worst["svetlichny"],
        worst_slack_mk=worst["mk"],
        worst_slack_covariance=worst["covariance"],
        worst_slack_covariance_distinct=worst_distinct,
        worst_psd_eigen=worst["psd"],
        violations=violations,
    )


@dataclass(frozen=True)
class OptimizerConfig:
    """Violation search description.

    objective: 'max-svetlichny' (|<S_N^->| on GHZ_N), 'max-mk' (|<M_N>|),
    or 'max-gap' (known_tsirelson minus the eta-refined bound).
    family 'planar' optimizes 2 angles per party, 'bloch' 4 spherical
    angles per party.
    """

    n_parties: int
    objective: str = "max-svetlichny"
    family: str = "planar"
    multistarts: int = 8
    max_evals: int = 20000
    tol: float = 1e-9

    def __post_init__(self):
        if not 2 <= self.n_parties <= 12:
            raise ValueError(f"party count must be in [2, 12], got {self.n_parties}")
        if self.objective not in ("max-svetlichny", "max-mk", "max-gap"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.family not in ("planar", "bloch"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.multistarts < 1:
            raise ValueError("multistarts must be >= 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")


@dataclass(frozen=True)
class OptimizationResult:
    """Best point found; converged is False when only the eval budget stopped
    the search (best-so-far is still returned)."""

    angles: np.ndarray
    value: float
    evals: int
    converged: bool


def _scenario_from_params(params, n_parties: int, family: str) -> MeasurementScenario:
    if family == "planar":
        pairs = [(params[2 * p], params[2 * p + 1]) for p in range(n_parties)]
        return MeasurementScenario.planar(pairs)
    directions = []
    for p in range(n_parties):
        pair = []
        for s in range(2):
            polar = params[4 * p + 2 * s]
            azimuth = params[4 * p + 2 * s + 1]
            pair.append(
                (
                    math.sin(polar) * math.cos(azimuth),
                    math.sin(polar) * math.sin(azimuth),
                    math.cos(polar),
                )
            )
        directions.append((pair[0], pair[1]))
    return MeasurementScenario.bloch(directions)


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    start: np.ndarray,
    tol: float,
    max_evals: int,
) -> tuple[np.ndarray, float, int, bool]:
    """Minimize with reflection 1, expansion 2, contraction 0.5, shrink 0.5.

    Stops when the simplex diameter (max vertex distance to the best, in the
    max norm) falls below tol, or the evaluation budget is exhausted; returns
    (best point, best value, evaluations used, converged flag).
    """
    dims = len(start)
    points = np.tile(np.array(start, dtype=float), (dims + 1, 1))
    points[1:][np.diag_indices(dims)] += NELDER_MEAD_STEP
    values = np.empty(dims + 1)
    evals = 0
    for index in range(dims + 1):
        values[index] = objective(points[index])
        evals += 1
        if evals >= max_evals:
            first = int(np.argmin(values[:evals]))
            return points[first], float(values[first]), evals, False
    while True:
        order = np.argsort(values, kind="stable")
        points = points[order]
        values = values[order]
        diameter = float(np.max(np.abs(points[1:] - points[0])))
        if diameter < tol:
            return points[0], float(values[0]), evals, True
        if evals >= max_evals:
            return points[0], float(values[0]), evals, False
        centroid = np.mean(points[:-1], axis=0)
        reflected = centroid + (centroid - points[-1])
        f_reflected = objective(reflected)
        evals += 1
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - points[-1])
            f_expanded = objective(expanded)
            evals += 1
            if f_expanded < f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
        else:
            contracted = centroid + 0.5 * (points[-1] - centroid)
        f_contracted = objective(contracted)
        evals += 1
        if f_contracted < min(f_reflected, values[-1]):
            points[-1], values[-1] = contracted, f_contracted
            continue
        best = points[0]
        for index in range(1, dims + 1):
            points[index] = best + 0.5 * (points[index] - best)
            values[index] = objective(points[index])
            evals += 1
            if evals >= max_evals:
                first = int(np.argmin(values))
                return points[first], float(values[first]), evals, False


def maximize_violation(config: OptimizerConfig) -> OptimizationResult:
    """Multistart Nelder-Mead search on the GHZ_N state.

    Start points are uniform angles from a fixed internal stream, so equal
    configs always return the same result.  The per-start budget is
    max_evals // multistarts (at least one simplex worth).
    """
    n = config.n_parties
    state = ghz_state(n)
    if config.objective == "max-svetlichny":
        operator = svetlichny(n, "-")
    elif config.objective == "max-mk":
        operator = mk(n)
    else:
        operator = None

    def score(params: np.ndarray) -> float:
        scenario = _scenario_from_params(params, n, config.family)
        if operator is not None:
            return -abs(expectation(state, realize(operator, scenario)))
        report = best_svetlichny_bound(scenario, state)
        return -(report.known_tsirelson - report.value)

    dims = (2 if config.family == "planar" else 4) * n
    rng = SplitMix64(_SEARCH_SEED)
    per_start = max(config.max_evals // config.multistarts, dims + 2)
    best_point = None
    best_value = math.inf
    best_converged = False
    total_evals = 0
    for _ in range(config.multistarts):
        start = np.array(
            [2.0 * math.pi * rng.uniform() for _ in range(dims)], dtype=float
        )
        point, value, used, converged = nelder_mead(
            score, start, tol=config.tol, max_evals=per_start
        )
        total_evals += used
        if value < best_value:
            best_point, best_value, best_converged = point, value, converged
    return OptimizationResult(
        angles=best_point,
        value=-best_value,
        evals=total_evals,
        converged=best_converged,
    )
