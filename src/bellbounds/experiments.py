"""Figure sweeps, the randomized soundness harness, and violation search.

Everything here is deterministic given its arguments: random draws come
from the SplitMix64 stream seeded by the caller (or by a fixed module
constant for the optimizer's multistarts).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .bounds import (
    _chis,
    _etas,
    best_mk_bound,
    best_svetlichny_bound,
    covariance_inequality,
    mk_bound_odd,
    svetlichny_bound,
)
from .linalg import (
    InvariantViolation,
    QuantumState,
    _covariance_stack,
    _load_state,
    _stacked_marginals,
    _state_array,
    expectation,
    ghz_state,
    jacobi_eigenvalues,
    pauli_tensor,
)
from .observables import MeasurementScenario
from .polynomials import mk, realize, svetlichny
from .rng import SplitMix64

SWEEP_CSV_HEADER = "alpha,operator_value,refined_bound,known_tsirelson,classical_bound,algebraic_bound"
SWEEP_SLACK_TOL = 1e-9
HARNESS_SLACK_TOL = 1e-9
HARNESS_PSD_TOL = 1e-10
# Most trials of one N whose bound and PSD checks wait for one stacked pass
# (one eta, chi and witness call per state kind, and one Jacobi call):
# bounds the memory the queued states hold.
PSD_STACK = 64
NELDER_MEAD_STEP = 0.5  # offset of each initial simplex vertex from the start
LIVE_SEARCHES = 8  # most multistarts in one lockstep batch: bounds its memory
# Up to this many parties one tensor contraction pass takes a round's whole
# batch; above it, one point per pass.  Timed per point for passes of 1, 2,
# 4 and 8 points at N = 8..12: the whole batch was fastest up to N = 9, and
# one point per pass was as fast or faster from N = 10 (README).
_BATCH_PARTIES = 9

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
    state = _load_state(config.state, operator, "operator")
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
    """CSV with the fixed header, 15 significant digits, LF line endings,
    written one row at a time."""
    names = SWEEP_CSV_HEADER.split(",")
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write(SWEEP_CSV_HEADER + "\n")
        for row in rows:
            handle.write(",".join(f"{getattr(row, name):.15g}" for name in names) + "\n")


def _random_scenario_from(rng: SplitMix64, n_parties: int, family: str) -> MeasurementScenario:
    """Scenario draw; planar takes 2N uniform angles (per party: setting 0
    then 1), bloch one block of 3 normals per observable in the same order,
    each triple whose squares sum to 0 drawn again, as one by one would."""
    if family == "planar":
        return MeasurementScenario.planar(
            [(2.0 * math.pi * rng.uniform(), 2.0 * math.pi * rng.uniform()) for _ in range(n_parties)]
        )
    if family != "bloch":
        raise ValueError(f"unknown family {family!r}")
    triples = np.empty((0, 3))
    while len(triples) < 2 * n_parties:
        drawn = rng.normals(3 * (2 * n_parties - len(triples))).reshape(-1, 3)
        triples = np.concatenate([triples, drawn[(drawn * drawn).sum(axis=1) > 0.0]])
    return MeasurementScenario.bloch(triples.reshape(n_parties, 2, 3))


def _haar_pure(rng: SplitMix64, n_parties: int) -> QuantumState:
    """Haar-random pure state: per amplitude, a real then an imaginary normal."""
    dim = 1 << n_parties
    while True:
        amps = rng.normals(2 * dim).view(complex)
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
        return QuantumState.mixed((rho + rho.conj().T) / 2.0, copy=False)
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
    worst_slack_covariance at 0.  witnesses maps each check to the
    (trial, N, stream state S at its first draw) of its worst margin, the
    first on ties; verify_bounds_random(S, 1, N, N) replays that trial.
    Both stay out of to_text, so the verify stdout keeps its lines.
    """

    trials: int
    worst_slack_svetlichny: float
    worst_slack_mk: float
    worst_slack_covariance: float
    worst_slack_covariance_distinct: float
    worst_psd_eigen: float
    violations: int
    witnesses: dict

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
    parities against the eta-refined bound (eta from the scenario alone),
    odd-N MK against the chi-refined bound (from the pair marginals), the
    two-block inequalities on the random bipartition (one
    covariance_inequality call per side gives both parities of m), and
    positive semidefiniteness of the covariance matrix of the 2N scenario
    observables, contracted from the stacked 1- and 2-party marginals.
    A trial's operator values and covariance inequalities are evaluated at
    once; its bound and PSD checks wait in one queue per N.  A full queue
    (PSD_STACK trials), and each queue at the end, takes one stacked eta,
    chi and witness call per state kind and one stacked Jacobi call, each
    trial's values the same bit for bit as on its own, so a clamp failure
    in eta or chi surfaces when its stack runs.  Each worst margin keeps
    its trial's witness (see HarnessReport).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 2 <= n_min <= n_max <= 6:
        raise ValueError(f"need 2 <= n_min <= n_max <= 6, got [{n_min}, {n_max}]")
    rng = SplitMix64(seed)
    span = n_max - n_min + 1
    svet_polys = {n: (svetlichny(n, "+"), svetlichny(n, "-")) for n in range(n_min, n_max + 1)}
    mk_polys = {n: mk(n) for n in range(n_min, n_max + 1) if n % 2 and n >= 3}
    pairs = {n: list(itertools.combinations(range(1, n + 1), 2)) for n in mk_polys}
    worst = dict.fromkeys("svetlichny mk covariance covariance_distinct psd".split(), math.inf)
    witnesses = {}
    violations = 0
    queues = {}  # N -> [(trial, S_t, state kind, amplitudes or density, locals, |values|)]

    def fold(check, margin, tolerance, trial, n, start):
        nonlocal violations
        # queues end out of trial order, so a tie goes to the earlier
        # trial: the worst margin and its witness of a fold in trial order
        tie = check in witnesses and margin == worst[check] and trial < witnesses[check][0]
        if margin < worst[check] or tie:
            worst[check] = margin
            witnesses[check] = (trial, n, start)
        if margin < -tolerance:
            violations += 1

    def kind_check(n, kind, part):
        """The covariance stack and each trial's bound minima, for one state kind."""
        states, locals_ = (np.stack([entry[i] for entry in part]) for i in (3, 4))
        covariances = _covariance_stack(kind, states, locals_)[2]
        minima = [svetlichny_bound(n, _etas(kind, states, locals_)).min(axis=1)]
        if n in mk_polys:
            marginals = _stacked_marginals(kind, states, pairs[n])
            del states  # the largest array here: the chi pass need not hold it
            chis = _chis(locals_, marginals, pairs[n])
            minima.append(mk_bound_odd(n, chis[..., 0], chis[..., 1]).min(axis=1))
        return covariances, np.transpose(minima).tolist()

    def stack_check(n, queue):
        parts = [[entry for entry in queue if entry[2] == kind] for kind in ("pure", "mixed")]
        checks = [kind_check(n, kind, part) for kind, part in zip(("pure", "mixed"), parts) if part]
        smallest = jacobi_eigenvalues(np.concatenate([c for c, _ in checks]))[:, 0]
        minima = [row for _, kind_minima in checks for row in kind_minima]
        folded = zip(parts[0] + parts[1], minima, smallest.tolist(), strict=True)
        for (trial, start, *_, values), (svet, *mk), margin in folded:
            checks = zip(("svetlichny", "svetlichny", "mk"), (svet, svet, *mk), values)
            for check, bound, value in checks:
                fold(check, bound - value, HARNESS_SLACK_TOL, trial, n, start)
            fold("psd", margin, HARNESS_PSD_TOL, trial, n, start)

    for trial in range(trials):
        n = n_min + trial % span
        start = rng.state  # normals come in pairs per trial: none is cached here
        state = _random_state(rng, n)
        family = "planar" if rng.uniform() < 0.5 else "bloch"
        scenario = _random_scenario_from(rng, n, family)
        polys = svet_polys[n] + ((mk_polys[n],) if n in mk_polys else ())
        values = [abs(expectation(state, realize(poly, scenario))) for poly in polys]

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
                fold("covariance", record.slack, HARNESS_SLACK_TOL, trial, n, start)
                if distinct:  # a diagnostic view of the same slack: never a violation
                    fold("covariance_distinct", record.slack, math.inf, trial, n, start)

        queue = queues.setdefault(n, [])
        queue.append((trial, start, state.kind, _state_array(state), scenario.locals, values))
        if len(queue) == PSD_STACK:
            stack_check(n, queues.pop(n))
    for n, queue in queues.items():
        stack_check(n, queue)
    return HarnessReport(
        trials=trials,
        worst_slack_svetlichny=worst["svetlichny"],
        worst_slack_mk=worst["mk"],
        worst_slack_covariance=worst["covariance"],
        worst_slack_covariance_distinct=worst["covariance_distinct"],
        worst_psd_eigen=worst["psd"],
        violations=violations,
        witnesses=witnesses,
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
    the search (best-so-far is still returned).  ``starts`` holds one
    (value reached, evaluations used, converged) triple per multistart, in
    start order."""

    angles: np.ndarray
    value: float
    evals: int
    converged: bool
    starts: tuple


def _setting_rows(params, n_parties: int, family: str) -> np.ndarray:
    """(B, N, 2, 3) unit Bloch vectors of each party's two settings, for
    each row of the (B, dims) ``params``.

    Planar params are (theta0, theta1) per party, each giving
    (cos theta, sin theta, 0); bloch params are (polar, azimuth) per
    setting, each giving (sin polar cos azimuth, sin polar sin azimuth,
    cos polar).
    """
    if family == "planar":
        theta = np.reshape(params, (-1, n_parties, 2))
        rows = np.zeros(theta.shape + (3,))
        rows[..., 0] = np.cos(theta)
        rows[..., 1] = np.sin(theta)
        return rows
    angles = np.reshape(params, (-1, n_parties, 2, 2))
    polar, azimuth = angles[..., 0], angles[..., 1]
    rows = np.empty(polar.shape + (3,))
    sin_polar = np.sin(polar)
    rows[..., 0] = sin_polar * np.cos(azimuth)
    rows[..., 1] = sin_polar * np.sin(azimuth)
    rows[..., 2] = np.cos(polar)
    return rows


def _tensor_value(tensor: np.ndarray, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(B,) values sum_s table[s] sum_k tensor[k] prod_p rows[b, p, s_p, k_p].

    ``tensor`` is a (3,)*N Pauli tensor, ``table`` a (2,)*N coefficient
    table and ``rows`` the (B, N, 2, 3) setting rows of B points.  Each
    party's rows contract its Pauli axis in turn, (B, S, 3, R) ->
    (B, S, 2, R), one batched matmul for a pass of points, so its setting
    axis lands after those of the parties before it: each point's result
    runs over the setting words in the table's own order.  Every point
    then takes its own dot with the table, so its value does not depend on
    B.  A pass takes all B points up to ``_BATCH_PARTIES`` parties and one
    point above it.
    """
    coefficients = table.ravel()
    per_pass = max(1, len(rows)) if rows.shape[1] <= _BATCH_PARTIES else 1
    values = []
    for first in range(0, len(rows), per_pass):
        points = rows[first:first + per_pass]
        corr = tensor.reshape(1, -1)
        for party in range(rows.shape[1]):
            corr = points[:, party, None] @ corr.reshape(len(corr), -1, 3, corr.shape[-1] // 3)
        values.extend(coefficients @ point for point in corr.reshape(len(points), -1))
    return np.array(values)


def _scenario_from_params(params, n_parties: int, family: str) -> MeasurementScenario:
    if family == "planar":
        return MeasurementScenario.planar(np.reshape(params, (n_parties, 2)).tolist())
    return MeasurementScenario.bloch(_setting_rows(params, n_parties, family)[0])


def _simplex(start: np.ndarray, tol: float, max_evals: int):
    """One Nelder-Mead search, as a generator: yields each point it needs
    and is sent that point's value; returns (best point, best value,
    evaluations used, converged flag).

    Reflection 1, expansion 2, contraction 0.5, shrink 0.5.  Stops when the
    simplex diameter (max vertex distance to the best, in the max norm)
    falls below tol, or the evaluation budget is exhausted.
    """
    dims = len(start)
    points = np.tile(np.array(start, dtype=float), (dims + 1, 1))
    points[1:][np.diag_indices(dims)] += NELDER_MEAD_STEP
    values = np.empty(dims + 1)
    evals = 0
    for index in range(dims + 1):
        values[index] = yield points[index]
        evals += 1
        if evals >= max_evals:
            first = int(values[:evals].argmin())
            return points[first], float(values[first]), evals, False
    while True:
        order = values.argsort(kind="stable")
        points = points[order]
        values = values[order]
        diameter = float(abs(points[1:] - points[0]).max())
        if diameter < tol:
            return points[0], float(values[0]), evals, True
        if evals >= max_evals:
            return points[0], float(values[0]), evals, False
        centroid = np.add.reduce(points[:-1], axis=0) / dims  # np.mean's arithmetic
        reflected = centroid + (centroid - points[-1])
        f_reflected = yield reflected
        evals += 1
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - points[-1])
            f_expanded = yield expanded
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
        f_contracted = yield contracted
        evals += 1
        if f_contracted < min(f_reflected, values[-1]):
            points[-1], values[-1] = contracted, f_contracted
            continue
        best = points[0]
        for index in range(1, dims + 1):
            points[index] = best + 0.5 * (points[index] - best)
            values[index] = yield points[index]
            evals += 1
            if evals >= max_evals:
                first = int(values.argmin())
                return points[first], float(values[first]), evals, False


def nelder_mead(
    objective: Callable[[np.ndarray], np.ndarray],
    starts: Iterable[np.ndarray],
    tol: float,
    max_evals: int,
) -> list[tuple[np.ndarray, float, int, bool]]:
    """Minimize from each start by Nelder-Mead, the searches in lockstep.

    ``objective`` maps a (B, dims) stack of points to their (B,) values.
    Each round stacks the one point that every live search waits on and
    calls ``objective`` once; a search's trajectory is the one it takes
    alone (see ``_simplex`` for its steps and exits).  At most
    ``LIVE_SEARCHES`` searches are live at once, and ``starts`` is read
    only when one of them ends, so B and the memory it takes stay bounded
    whatever the number of starts.  Returns one (best point, best value,
    evaluations used, converged flag) per start, in start order.
    """
    pending = enumerate(starts)
    results = {}
    live = []  # (start index, search, the point it waits on)
    while True:
        for index, start in itertools.islice(pending, LIVE_SEARCHES - len(live)):
            search = _simplex(start, tol, max_evals)
            live.append((index, search, next(search)))
        if not live:
            return [results[index] for index in range(len(results))]
        values = objective(np.array([point for _, _, point in live]))
        waiting = []
        for (index, search, _), value in zip(live, values.tolist(), strict=True):
            try:
                waiting.append((index, search, search.send(value)))
            except StopIteration as stop:
                results[index] = stop.value
        live = waiting


def _objective(config: OptimizerConfig) -> Callable[[np.ndarray], np.ndarray]:
    """The minimand of ``maximize_violation`` on GHZ_N, for a (B, dims)
    stack of points: minus |value| of the operator, or minus the gap."""
    n = config.n_parties
    state = ghz_state(n)
    if config.objective == "max-gap":

        def gap(batch: np.ndarray) -> np.ndarray:
            locals_ = _scenario_from_params(batch, n * len(batch), config.family).locals
            states = np.broadcast_to(state.amplitudes, (len(batch), 1 << n))
            etas = _etas("pure", states, locals_.reshape(len(batch), n, 2, 2, 2))
            return -(2.0 ** (n - 1) * math.sqrt(2.0) - svetlichny_bound(n, etas).min(axis=1))

        return gap
    table = (svetlichny(n, "-") if config.objective == "max-svetlichny" else mk(n)).table
    tensor = pauli_tensor(state)

    def value(batch: np.ndarray) -> np.ndarray:
        return -abs(_tensor_value(tensor, table, _setting_rows(batch, n, config.family)))

    return value


def maximize_violation(config: OptimizerConfig) -> OptimizationResult:
    """Multistart Nelder-Mead search on the GHZ_N state.

    Start points are uniform angles from a fixed internal stream, drawn in
    start order, so equal configs always return the same result.  The
    per-start budget is max_evals // multistarts (at least one simplex
    worth).  The starts run in lockstep through one ``nelder_mead`` call,
    which scores the pending points of all live searches together; each
    start reaches what it would reach alone.

    The state is fixed, so the operator objectives read its Pauli tensor T,
    computed once: a value is sum_s c_s sum_k T[k] prod_p n_p[s_p][k_p]
    over the settings' unit Bloch vectors n_p, contracted one party at a
    time for the whole batch, with no scenario or 2**N x 2**N operator per
    evaluation.  'max-gap' reads a batch's etas from one scenario of its B N
    parties, in one stacked call.  The best point is built into a validated
    scenario once, so the returned angles pass any scenario's checks.
    """
    n = config.n_parties
    dims = (2 if config.family == "planar" else 4) * n
    rng = SplitMix64(_SEARCH_SEED)
    per_start = max(config.max_evals // config.multistarts, dims + 2)
    starts = (
        np.array([2.0 * math.pi * rng.uniform() for _ in range(dims)], dtype=float)
        for _ in range(config.multistarts)
    )
    searches = nelder_mead(_objective(config), starts, tol=config.tol, max_evals=per_start)
    best_point, best_value, _, best_converged = min(searches, key=lambda search: search[1])
    _scenario_from_params(best_point, n, config.family)  # the 2x2 checks, once
    return OptimizationResult(
        angles=best_point,
        value=-best_value,
        evals=sum(used for _, _, used, _ in searches),
        converged=best_converged,
        starts=tuple((-value, used, converged) for _, value, used, converged in searches),
    )
