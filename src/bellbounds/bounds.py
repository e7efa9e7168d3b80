"""Correlation-refined quantum bounds for Svetlichny and MK operators.

The refinements replace the flat 2**(N-1) sqrt(2) ceiling with bounds
driven by measured correlations: one party's local anticommutator (eta)
for the Svetlichny family, and bipartite cross-setting anticommutators
(chi) for the odd-N MK family.  eta reads the scenario's Bloch vectors;
chi is one batched sum of squares over the stacked 4x4 pair marginals.
Both kernels take a leading stack axis of K states; the public functions
are their K = 1 case.  eta's +-I branch and quad_corr read the state
through those marginals too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN_TOL,
    IMAG_TOL,
    InvariantViolation,
    QuantumState,
    _marginals,
    _party_count,
    _real_part,
    _stacked_marginals,
    _state_array,
    hermiticity_defect,
    product_mean,
)
from .observables import DichotomicObservable, MeasurementScenario, _bloch_form

CLAMP_TOL = 1e-10
SQRT2 = math.sqrt(2.0)
_CHI_SLICE = 8  # states per pass of _chis: bounds its (K, P, 2, 4, 4) temporaries


def _clamped(value: float, low: float, high: float, what: str) -> float:
    if not low - CLAMP_TOL <= value <= high + CLAMP_TOL:  # also rejects NaN
        raise InvariantViolation(
            f"{what} = {value!r} lies outside [{low}, {high}] beyond tolerance"
        )
    return min(max(value, low), high)


def _pair_operator(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """kron(first, second) for stacks of 2x2 factors, over their leading axes."""
    product = first[..., :, None, :, None] * second[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (4, 4))


def _etas(kind: str, states: np.ndarray, locals_: np.ndarray) -> np.ndarray:
    """(K, N) etas (<{A, C}>/2)**2, clamped to [0, 1], of each party's
    settings A = a0 I + a.sigma and C = c0 I + c.sigma, for K states of one
    kind (as _stacked_marginals takes them), each with its own (N, 2, 2, 2)
    locals in a (K, N, 2, 2, 2) stack.

    <{A, C}>/2 = a.c - a0 c0 + a0 <C> + c0 <A>, with 2 a.c read by the
    sum-of-squares branch of _chis on |a +- c|**2 and |a|**2 + |c|**2 =
    2 - a0**2 - c0**2.  Traceless locals give (a.c)**2 on every state; only
    when a local is +-I are the 1-party marginals read, every party's in one
    call, for <A> and <C> in one einsum.  Each state's etas are the same
    bit for bit as on its own.
    """
    traces, vectors = _bloch_form(locals_)
    a0, c0, a, c = traces[..., 0], traces[..., 1], vectors[..., 0, :], vectors[..., 1, :]
    squares = np.square([a + c, a - c])  # |a + c|**2, then |a - c|**2, summed in order
    square_sum, square_diff = squares[..., 0] + squares[..., 1] + squares[..., 2]
    norms = 2.0 - a0 * a0 - c0 * c0
    twice_dot = np.where(square_sum <= square_diff, square_sum - norms, norms - square_diff)
    half_mean = 0.5 * twice_dot - a0 * c0
    traced = (a0 != 0.0) | (c0 != 0.0)
    if traced.any():
        singles = _stacked_marginals(kind, states, [(p,) for p in range(1, a0.shape[1] + 1)])
        means = _real_part(np.einsum("Kpxy,Kpsyx->Kps", singles, locals_)[traced], "eta means")
        half_mean[traced] += a0[traced] * means[:, 1] + c0[traced] * means[:, 0]
    etas = half_mean * half_mean
    for trial, party in np.argwhere(~(etas <= 1.0 + CLAMP_TOL))[:1]:  # raises; NaN too
        _clamped(float(etas[trial, party]), 0.0, 1.0, f"eta({party + 1})")
    return np.minimum(etas, 1.0)


def eta(scenario: MeasurementScenario, state: QuantumState, party: int) -> float:
    """(<{A, C}>/2)**2 for one party's settings A and C, clamped to [0, 1]:
    the K = 1 case of the stacked kernel of best_svetlichny_bound."""
    _party_count(state, scenario, party)
    return float(_etas(state.kind, _state_array(state)[None], scenario.locals[None])[0, party - 1])


def svetlichny_bound(n_parties: int, eta_value):
    """2**(N-1) sqrt(1 + sqrt(1 - eta)); 2**(N-1) sqrt(2) at eta = 0.

    Takes one eta, giving a float, or an array of them, elementwise.
    """
    if n_parties < 2:
        raise ValueError(f"party count must be >= 2, got {n_parties}")
    etas = np.asarray(eta_value, dtype=float)
    if not np.all((etas >= 0.0) & (etas <= 1.0)):  # NaN too
        raise ValueError(f"eta must lie in [0, 1], got {eta_value!r}")
    values = 2.0 ** (n_parties - 1) * np.sqrt(1.0 + np.sqrt(1.0 - etas))
    return values if values.ndim else float(values)


def _chis(locals_: np.ndarray, marginals: np.ndarray, pairs) -> np.ndarray:
    """(chi+, chi-) of each listed pair (n, m) as a (K, P, 2) array, clamped
    to [-2, 2], for K states given by their (K, P, 4, 4) pair marginals,
    each with its own (N, 2, 2, 2) locals in a (K, N, 2, 2, 2) stack.

    chi+ pairs P = A0(n)A1(m) with Q = A1(n)A0(m); chi- pairs A0(n)A0(m)
    with A1(n)A1(m).  Both square to the identity, so <{P, Q}> =
    <(P + Q)**2> - 2 = 2 - <(P - Q)**2>, with <S**2> = Re Tr(S rho S^dagger)
    on the stacked pair marginals, one batched pass for every pair and sign
    of _CHI_SLICE states.  Keeping the smaller square holds the error
    quadratic near both extremes, so -2 and +2 are reached exactly instead
    of an ulp inside, which the bounds' square roots would amplify to
    ~1e-8.  Each state's values are the same bit for bit as on its own.
    """
    first_party, second_party = ([pair[i] - 1 for pair in pairs] for i in (0, 1))
    values = np.empty(marginals.shape[:2] + (2,))
    for top in range(0, len(values), _CHI_SLICE):
        part = slice(top, top + _CHI_SLICE)
        an, am = locals_[part, first_party], locals_[part, second_party]
        first = _pair_operator(an[:, :, [0, 0]], am[:, :, [1, 0]])  # '+' crosses m's settings
        second = _pair_operator(an[:, :, [1, 1]], am[:, :, [0, 1]])
        density = marginals[part, :, None]
        square_sum, square_diff = (
            np.einsum("...ij,...ij->...", op.conj(), op @ density).real
            for op in (first + second, first - second)
        )
        values[part] = np.where(square_sum <= square_diff, square_sum - 2.0, 2.0 - square_diff)
    for k, index, sign in np.argwhere(~(np.abs(values) <= 2.0 + CLAMP_TOL))[:1]:  # raises; NaN too
        _clamped(float(values[k, index, sign]), -2.0, 2.0, f"chi{'+-'[sign]}{pairs[index]}")
    return np.clip(values, -2.0, 2.0)


def chi(
    scenario: MeasurementScenario, state: QuantumState, n: int, m: int
) -> tuple[float, float]:
    """(chi+, chi-): bipartite cross-setting anticommutator means, clamped to [-2, 2].

    The K = 1 case of the stacked kernel of best_mk_bound, on the one pair (n, m).
    """
    _party_count(state, scenario, n, m)
    marginals = _marginals(state, [(n, m)])[None]
    return tuple(_chis(scenario.locals[None], marginals, [(n, m)])[0, 0].tolist())


def mk_bound_odd(n_parties: int, chi_plus, chi_minus):
    """2**(N-3) (sqrt(2 + chi+) + sqrt(2 - chi-)) for odd N >= 3.

    Takes one chi pair, giving a float, or two arrays of them, elementwise.
    """
    if n_parties < 3 or n_parties % 2 == 0:
        raise ValueError(f"need an odd party count >= 3, got {n_parties}")
    plus, minus = chis = np.asarray([chi_plus, chi_minus], dtype=float)
    if not np.all(np.abs(chis) <= 2.0):  # NaN too
        raise ValueError(
            f"chi_plus and chi_minus must lie in [-2, 2], got {chi_plus!r}, {chi_minus!r}"
        )
    values = 2.0 ** (n_parties - 3) * (
        np.sqrt(np.maximum(2.0 + plus, 0.0)) + np.sqrt(np.maximum(2.0 - minus, 0.0))
    )
    return values if values.ndim else float(values)


def mk_bound_classical_pair(n_parties: int, quad_corr: float) -> float:
    """2**(N-2) sqrt(1 + sqrt(1 - q**2)) with q = <A0 A1 A0 A1> on the pair."""
    if n_parties < 3 or n_parties % 2 == 0:
        raise ValueError(f"need an odd party count >= 3, got {n_parties}")
    if not -1.0 <= quad_corr <= 1.0:
        raise ValueError(f"quad_corr must lie in [-1, 1], got {quad_corr!r}")
    return 2.0 ** (n_parties - 2) * math.sqrt(
        1.0 + math.sqrt(max(1.0 - quad_corr * quad_corr, 0.0))
    )


@dataclass(frozen=True)
class BoundReport:
    """A refined bound plus the correlations that produced it.

    kind is 'svetlichny', 'mk-odd' or 'mk-classical-pair'; witness carries
    the minimizing party or pair with its correlation values.
    known_tsirelson is the family's flat ceiling 2**(N-1) sqrt(2); classical
    and algebraic are the matching reference lines for the kind.
    """

    kind: str
    n_parties: int
    value: float
    witness: dict
    known_tsirelson: float
    classical: float
    algebraic: float

    def to_text(self) -> str:
        lines = [
            f"kind={self.kind}",
            f"n_parties={self.n_parties}",
            f"value={self.value:.15g}",
        ]
        for key in sorted(self.witness):
            entry = self.witness[key]
            if isinstance(entry, tuple):
                rendered = ",".join(str(part) for part in entry)
            elif isinstance(entry, float):
                rendered = f"{entry:.15g}"
            else:
                rendered = str(entry)
            lines.append(f"witness_{key}={rendered}")
        lines.append(f"known_tsirelson={self.known_tsirelson:.15g}")
        lines.append(f"classical={self.classical:.15g}")
        lines.append(f"algebraic={self.algebraic:.15g}")
        return "\n".join(lines) + "\n"


def best_svetlichny_bound(
    scenario: MeasurementScenario, state: QuantumState
) -> BoundReport:
    """Minimum over parties of the eta-refined Svetlichny bound.

    Ties keep the lowest party index.
    """
    n = scenario.n_parties
    if n < 2:
        raise ValueError(f"need at least 2 parties, got {n}")
    _party_count(state, scenario)
    etas = _etas(state.kind, _state_array(state)[None], scenario.locals[None])[0]
    values = svetlichny_bound(n, etas)
    best = int(np.argmin(values))
    return BoundReport(
        kind="svetlichny",
        n_parties=n,
        value=float(values[best]),
        witness={"party": best + 1, "eta": float(etas[best])},
        known_tsirelson=2.0 ** (n - 1) * SQRT2,
        classical=2.0 ** (n - 1),
        algebraic=2.0**n,
    )


def best_mk_bound(scenario: MeasurementScenario, state: QuantumState) -> BoundReport:
    """Minimum over party pairs of the chi-refined odd-N MK bound.

    chi+-(n, m) and chi+-(m, n) are means of the same two operators, so each
    of the N(N-1)/2 unordered pairs is scanned once, as (n, m) with n < m,
    in one stacked pass that reads both signs of every pair from its
    marginal; ties keep the lexicographically first pair.  Even N has no chi
    refinement here (its MK operator is a signed Svetlichny operator, so the
    eta path applies instead).
    """
    n = scenario.n_parties
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd party count >= 3, got {n}")
    _party_count(state, scenario)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chis = _chis(scenario.locals[None], _marginals(state, pairs)[None], pairs)[0]
    values = mk_bound_odd(n, chis[:, 0], chis[:, 1])
    best = int(np.argmin(values))
    return BoundReport(
        kind="mk-odd",
        n_parties=n,
        value=float(values[best]),
        witness={
            "pair": pairs[best],
            "chi_plus": float(chis[best, 0]),
            "chi_minus": float(chis[best, 1]),
        },
        known_tsirelson=2.0 ** (n - 1) * SQRT2,
        classical=2.0 ** (n - 2),
        algebraic=2.0 ** (n - 1),
    )


def classical_pair_report(
    scenario: MeasurementScenario, state: QuantumState, n: int, m: int
) -> BoundReport:
    """Bound report for a pair whose settings mutually commute.

    quad_corr is <A0(n) A1(n) A0(m) A1(m)> on the pair's 2-party marginal.
    Each party's product A0 A1 must be Hermitian within HERMITIAN_TOL,
    which holds exactly when its two settings commute; that is checked on
    the 2x2 locals before the state is read.
    """
    parties = _party_count(state, scenario, n, m)
    settings = scenario.locals[[n - 1, m - 1]]
    products = settings[:, 0] @ settings[:, 1]  # A0 A1 of party n, then of m
    for party, product in zip((n, m), products):
        defect = hermiticity_defect(product)
        if defect > HERMITIAN_TOL:
            raise InvariantViolation(
                f"party {party}: settings do not commute, A0 A1 has Hermitian defect {defect:.3e}"
            )
    rho = _marginals(state, [(n, m)])[0].reshape(2, 2, 2, 2)  # rho[x y, z w], x and z on n
    value = _real_part(np.einsum("xyzw,zx,wy->", rho, *products), f"quad_corr({n},{m})")
    quad = _clamped(float(value), -1.0, 1.0, f"quad_corr({n},{m})")
    return BoundReport(
        kind="mk-classical-pair",
        n_parties=parties,
        value=mk_bound_classical_pair(parties, quad),
        witness={"pair": (n, m), "quad_corr": quad},
        known_tsirelson=2.0 ** (parties - 1) * SQRT2,
        classical=2.0 ** (parties - 2),
        algebraic=2.0 ** (parties - 1),
    )


@dataclass(frozen=True)
class CovarianceInequality:
    """One evaluated two-block inequality; slack = rhs - lhs."""

    lhs: float
    rhs: float
    slack: float
    m_parity: int


def _by_party(block, name: str) -> dict:
    """Map each observable's party to its 2x2 local; one entry per party."""
    factors = {}
    for obs in block:
        if not isinstance(obs, DichotomicObservable):
            raise TypeError(f"{name} block entries must be DichotomicObservable")
        if obs.party in factors:
            raise ValueError(f"{name} block repeats party {obs.party}")
        factors[obs.party] = obs.local
    return factors


def covariance_inequality(
    state: QuantumState, first, second, other
) -> tuple[CovarianceInequality, CovarianceInequality]:
    """|<B_i C> + (-1)^m <B_j C>| <= sqrt(2 + (-1)^m <{B_i, B_j}>), for m = 0 and 1.

    Each block is a sequence of DichotomicObservable, at most one per party,
    standing for the product of their locals (identity on the other
    parties): ``first`` and ``second`` are B_i and B_j on one block,
    ``other`` is C on the complementary block.  The inequality is
    block-symmetric, so either block may play X.  The locals were validated
    when built, and C commutes with B_i and B_j because its parties are
    disjoint from theirs, so only that structure is checked.  Three product
    means are read once -- <B_i C>, <B_j C> and <{B_i, B_j}> = 2 Re<B_i B_j>
    -- each at N 2**N (pure) or N 4**N (mixed) cost, and both parities of m
    are evaluated from them; the records come back in m order (0, then 1).
    """
    b_i, b_j, c_op = (
        _by_party(block, name)
        for name, block in (("first", first), ("second", second), ("other", other))
    )
    shared = sorted((b_i.keys() | b_j.keys()) & c_op.keys())
    if shared:
        raise ValueError(f"other block shares parties {shared} with first/second")
    correlators = []
    for block in (b_i, b_j):
        value = product_mean(state, {**block, **c_op})
        if abs(value.imag) > IMAG_TOL:
            raise InvariantViolation(
                f"block correlator keeps imaginary residue {value.imag:.3e}"
            )
        correlators.append(value.real)
    pair = dict(b_i)
    for party, local in b_j.items():
        pair[party] = pair[party] @ local if party in pair else local
    anticommutator_mean = 2.0 * product_mean(state, pair).real
    records = []
    for m_parity, sign in ((0, 1.0), (1, -1.0)):
        lhs = abs(correlators[0] + sign * correlators[1])
        rhs = math.sqrt(max(2.0 + sign * anticommutator_mean, 0.0))
        records.append(
            CovarianceInequality(lhs=lhs, rhs=rhs, slack=rhs - lhs, m_parity=m_parity)
        )
    return records[0], records[1]
