"""Correlation-refined quantum bounds for Svetlichny and MK operators.

The refinements replace the flat 2**(N-1) sqrt(2) ceiling with bounds
driven by measured correlations: one party's local anticommutator (eta)
for the Svetlichny family, and bipartite cross-setting anticommutators
(chi) for the odd-N MK family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    InvariantViolation,
    QuantumState,
    anticommutator,
    expectation,
    reduced_state,
)
from .observables import MeasurementScenario, validate_dichotomic

CLAMP_TOL = 1e-10
COMMUTATION_TOL = 1e-10
SQRT2 = math.sqrt(2.0)


def _clamped(value: float, low: float, high: float, what: str) -> float:
    if value < low - CLAMP_TOL or value > high + CLAMP_TOL:
        raise InvariantViolation(
            f"{what} = {value!r} lies outside [{low}, {high}] beyond tolerance"
        )
    return min(max(value, low), high)


def _reduced(scenario, state: QuantumState, *parties: int) -> QuantumState:
    if state.n_parties != scenario.n_parties:
        raise ValueError(
            f"state spans {state.n_parties} parties, scenario {scenario.n_parties}"
        )
    return reduced_state(state, parties)


def _pair_operator(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """kron(first, second) for 2x2 factors, without np.kron's call overhead."""
    return (first[:, None, :, None] * second[None, :, None, :]).reshape(4, 4)


def _mean_square(state: QuantumState, operator: np.ndarray) -> float:
    """<operator**2> = Tr(O rho O^dagger) on a reduced (mixed) state."""
    return float(np.real(np.vdot(operator, operator @ state.density)))


def _anticommutator_mean(
    state: QuantumState, first: np.ndarray, second: np.ndarray
) -> float:
    """<{first, second}> for operators that square to the identity.

    Uses {P, Q} = (P + Q)**2 - 2 = 2 - (P - Q)**2 and keeps whichever
    sum-of-squares branch is small, so the error stays quadratic near
    both extremes and the values -2 and +2 are reached exactly instead
    of stalling an ulp inside, which the bounds' square roots would
    amplify to ~1e-8.
    """
    square_sum = _mean_square(state, first + second)
    square_diff = _mean_square(state, first - second)
    if square_sum <= square_diff:
        return square_sum - 2.0
    return 2.0 - square_diff


def eta(scenario: MeasurementScenario, state: QuantumState, party: int) -> float:
    """(<{A0, A1}>/2)**2 on one party's 2x2 reduced state, clamped to [0, 1]."""
    first, second = (scenario.observable(party, s).local for s in (0, 1))
    local = _reduced(scenario, state, party)
    half_mean = 0.5 * _anticommutator_mean(local, first, second)
    return _clamped(half_mean * half_mean, 0.0, 1.0, f"eta({party})")


def svetlichny_bound(n_parties: int, eta_value: float) -> float:
    """2**(N-1) sqrt(1 + sqrt(1 - eta)); 2**(N-1) sqrt(2) at eta = 0."""
    if n_parties < 2:
        raise ValueError(f"party count must be >= 2, got {n_parties}")
    if not 0.0 <= eta_value <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta_value!r}")
    return 2.0 ** (n_parties - 1) * math.sqrt(1.0 + math.sqrt(1.0 - eta_value))


def chi(
    scenario: MeasurementScenario,
    state: QuantumState,
    n: int,
    m: int,
    sign: str,
) -> float:
    """Bipartite cross-setting anticommutator mean, clamped to [-2, 2].

    sign '+' pairs A0(n)A1(m) with A1(n)A0(m); sign '-' pairs A0(n)A0(m)
    with A1(n)A1(m).  The products square to the identity, so the mean over
    the pair's 4x4 reduced state uses _anticommutator_mean's sum of squares.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    an = [scenario.observable(n, s).local for s in (0, 1)]
    am = [scenario.observable(m, s).local for s in (0, 1)]
    if sign == "+":
        am.reverse()  # '+' crosses the settings of m
    first, second = (_pair_operator(an[s], am[s]) for s in (0, 1))
    value = _anticommutator_mean(_reduced(scenario, state, n, m), first, second)
    return _clamped(value, -2.0, 2.0, f"chi{sign}({n},{m})")


def mk_bound_odd(n_parties: int, chi_plus: float, chi_minus: float) -> float:
    """2**(N-3) (sqrt(2 + chi+) + sqrt(2 - chi-)) for odd N >= 3."""
    if n_parties < 3 or n_parties % 2 == 0:
        raise ValueError(f"need an odd party count >= 3, got {n_parties}")
    for name, value in (("chi_plus", chi_plus), ("chi_minus", chi_minus)):
        if not -2.0 <= value <= 2.0:
            raise ValueError(f"{name} must lie in [-2, 2], got {value!r}")
    return 2.0 ** (n_parties - 3) * (
        math.sqrt(max(2.0 + chi_plus, 0.0)) + math.sqrt(max(2.0 - chi_minus, 0.0))
    )


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
    the minimizing party or ordered pair with its correlation values.
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
    best_party = None
    best_eta = None
    best_value = None
    for party in range(1, n + 1):
        e = eta(scenario, state, party)
        value = svetlichny_bound(n, e)
        if best_value is None or value < best_value:
            best_party, best_eta, best_value = party, e, value
    return BoundReport(
        kind="svetlichny",
        n_parties=n,
        value=best_value,
        witness={"party": best_party, "eta": best_eta},
        known_tsirelson=2.0 ** (n - 1) * SQRT2,
        classical=2.0 ** (n - 1),
        algebraic=2.0**n,
    )


def best_mk_bound(scenario: MeasurementScenario, state: QuantumState) -> BoundReport:
    """Minimum over ordered party pairs of the chi-refined odd-N MK bound.

    All N(N-1) ordered pairs are scanned; ties keep the lexicographically
    first pair.  Even N has no chi refinement here (its MK operator is a
    signed Svetlichny operator, so the eta path applies instead).
    """
    n = scenario.n_parties
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need an odd party count >= 3, got {n}")
    best_pair = None
    best_chis = None
    best_value = None
    for first in range(1, n + 1):
        for second in range(1, n + 1):
            if first == second:
                continue
            cp = chi(scenario, state, first, second, "+")
            cm = chi(scenario, state, first, second, "-")
            value = mk_bound_odd(n, cp, cm)
            if best_value is None or value < best_value:
                best_pair = (first, second)
                best_chis = (cp, cm)
                best_value = value
    return BoundReport(
        kind="mk-odd",
        n_parties=n,
        value=best_value,
        witness={
            "pair": best_pair,
            "chi_plus": best_chis[0],
            "chi_minus": best_chis[1],
        },
        known_tsirelson=2.0 ** (n - 1) * SQRT2,
        classical=2.0 ** (n - 2),
        algebraic=2.0 ** (n - 1),
    )


def classical_pair_report(
    scenario: MeasurementScenario, state: QuantumState, n: int, m: int
) -> BoundReport:
    """Bound report for a pair whose settings mutually commute.

    quad_corr is <A0(n) A1(n) A0(m) A1(m)>; the product must be Hermitian,
    which holds exactly when each party's two observables commute.  It is
    read on the pair's 4x4 reduced state.
    """
    parties = scenario.n_parties
    local_n, local_m = (
        scenario.observable(p, 0).local @ scenario.observable(p, 1).local
        for p in (n, m)
    )
    pair = _reduced(scenario, state, n, m)
    value = expectation(pair, _pair_operator(local_n, local_m))
    quad = _clamped(value, -1.0, 1.0, f"quad_corr({n},{m})")
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
    side: str
    m_parity: int


def covariance_inequality(
    state: QuantumState,
    first,
    second,
    other,
    m_parity: int,
    side: str = "X",
) -> CovarianceInequality:
    """|<B_i C> + (-1)^m <B_j C>| <= sqrt(2 + (-1)^m <{B_i, B_j}>).

    ``first`` and ``second`` are the same-block dichotomic operators (the X
    block for side 'X', the Y block for side 'Y'); ``other`` is a single
    dichotomic operator on the complementary block and must commute with
    both within 1e-10.  The inequality itself is block-symmetric; ``side``
    records which reading produced it.
    """
    if side not in ("X", "Y"):
        raise ValueError(f"side must be 'X' or 'Y', got {side!r}")
    if m_parity not in (0, 1):
        raise ValueError(f"m_parity must be 0 or 1, got {m_parity!r}")
    mats = []
    for name, op in (("first", first), ("second", second), ("other", other)):
        arr = np.asarray(op, dtype=complex)
        report = validate_dichotomic(arr)
        if report is not None:
            raise InvariantViolation(f"{name} operator is not dichotomic: {report}")
        if arr.shape[0] != state.dim:
            raise ValueError(
                f"{name} operator dimension {arr.shape[0]} does not match state "
                f"dimension {state.dim}"
            )
        mats.append(arr)
    b_i, b_j, c_op = mats
    for name, block in (("first", b_i), ("second", b_j)):
        residue = float(np.max(np.abs(block @ c_op - c_op @ block)))
        if residue > COMMUTATION_TOL:
            raise InvariantViolation(
                f"{name} operator does not commute with the other block: "
                f"residue {residue:.3e}"
            )
    sign = -1.0 if m_parity else 1.0
    # products are Hermitian only up to the commutation residue; symmetrize
    # before the expectation's 1e-12 hermiticity gate
    prod_i = b_i @ c_op
    prod_i = (prod_i + prod_i.conj().T) / 2.0
    prod_j = b_j @ c_op
    prod_j = (prod_j + prod_j.conj().T) / 2.0
    lhs = abs(expectation(state, prod_i) + sign * expectation(state, prod_j))
    rhs = math.sqrt(
        max(2.0 + sign * expectation(state, anticommutator(b_i, b_j)), 0.0)
    )
    return CovarianceInequality(
        lhs=lhs, rhs=rhs, slack=rhs - lhs, side=side, m_parity=m_parity
    )
