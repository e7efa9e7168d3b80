"""Closed-form references for the tests.

Everything here follows from two facts derived by hand, independent of the
library internals:

  * on a GHZ state the product of planar observables A(theta_1) ... A(theta_N)
    has mean cos(theta_1 + ... + theta_N);
  * for one party, A(a)A(b) = cos(a - b) I - i sin(a - b) sigma_z, so a pair
    (n, m) of parties sees anticommutator means driven only by the setting
    gaps delta = theta_0 - theta_1 of each party.

``dense_realize`` is the plain definition of a realized polynomial, one
Kronecker chain per term, kept as the dense reference for the library's
factored ``realize``; ``dense_covariance_inequality`` and
``dense_covariance_witness`` are the same for the two-block covariance
inequality and the harness's covariance matrix, on full 2**N x 2**N
operators.  ``random_states`` is the seeded pure and mixed input the
marginal routes are checked on, ``random_scenario_from`` the planar or
Bloch scenario that one harness trial draws from a stream, built on its
own, and ``random_scenario`` the same from a fresh seeded stream.
``numpy_jacobi_eigenvalues`` is the library's cyclic Jacobi sweep as it ran
on one numpy array, row and column slices at a time, kept as the bit-for-bit
reference for each matrix of the stacked sweep in ``linalg.jacobi_eigenvalues``.
``reduced_state`` is the partial trace of ``state.density_matrix()``
written out on its own, sharing no code with the library's stacked
marginals; ``reduced_state_eta`` and ``marginal_covariance_witness``
compute eta and the PSD witness with one ``reduced_state`` per marginal
and one trace per entry, the references for the library's ``eta``,
``classical_pair_report`` and stacked-marginal ``covariance_witness``.
``enumerated_permutation_invariance`` tries all N! party permutations, the
definition that the library's Hamming-weight rule in
``is_permutation_invariant`` is checked against.
``recursive_svetlichny`` and ``recursive_mk`` run the paper's recursions
on exact ``Fraction`` term dicts, the definitions that the library's
Hamming-weight closed forms in ``svetlichny`` and ``mk`` are checked
against.  ``dense_pauli_tensor`` is Tr(rho sigma_k1 x ... x sigma_kN) summed
entry by entry over rho, with each half's Pauli strings built by Kronecker
chains, the definition that the library's ``pauli_tensor`` (Paulis applied
to psi) is checked against.
``scalar_nelder_mead``, ``point_setting_rows`` and ``point_tensor_value``
are the optimizer's search and objective as they ran one point per call,
the bit-for-bit references for the library's lockstep ``nelder_mead`` and
its batched ``_setting_rows`` and ``_tensor_value``.
``text_write_state_file``, ``text_write_scenario_file``, ``text_data_lines``
and ``text_read_state_file`` are the file layer as it ran on whole-file
text, the references for the bytes the streamed writers produce and for
the arrays and messages of the streamed reader.
``scalar_normal`` is one Box-Muller draw on its own, the reference for the
block draws of ``SplitMix64.normals``.  ``slot_planar_observable``,
``slot_bloch_observable`` and ``slot_by_slot_locals`` build and check a
scenario one 2x2 slot at a time, and ``triple_loop_directions`` draws its
Bloch directions one triple at a time: the bit-for-bit references for the
stacked builders, the stacked check of ``MeasurementScenario`` and the
block draw of the harness's ``_scenario_draw``.
"""

import itertools
import math
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np


def dense_realize(polynomial, scenario) -> np.ndarray:
    """Sum of coeff * kron(A_1[s_1], ..., A_N[s_N]) over the (nonempty) terms.

    The terms are added as a balanced binary tree, so the summation error
    grows with the tree depth N rather than with the 2**N term count.
    """
    def term(settings, coeff):
        locals_ = [
            scenario.observable(party, s).local
            for party, s in enumerate(settings, start=1)
        ]
        return float(coeff) * reduce(np.kron, locals_)

    def tree(items):
        if len(items) == 1:
            return term(*items[0])
        mid = len(items) // 2
        return tree(items[:mid]) + tree(items[mid:])

    return tree(sorted(polynomial.terms.items()))


PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def dense_pauli_tensor(density) -> np.ndarray:
    """The (3,)*N array of Re Tr(rho sigma_k1 x ... x sigma_kN), k = x, y, z.

    Each half of the parties has its Pauli strings built as dense Kronecker
    chains, A over the first N // 2 parties and B over the rest, and the
    trace of rho (A x B) is summed entry by entry over rho's reshaped row
    and column indices, Tr(rho (A x B)) = sum rho[a b, c d] A[c, a] B[d, b],
    which costs 4**N per string pair without forming A x B.
    """
    n_parties = density.shape[0].bit_length() - 1
    half = n_parties // 2

    def strings(count):
        return np.array([
            reduce(np.kron, [PAULIS[i] for i in k], np.eye(1, dtype=complex))
            for k in itertools.product(range(3), repeat=count)
        ])

    left, right = strings(half), strings(n_parties - half)
    rho = density.reshape(left.shape[1], right.shape[1], left.shape[1], right.shape[1])
    traces = np.einsum("abcd,Kca,Rdb->KR", rho, left, right, optimize=True)
    return traces.real.reshape((3,) * n_parties)


def enumerated_permutation_invariance(polynomial) -> bool:
    """Whether every one of the N! party permutations leaves the terms unchanged."""
    reference = dict(polynomial.terms)
    for perm in itertools.permutations(range(polynomial.n_parties)):
        permuted = {tuple(key[i] for i in perm): coeff for key, coeff in reference.items()}
        if permuted != reference:
            return False
    return True


def _flip(settings) -> tuple:
    return tuple(1 - b for b in settings)


def _append_setting(contributions) -> dict:
    """Term dict of the sum of weight * terms * A_setting on a new last party."""
    total = {}
    for weight, terms, setting in contributions:
        for settings, coeff in terms.items():
            key = settings + (setting,)
            total[key] = total.get(key, 0) + Fraction(weight) * coeff
    return {key: coeff for key, coeff in total.items() if coeff != 0}


def recursive_svetlichny(n_parties: int, parity: str) -> dict:
    """S_N^{+/-} = S_{N-1}^{+/-} A0 -/+ S_{N-1}^{-/+} A1 from
    S_2^- = A0 A0 + A0 A1 + A1 A0 - A1 A1 and S_2^+ = -(S_2^-)', where '
    flips every setting."""
    minus = {(0, 0): Fraction(1), (0, 1): Fraction(1), (1, 0): Fraction(1), (1, 1): Fraction(-1)}
    plus = {_flip(k): -c for k, c in minus.items()}
    for _ in range(3, n_parties + 1):
        plus, minus = (
            _append_setting([(1, plus, 0), (-1, minus, 1)]),
            _append_setting([(1, minus, 0), (1, plus, 1)]),
        )
    return plus if parity == "+" else minus


def recursive_mk(n_parties: int) -> dict:
    """M_1 = A0 and M_N = (M_{N-1}(A0 + A1) + M'_{N-1}(A0 - A1))/2, times
    2**(N//2) so every surviving coefficient is +/-1."""
    current = {(0,): Fraction(1)}
    half = Fraction(1, 2)
    for _ in range(2, n_parties + 1):
        primed = {_flip(k): c for k, c in current.items()}
        current = _append_setting(
            [(half, current, 0), (half, current, 1), (half, primed, 0), (-half, primed, 1)]
        )
    return {k: c * (1 << (n_parties // 2)) for k, c in current.items()}


def anticommutator(a, b) -> np.ndarray:
    return a @ b + b @ a


def bloch_vector(local) -> np.ndarray:
    """(x, y, z) of a traceless Hermitian 2x2 local x X + y Y + z Z."""
    return np.array([local[0, 1].real, local[1, 0].imag, local[0, 0].real])


def dense_block(block, n_parties: int) -> np.ndarray:
    """Kronecker chain of the block's locals at their parties, identity elsewhere."""
    factors = [np.eye(2, dtype=complex)] * n_parties
    for obs in block:
        factors[obs.party - 1] = obs.local
    return reduce(np.kron, factors)


def dense_covariance_inequality(density, first, second, other, m_parity):
    """(lhs, radicand) of |<B_i C> + s <B_j C>| <= sqrt(2 + s <{B_i, B_j}>).

    s = (-1)**m_parity and <O> = Re Tr(rho O), which is also the mean of
    the Hermitian part of O, so the products B C need no symmetrizing.
    """
    n_parties = density.shape[0].bit_length() - 1
    b_i, b_j, c_op = (dense_block(b, n_parties) for b in (first, second, other))
    sign = -1.0 if m_parity else 1.0

    def mean(operator):
        return float(np.trace(density @ operator).real)

    lhs = abs(mean(b_i @ c_op) + sign * mean(b_j @ c_op))
    return lhs, 2.0 + sign * mean(anticommutator(b_i, b_j))


def dense_covariance_witness(density, observables):
    """(M, v, C) with M_ij = Re Tr(rho O_i O_j), v_i = Re Tr(rho O_i), C = M - v v^T.

    Each O_i is the observable's local embedded at its party by a Kronecker
    chain, so this is the definition on the full 2**N x 2**N space.
    """
    n_parties = density.shape[0].bit_length() - 1
    ops = [dense_block([obs], n_parties) for obs in observables]
    v = np.array([np.trace(density @ op).real for op in ops])
    m = np.array([[np.trace(density @ a @ b).real for b in ops] for a in ops])
    return m, v, m - np.outer(v, v)


def reduced_state(state, parties):
    """Partial trace onto the listed parties (1-based), kept in the given order.

    rho's row and column axes are each reordered as (kept, traced) and
    flattened to (K, T, K, T), and the traced block diagonal summed.  The
    result is symmetrized and validated as a mixed ``QuantumState``.
    """
    from bellbounds import QuantumState

    keep, n = tuple(parties), state.n_parties
    if not keep or len(set(keep)) != len(keep) or not all(1 <= p <= n for p in keep):
        raise ValueError(f"parties {keep} must be distinct and in 1..{n}")
    order = [p - 1 for p in keep] + [p for p in range(n) if p + 1 not in keep]
    kept, traced = 1 << len(keep), 1 << (n - len(keep))
    rho = state.density_matrix().reshape((2,) * (2 * n))
    rho = rho.transpose(order + [n + p for p in order]).reshape(kept, traced, kept, traced)
    rho = np.trace(rho, axis1=1, axis2=3)
    return QuantumState.mixed((rho + rho.conj().T) / 2.0)


def reduced_state_eta(scenario, state, party) -> float:
    """(<{A0, A1}>/2)**2 on the party's 2x2 reduced state, clamped to [0, 1].

    <{A0, A1}> = <(A0 + A1)**2> - 2 = 2 - <(A0 - A1)**2>, with <S**2> read as
    Re Tr(S rho S^dagger) and the smaller square kept.
    """
    first, second = (scenario.observable(party, s).local for s in (0, 1))
    rho = reduced_state(state, (party,)).density
    square_sum, square_diff = (
        float(np.real(np.vdot(op, op @ rho))) for op in (first + second, first - second)
    )
    anticommutator_mean = square_sum - 2.0 if square_sum <= square_diff else 2.0 - square_diff
    return min(max((0.5 * anticommutator_mean) ** 2, 0.0), 1.0)


def marginal_covariance_witness(state, scenario):
    """(M, v, C) of the 2N scenario observables, one reduced state at a time.

    v_i = Tr(rho_p O_i) and M_ij = Re Tr(rho_p O_i O_j) on one party,
    Re Tr(rho_pq (O_i x O_j)) across two, with one validated
    ``reduced_state`` and one einsum per party and per unordered pair.
    """
    n = scenario.n_parties
    locals_ = scenario.locals
    v = np.empty((n, 2))
    m = np.empty((n, 2, n, 2))
    for p in range(n):
        rho = reduced_state(state, (p + 1,)).density
        v[p] = np.einsum("xy,iyx->i", rho, locals_[p]).real
        m[p, :, p] = np.einsum("xy,iyz,jzx->ij", rho, locals_[p], locals_[p]).real
    for p, q in itertools.combinations(range(n), 2):
        rho = reduced_state(state, (p + 1, q + 1)).density.reshape(2, 2, 2, 2)
        m[p, :, q] = np.einsum("xyzw,izx,jwy->ij", rho, locals_[p], locals_[q]).real
        m[q, :, p] = m[p, :, q].T
    m = m.reshape(2 * n, 2 * n)
    v = v.flatten()
    return m, v, m - np.outer(v, v)


def numpy_jacobi_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues, ascending, of a finite real symmetric matrix by cyclic Jacobi.

    The same rotations, update order, stopping test and constants as
    ``linalg.jacobi_eigenvalues``, on a numpy array; input validation is
    left to the library.
    """
    from bellbounds.linalg import JACOBI_MAX_SWEEPS, JACOBI_OFF_TOL

    a = np.array(matrix, dtype=float)
    k = a.shape[0]
    if k == 1:
        return a.diagonal().copy()
    a = (a + a.T) / 2.0
    for _ in range(JACOBI_MAX_SWEEPS):
        # sum the off-diagonal squares directly: the textbook form
        # ||A||_F**2 - ||diag||**2 cancels and cannot resolve below
        # ~||A||**2 * eps, which is far above JACOBI_OFF_TOL**2
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        off_sq = float(np.sum(off * off))
        if off_sq <= JACOBI_OFF_TOL * JACOBI_OFF_TOL:
            return np.sort(np.diag(a).copy())
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                theta = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq)
                # hypot keeps theta**2 from overflowing for denormal apq
                t = 1.0 / (abs(theta) + math.hypot(theta, 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
    raise ArithmeticError("Jacobi sweep budget exhausted before convergence")


def random_states(seed, n_parties):
    """A Haar pure state and a rank-2 mixture on n_parties qubits."""
    # imported here, so that loading the closed forms does not load the package
    from bellbounds import QuantumState

    gen = np.random.default_rng(seed)
    dim = 1 << n_parties
    vecs = gen.normal(size=(2, dim)) + 1j * gen.normal(size=(2, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    weight = gen.uniform()
    rho = weight * np.outer(vecs[0], vecs[0].conj())
    rho += (1.0 - weight) * np.outer(vecs[1], vecs[1].conj())
    return QuantumState.pure(vecs[0]), QuantumState.mixed((rho + rho.conj().T) / 2.0)


def random_scenario_from(rng, n_parties, family):
    """The harness's scenario draw ("planar" or "bloch") from ``rng``, as
    one trial's own build: the reference for a slice of a queue's build."""
    from bellbounds.experiments import _scenario_draw
    from bellbounds.observables import MeasurementScenario

    return getattr(MeasurementScenario, family)(_scenario_draw(rng, n_parties, family))


def random_scenario(seed, n_parties, family="planar"):
    """The harness's scenario draw ("planar" or "bloch") from a fresh
    SplitMix64(seed) stream."""
    from bellbounds.rng import SplitMix64

    return random_scenario_from(SplitMix64(seed), n_parties, family)


def ghz_planar_correlator(thetas) -> float:
    return math.cos(math.fsum(thetas))


def poly_ghz_value(polynomial, scenario) -> float:
    """Mean of a realized +/-1 polynomial on GHZ via the cos-sum rule.

    The terms are added with ``math.fsum``, so the only rounding left is
    that of each cosine and of its angle sum.
    """
    terms = []
    for settings, coeff in polynomial.terms.items():
        thetas = [
            scenario.angles[party][setting]
            for party, setting in enumerate(settings)
        ]
        terms.append(float(coeff) * ghz_planar_correlator(thetas))
    return math.fsum(terms)


def chi_ghz_pair(delta_n: float, delta_m: float, sign: str) -> float:
    """chi for a GHZ pair from the two setting gaps."""
    if sign == "+":
        return 2.0 * math.cos(delta_n - delta_m)
    return 2.0 * math.cos(delta_n + delta_m)


def eta_from_gap(delta: float) -> float:
    return math.cos(delta) ** 2


# fig1: party 1 sweeps (alpha, pi/4), parties 2 and 3 fixed at (0, pi/2)
def fig1_value(alpha: float) -> float:
    root2 = math.sqrt(2.0)
    return 2.0 * root2 * math.cos(alpha + math.pi / 4) + 2.0 * root2


def fig1_party1_bound(alpha: float) -> float:
    return 4.0 * math.sqrt(1.0 + abs(math.sin(alpha - math.pi / 4)))


def fig1_party1_eta(alpha: float) -> float:
    return math.cos(alpha - math.pi / 4) ** 2


# fig2: every party sweeps (0, alpha)
def fig2_value(alpha: float) -> float:
    return (
        1.0
        + 3.0 * math.cos(alpha)
        - 3.0 * math.cos(2.0 * alpha)
        - math.cos(3.0 * alpha)
    )


def fig2_bound(alpha: float) -> float:
    return 4.0 * math.sqrt(1.0 + abs(math.sin(alpha)))


# fig3: party 1 sweeps (alpha, -pi/4), parties 2 and 3 fixed at (0, pi/2)
def fig3_value(alpha: float) -> float:
    return math.sqrt(2.0) - 2.0 * math.sin(alpha)


def fig3_pair12_bound(alpha: float) -> float:
    return 2.0 * math.sqrt(max(2.0 - 2.0 * math.sin(alpha + math.pi / 4), 0.0))


def scalar_nelder_mead(objective, start, tol, max_evals, exits=None):
    """One Nelder-Mead search, one objective call per point, as the library
    ran before its searches went into lockstep; returns (best point, best
    value, evaluations used, converged flag).  When given, ``exits`` gets
    the exit taken: "simplex", "top" (the budget, at the top of the loop),
    "shrink" or "converged"."""
    from bellbounds.experiments import NELDER_MEAD_STEP

    def leave(exit, point, value, converged):
        if exits is not None:
            exits.append(exit)
        return point, float(value), evals, converged

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
            return leave("simplex", points[first], values[first], False)
    while True:
        order = np.argsort(values, kind="stable")
        points = points[order]
        values = values[order]
        diameter = float(np.max(np.abs(points[1:] - points[0])))
        if diameter < tol:
            return leave("converged", points[0], values[0], True)
        if evals >= max_evals:
            return leave("top", points[0], values[0], False)
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
                return leave("shrink", points[first], values[first], False)


def point_setting_rows(params, n_parties, family):
    """(N, 2, 3) unit Bloch vectors of one point's settings: planar
    (cos theta, sin theta, 0) per angle, bloch (sin polar cos azimuth,
    sin polar sin azimuth, cos polar) per (polar, azimuth) pair."""
    if family == "planar":
        theta = np.reshape(params, (n_parties, 2))
        rows = np.zeros((n_parties, 2, 3))
        rows[..., 0] = np.cos(theta)
        rows[..., 1] = np.sin(theta)
        return rows
    angles = np.reshape(params, (n_parties, 2, 2))
    polar, azimuth = angles[..., 0], angles[..., 1]
    rows = np.empty((n_parties, 2, 3))
    sin_polar = np.sin(polar)
    rows[..., 0] = sin_polar * np.cos(azimuth)
    rows[..., 1] = sin_polar * np.sin(azimuth)
    rows[..., 2] = np.cos(polar)
    return rows


def point_tensor_value(tensor, table, rows) -> float:
    """sum_s table[s] sum_k tensor[k] prod_p rows[p, s_p, k_p] for one
    point's (N, 2, 3) rows, one party's (2, 3) rows at a time."""
    corr = tensor.reshape(1, -1)
    for party_rows in rows:
        corr = party_rows @ corr.reshape(-1, 3, corr.shape[-1] // 3)
    return float(table.ravel() @ corr.ravel())


def text_write_state_file(state, path) -> None:
    """The state writer as it ran on whole-file text: every line built,
    joined into one string and written at once."""
    lines = []
    if state.kind == "pure":
        lines.append(f"pure {state.n_parties}")
        for amp in state.amplitudes:
            lines.append(f"{float(amp.real)!r} {float(amp.imag)!r}")
    else:
        lines.append(f"mixed {state.n_parties}")
        for row in state.density:
            lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def text_write_scenario_file(scenario, path) -> None:
    """The scenario writer as it ran on whole-file text, for scenarios of
    the planar or Bloch form: a Bloch local (top, upper; lower, bottom)
    is written as (upper.real, lower.imag, (top.real - bottom.real) / 2)."""
    n = scenario.n_parties
    if scenario.angles is not None:
        lines = [f"parties {n} family planar"]
        lines += [f"{t0!r} {t1!r}" for t0, t1 in scenario.angles]
    else:
        lines = [f"parties {n} family bloch"]
        for pair in scenario.locals.tolist():
            comps = []
            for (top, upper), (lower, bottom) in pair:
                comps += [upper.real, lower.imag, (top.real - bottom.real) / 2.0]
            lines.append(" ".join(repr(c) for c in comps))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def text_data_lines(path, kind: str) -> list:
    """The stripped nonblank lines of an input file, which must be ASCII,
    read as one whole-file string."""
    from bellbounds import FileFormatError

    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{kind} file is not ASCII: {exc}") from exc
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise FileFormatError(f"empty {kind} file")
    return lines


def text_read_state_file(path):
    """The state reader as it ran on ``text_data_lines``: every check on
    the header and the row count before any row is parsed."""
    from bellbounds import FileFormatError, QuantumState

    lines = text_data_lines(path, "state")
    head = lines[0].split()
    if len(head) != 2 or head[0] not in ("pure", "mixed"):
        raise FileFormatError(f"bad state header {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise FileFormatError(f"bad party count in header: {head[1]!r}") from exc
    if not 1 <= n <= 12:
        raise FileFormatError(f"party count {n} outside [1, 12]")
    dim = 1 << n
    body = lines[1:]
    if len(body) != dim:
        raise FileFormatError(f"expected {dim} data rows, got {len(body)}")
    pure = head[0] == "pure"
    table = np.empty((dim, 2 if pure else 2 * dim))  # re, im pairs, row by row
    try:
        for row, line in enumerate(body):
            fields = line.split()
            if pure:
                if len(fields) != 2:
                    raise FileFormatError(f"row {row}: expected 're im', got {line!r}")
            else:
                if len(fields) != dim:
                    raise FileFormatError(f"row {row}: expected {dim} entries, got {len(fields)}")
                bad = [pair for pair in fields if pair.count(",") != 1]
                if bad:
                    raise FileFormatError(f"row {row}: bad entry {bad[0]!r}")
                fields = line.replace(",", " ").split()
            table[row] = fields
        entries = table.view(complex)
        return QuantumState.pure(entries[:, 0]) if pure else QuantumState.mixed(entries)
    except FileFormatError:
        raise
    except ValueError as exc:
        raise FileFormatError(f"state file rejected: {exc}") from exc


def scalar_normal(rng) -> float:
    """One Box-Muller draw as ``SplitMix64.normal`` made it alone, on the
    stream's own state and pending spare: the reference for ``normals``."""
    if rng._spare is not None:
        value, rng._spare = rng._spare, None
        return value
    u1 = rng.uniform()
    u2 = rng.uniform()
    r = math.sqrt(-2.0 * math.log(1.0 - u1))
    a = 2.0 * math.pi * u2
    rng._spare = r * math.sin(a)
    return r * math.cos(a)


def slot_planar_observable(theta) -> np.ndarray:
    """cos(theta) sigma_x + sin(theta) sigma_y for one angle, as the scalar
    builder made it."""
    from bellbounds.linalg import SIGMA_X, SIGMA_Y

    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    return math.cos(theta) * SIGMA_X + math.sin(theta) * SIGMA_Y


def slot_bloch_observable(nx, ny, nz) -> np.ndarray:
    """n.sigma / |n| for one direction, as the scalar builder made it."""
    from bellbounds.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z

    comps = (float(nx), float(ny), float(nz))
    if not all(math.isfinite(c) for c in comps):
        raise ValueError(f"direction must be finite, got {comps!r}")
    norm = math.sqrt(sum(c * c for c in comps))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    return (comps[0] * SIGMA_X + comps[1] * SIGMA_Y + comps[2] * SIGMA_Z) / norm


def slot_by_slot_locals(pairs) -> np.ndarray:
    """The (N, 2, 2, 2) locals of a scenario built one slot at a time: each
    local checked by ``validate_dichotomic`` in party order, the first
    failure raised, and stored as A when A equals its adjoint exactly, else
    as (A + A^H) / 2.  The reference for ``MeasurementScenario``."""
    from bellbounds import InvariantViolation
    from bellbounds.observables import validate_dichotomic

    slots = []
    for party, pair in enumerate(pairs, start=1):
        first, second = pair
        for setting, local in enumerate((first, second)):
            arr = np.array(local, dtype=complex)
            report = validate_dichotomic(arr)
            if report is not None:
                raise InvariantViolation(f"party {party} setting {setting}: {report}")
            (a, b), (c, d) = arr.tolist()
            if a.imag or d.imag or b != c.conjugate():
                arr = (arr + arr.conj().T) / 2.0
            slots.append(arr)
    if not slots:
        raise ValueError("scenario needs at least one party")
    return np.array(slots).reshape(-1, 2, 2, 2)


def slot_by_slot_planar(angles) -> np.ndarray:
    """Planar locals, one scalar builder call per slot."""
    return slot_by_slot_locals(
        (slot_planar_observable(t0), slot_planar_observable(t1)) for t0, t1 in angles
    )


def slot_by_slot_bloch(directions) -> np.ndarray:
    """Bloch locals, one scalar builder call per slot."""
    return slot_by_slot_locals(
        (slot_bloch_observable(*d0), slot_bloch_observable(*d1)) for d0, d1 in directions
    )


def triple_loop_directions(normal, n_parties) -> list:
    """The harness's Bloch draw one triple at a time from the zero-argument
    ``normal``: per party, setting 0 then 1, each a triple of normals drawn
    again while its norm is 0."""
    directions = []
    for _ in range(n_parties):
        pair = []
        for _ in range(2):
            while True:
                direction = (normal(), normal(), normal())
                if math.sqrt(sum(c * c for c in direction)) > 0.0:
                    break
            pair.append(direction)
        directions.append((pair[0], pair[1]))
    return directions
