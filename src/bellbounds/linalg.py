"""Dense complex linear algebra for N-qubit states and operators.

Operators are plain complex numpy matrices over 2**N-dimensional spaces;
party 1 occupies the leftmost (most significant) tensor slot.  Arrays are
frozen after construction and safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM_CAP = 4096  # 12 qubits; dense work above this is rejected
HERMITIAN_TOL = 1e-12
IMAG_TOL = 1e-10  # largest imaginary residue expectation() may discard
PSD_TOL = 1e-10
JACOBI_OFF_TOL = 1e-13  # off-diagonal Frobenius norm at which Jacobi stops
JACOBI_MAX_SWEEPS = 100

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, ID2):
    _m.setflags(write=False)
del _m


class InvariantViolation(ValueError):
    """A mathematical invariant failed beyond its numerical tolerance."""


class FileFormatError(ValueError):
    """A state/scenario/term file is malformed or semantically invalid."""


def _square(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {arr.shape}")
    return arr


def hermiticity_defect(matrix) -> float:
    """Largest entrywise deviation of a matrix from its conjugate transpose."""
    arr = _square(matrix)
    return float(np.max(np.abs(arr - arr.conj().T)))


def kron_chain(factors) -> np.ndarray:
    """Left-to-right Kronecker product of a nonempty sequence of square
    matrices, rejected before any product is built when its dimension
    exceeds 2**12."""
    mats = [_square(mat) for mat in factors]
    if not mats:
        raise ValueError("empty factor list")
    dim = math.prod(mat.shape[0] for mat in mats)
    if dim > DIM_CAP:
        raise InvariantViolation(f"tensor product dimension {dim} exceeds the {DIM_CAP} cap")
    out = mats[0]
    for mat in mats[1:]:
        out = np.kron(out, mat)
    return out


def _parties_for_dim(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    if dim > DIM_CAP:
        raise InvariantViolation(f"dimension {dim} exceeds the {DIM_CAP} cap")
    return n


class QuantumState:
    """Pure state vector or density matrix over N qubits.

    Build through :meth:`pure` or :meth:`mixed`; both validate their
    invariants (a 1-D vector of finite entries and unit norm, or a finite
    Hermitian/unit-trace/PSD matrix)
    and freeze the stored array.  ``kind`` is ``"pure"`` or ``"mixed"``.
    """

    __slots__ = ("n_parties", "kind", "amplitudes", "density")

    def __init__(self, n_parties, kind, amplitudes, density):
        self.n_parties = n_parties
        self.kind = kind
        self.amplitudes = amplitudes
        self.density = density

    @classmethod
    def pure(cls, amplitudes) -> "QuantumState":
        amps = np.array(amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError(f"expected a 1-D amplitude vector, got shape {amps.shape}")
        n = _parties_for_dim(amps.size)
        if not np.isfinite(amps).all():
            raise InvariantViolation("pure state has a non-finite amplitude")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > 1e-12:
            raise InvariantViolation(f"pure state has squared norm {norm_sq!r}")
        amps.setflags(write=False)
        return cls(n, "pure", amps, None)

    @classmethod
    def mixed(cls, density) -> "QuantumState":
        rho = np.array(_square(density))
        n = _parties_for_dim(rho.shape[0])
        if not np.isfinite(rho).all():
            raise InvariantViolation("density matrix has a non-finite entry")
        defect = hermiticity_defect(rho)
        if defect > HERMITIAN_TOL:
            raise InvariantViolation(
                f"density matrix is not Hermitian: defect {defect:.3e}"
            )
        trace = complex(np.trace(rho))
        if abs(trace - 1.0) > 1e-12:
            raise InvariantViolation(f"density matrix has trace {trace!r}")
        smallest = float(np.linalg.eigvalsh(rho)[0])
        if smallest < -PSD_TOL:
            raise InvariantViolation(
                f"density matrix has eigenvalue {smallest:.3e} below -{PSD_TOL}"
            )
        rho.setflags(write=False)
        return cls(n, "mixed", None, rho)

    @property
    def dim(self) -> int:
        return 1 << self.n_parties

    def density_matrix(self) -> np.ndarray:
        if self.kind == "pure":
            return np.outer(self.amplitudes, self.amplitudes.conj())
        return self.density

    def __repr__(self):
        return f"QuantumState(kind={self.kind!r}, n_parties={self.n_parties})"


def ghz_state(n_parties: int) -> QuantumState:
    """(|0...0> + |1...1>)/sqrt(2) on 2..12 parties."""
    if not 2 <= n_parties <= 12:
        raise ValueError(f"GHZ party count must be in [2, 12], got {n_parties}")
    amps = np.zeros(1 << n_parties, dtype=complex)
    # sqrt(0.5) rather than 1/sqrt(2): its squared norm rounds one ulp
    # above 1, so degenerate correlation extremes land on the clamped
    # side instead of an ulp inside the interval.
    amps[0] = amps[-1] = math.sqrt(0.5)
    return QuantumState.pure(amps)


def reduced_state(state: QuantumState, parties) -> QuantumState:
    """Partial trace onto the listed parties (1-based), kept in the given order.

    The input is already validated, so the result is only symmetrized and frozen.
    """
    n = state.n_parties
    keep = [party - 1 for party in parties]
    if not keep or len(set(keep)) != len(keep) or not all(0 <= p < n for p in keep):
        raise ValueError(f"parties {tuple(parties)} must be distinct and in 1..{n}")
    order = keep + [p for p in range(n) if p not in keep]
    kept, traced = 1 << len(keep), 1 << (n - len(keep))
    if state.kind == "pure":
        psi = state.amplitudes.reshape((2,) * n).transpose(order).reshape(kept, traced)
        rho = psi @ psi.conj().T
    else:
        tensor = state.density.reshape((2,) * (2 * n))
        tensor = tensor.transpose(order + [n + p for p in order])
        rho = np.einsum("ajbj->ab", tensor.reshape(kept, traced, kept, traced))
    rho = (rho + rho.conj().T) / 2.0
    rho.setflags(write=False)
    return QuantumState(len(keep), "mixed", None, rho)


def product_mean(state: QuantumState, factors) -> complex:
    """<prod_p F_p> for a mapping of parties (1-based) to 2x2 factors.

    Parties without a factor carry the identity.  Each factor acts on its
    party's axis of the reshaped amplitude vector (N 2**N work) or of the
    density matrix's row index (N 4**N work), in party order, so no
    2**N x 2**N operator is built.  The product need not be Hermitian, so
    the mean comes back complex.
    """
    n = state.n_parties
    if not all(1 <= party <= n for party in factors):
        raise ValueError(f"parties {sorted(factors)} must lie in 1..{n}")
    ket = state.amplitudes if state.kind == "pure" else state.density
    applied = ket
    for party in sorted(factors):
        applied = factors[party] @ applied.reshape(1 << (party - 1), 2, -1)
    applied = applied.reshape(ket.shape)
    if state.kind == "pure":
        return complex(np.vdot(ket, applied))
    return complex(np.trace(applied))


def expectation(state: QuantumState, observable) -> float:
    """<psi|O|psi> for pure states, Tr(rho O) for mixed; Hermitian O only.

    Raises InvariantViolation when O has a non-finite entry, is not
    Hermitian within 1e-12, or the computed value keeps an imaginary
    residue above 1e-10.
    """
    obs = _square(observable)
    if obs.shape[0] != state.dim:
        raise ValueError(
            f"observable dimension {obs.shape[0]} does not match state dimension {state.dim}"
        )
    if not np.isfinite(obs).all():
        raise InvariantViolation("observable has a non-finite entry")
    defect = hermiticity_defect(obs)
    if defect > HERMITIAN_TOL:
        raise InvariantViolation(f"observable is not Hermitian: defect {defect:.3e}")
    if state.kind == "pure":
        value = complex(np.vdot(state.amplitudes, obs @ state.amplitudes))
    else:
        value = complex(np.einsum("ij,ji->", state.density, obs))
    if abs(value.imag) > IMAG_TOL:
        raise InvariantViolation(
            f"expectation keeps imaginary residue {value.imag:.3e}"
        )
    return value.real


def jacobi_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, ascending, by cyclic Jacobi.

    Sweeps every (p, q) pair with the Golub-Van Loan rotation (the root of
    t**2 + 2*theta*t - 1 = 0 of smaller magnitude) until the off-diagonal
    Frobenius norm drops to ``JACOBI_OFF_TOL``.  Sized for the small
    correlation matrices built here; raises ArithmeticError if
    ``JACOBI_MAX_SWEEPS`` sweeps do not get there, and ValueError for a
    complex, non-finite, non-square or asymmetric input.

    The rotations run on a list of row lists of Python floats: at k <= 12
    numpy's per-element indexing and slice copies cost several times the
    arithmetic.  One pass per rotation writes each rotated entry of columns
    p and q into its mirror slot in rows p and q, which relies on the exact
    symmetry the prologue enforces; the 2x2 (p, q) block is derived apart.
    With products in the numpy sweep's order (``tests/oracles.py``) and no
    fused multiply-add, the eigenvalues are the same bit for bit.
    """
    if np.iscomplexobj(matrix):
        raise ValueError("expected a real matrix, got a complex one")
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    sym_defect = float(np.max(np.abs(a - a.T)))
    if sym_defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not symmetric: defect {sym_defect:.3e}")
    k = a.shape[0]
    if k == 1:
        return a.diagonal().copy()
    rows = ((a + a.T) / 2.0).tolist()
    for _ in range(JACOBI_MAX_SWEEPS):
        # sum the off-diagonal squares directly: the textbook form
        # ||A||_F**2 - ||diag||**2 cancels and cannot resolve below
        # ~||A||**2 * eps, which is far above JACOBI_OFF_TOL**2
        off = np.array(rows)
        np.fill_diagonal(off, 0.0)
        off_sq = float(np.sum(off * off))
        if off_sq <= JACOBI_OFF_TOL * JACOBI_OFF_TOL:
            return np.sort(np.array([rows[i][i] for i in range(k)]))
        for p in range(k - 1):
            row_p = rows[p]
            for q in range(p + 1, k):
                row_q = rows[q]
                apq = row_p[q]
                if apq == 0.0:
                    continue
                app = row_p[p]
                aqq = row_q[q]
                theta = (aqq - app) / (2.0 * apq)
                # hypot keeps theta**2 from overflowing for denormal apq
                t = 1.0 / (abs(theta) + math.hypot(theta, 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for r, row in enumerate(rows):  # the (p, q) block is redone below
                    x = row[p]
                    y = row[q]
                    row[p] = row_p[r] = c * x - s * y
                    row[q] = row_q[r] = s * x + c * y
                row_p[p] = c * (c * app - s * apq) - s * (c * apq - s * aqq)
                row_q[q] = s * (s * app + c * apq) + c * (s * apq + c * aqq)
                row_p[q] = row_q[p] = 0.0
    raise ArithmeticError("Jacobi sweep budget exhausted before convergence")


@dataclass(frozen=True)
class CovarianceWitness:
    """Correlation data M, V and the covariance matrix C = M - V V^T.

    ``m[i, j] = Re<{O_i, O_j}>/2 = Re<O_i O_j>``, ``v[i] = <O_i>``; C is PSD
    for any quantum state, which is what the randomized harness checks.
    """

    m: np.ndarray
    v: np.ndarray
    c: np.ndarray


def covariance_witness(state: QuantumState, scenario) -> CovarianceWitness:
    """M, V, C for the 2N observables of a scenario on the same N parties.

    Observable i = 2 (p - 1) + s is party p's setting-s local.  Every entry
    is read from a 1- or 2-party reduced state, each taken once:
    ``v[i] = Tr(rho_p O_i)``, ``m[i, j] = Re Tr(rho_p O_i O_j)`` when both
    observables sit on party p, and ``Re Tr(rho_pq (O_i x O_j))`` otherwise.
    That is N + N (N - 1) / 2 partial traces, each O(2**N) work on a pure
    state and O(4**N) on a mixed one, and no full-space operator.
    """
    n = scenario.n_parties
    if state.n_parties != n:
        raise ValueError(f"state spans {state.n_parties} parties, scenario {n}")
    locals_ = np.array([[obs.local for obs in pair] for pair in scenario.pairs])
    v_complex = np.empty((n, 2), dtype=complex)
    m = np.empty((n, 2, n, 2))  # m[p, s, q, t] is entry (2 p + s, 2 q + t)
    for p in range(n):
        rho = reduced_state(state, (p + 1,)).density
        v_complex[p] = np.einsum("xy,iyx->i", rho, locals_[p])
        m[p, :, p] = np.einsum("xy,iyz,jzx->ij", rho, locals_[p], locals_[p]).real
    for p, q in itertools.combinations(range(n), 2):
        # rho[x y, z w] with x, z on p: Tr(rho (A x B)) = sum rho A[z, x] B[w, y]
        rho = reduced_state(state, (p + 1, q + 1)).density.reshape(2, 2, 2, 2)
        m[p, :, q] = np.einsum("xyzw,izx,jwy->ij", rho, locals_[p], locals_[q]).real
    worst_imag = float(np.max(np.abs(v_complex.imag)))
    if worst_imag > IMAG_TOL:
        raise InvariantViolation(f"mean vector keeps imaginary residue {worst_imag:.3e}")
    m = m.reshape(2 * n, 2 * n)
    m = np.triu(m) + np.triu(m, 1).T  # Re Tr(rho O_i O_j) for i <= j, mirrored
    v = v_complex.real.flatten()
    c = m - np.outer(v, v)
    for frozen in (m, v, c):
        frozen.setflags(write=False)
    return CovarianceWitness(m=m, v=v, c=c)


def write_state_file(state: QuantumState, path) -> None:
    """Serialize to the plain-text state format (see read_state_file)."""
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


def _data_lines(path, kind: str) -> list[str]:
    """The stripped nonblank lines of an input file, which must be ASCII."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{kind} file is not ASCII: {exc}") from exc
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise FileFormatError(f"empty {kind} file")
    return lines


def read_state_file(path) -> QuantumState:
    """Parse the plain-text state format.

    Line 1 is ``pure N`` or ``mixed N``.  A pure state follows with 2**N
    lines of ``re im``; a mixed one with 2**N rows of 2**N comma-joined
    ``re,im`` entries separated by whitespace.  Rejects anything violating
    the state invariants.
    """
    lines = _data_lines(path, "state")
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
