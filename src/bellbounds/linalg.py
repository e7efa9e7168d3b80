"""Dense complex linear algebra for N-qubit states and operators.

Operators are plain complex numpy matrices over 2**N-dimensional spaces;
party 1 occupies the leftmost (most significant) tensor slot.  Arrays are
frozen after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM_CAP = 4096  # 12 qubits; dense work above this is rejected
HERMITIAN_TOL = 1e-12
IMAG_TOL = 1e-10  # largest imaginary residue expectation() may discard
PSD_TOL = 1e-10

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


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two square matrices, capped at dimension 2**12."""
    left = _square(a)
    right = _square(b)
    dim = left.shape[0] * right.shape[0]
    if dim > DIM_CAP:
        raise InvariantViolation(
            f"tensor product dimension {dim} exceeds the {DIM_CAP} cap"
        )
    return np.kron(left, right)


def kron_chain(factors) -> np.ndarray:
    """Left-to-right Kronecker product of a nonempty sequence of matrices."""
    mats = list(factors)
    if not mats:
        raise ValueError("empty factor list")
    out = _square(mats[0])
    for mat in mats[1:]:
        out = tensor_product(out, mat)
    return out


def anticommutator(a, b) -> np.ndarray:
    """AB + BA for equally sized square matrices."""
    left = _square(a)
    right = _square(b)
    if left.shape != right.shape:
        raise ValueError(f"dimension mismatch: {left.shape} vs {right.shape}")
    return left @ right + right @ left


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
    invariants (unit norm, or Hermitian/unit-trace/PSD) and freeze the
    stored array.  ``kind`` is ``"pure"`` or ``"mixed"``.
    """

    __slots__ = ("n_parties", "kind", "amplitudes", "density")

    def __init__(self, n_parties, kind, amplitudes, density):
        self.n_parties = n_parties
        self.kind = kind
        self.amplitudes = amplitudes
        self.density = density

    @classmethod
    def pure(cls, amplitudes) -> "QuantumState":
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        n = _parties_for_dim(amps.size)
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > 1e-12:
            raise InvariantViolation(f"pure state has squared norm {norm_sq!r}")
        amps.setflags(write=False)
        return cls(n, "pure", amps, None)

    @classmethod
    def mixed(cls, density) -> "QuantumState":
        rho = np.array(_square(density))
        n = _parties_for_dim(rho.shape[0])
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


def expectation(state: QuantumState, observable) -> float:
    """<psi|O|psi> for pure states, Tr(rho O) for mixed; Hermitian O only.

    Raises InvariantViolation when O is not Hermitian within 1e-12 or the
    computed value keeps an imaginary residue above 1e-10.
    """
    obs = _square(observable)
    if obs.shape[0] != state.dim:
        raise ValueError(
            f"observable dimension {obs.shape[0]} does not match state dimension {state.dim}"
        )
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


def jacobi_eigenvalues(matrix, off_tol: float = 1e-13, max_sweeps: int = 100) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, ascending, by cyclic Jacobi.

    Sweeps every (p, q) pair with the Golub-Van Loan rotation (the root of
    t**2 + 2*theta*t - 1 = 0 of smaller magnitude) until the off-diagonal
    Frobenius norm drops to ``off_tol``.  Sized for the small correlation
    matrices built here; raises ArithmeticError if the sweep budget runs out.
    """
    arr = np.asarray(matrix)
    if np.iscomplexobj(arr):
        if arr.size and float(np.max(np.abs(arr.imag))) > HERMITIAN_TOL:
            raise ValueError("matrix has a non-real part")
        arr = arr.real
    a = np.array(arr, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    sym_defect = float(np.max(np.abs(a - a.T)))
    if sym_defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not symmetric: defect {sym_defect:.3e}")
    k = a.shape[0]
    if k == 1:
        return a.diagonal().copy()
    a = (a + a.T) / 2.0
    for _ in range(max_sweeps):
        # sum the off-diagonal squares directly: the textbook form
        # ||A||_F**2 - ||diag||**2 cancels and cannot resolve below
        # ~||A||**2 * eps, which is far above off_tol**2
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        off_sq = float(np.sum(off * off))
        if off_sq <= off_tol * off_tol:
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


def is_psd(matrix, tol: float = PSD_TOL) -> bool:
    """Whether the smallest eigenvalue is >= -tol * max(1, spectral norm)."""
    eigenvalues = jacobi_eigenvalues(matrix)
    spectral = float(np.max(np.abs(eigenvalues)))
    return bool(eigenvalues[0] >= -tol * max(1.0, spectral))


@dataclass(frozen=True)
class CovarianceWitness:
    """Correlation data M, V and the covariance matrix C = M - V V^T.

    ``m[i, j] = Re<{O_i, O_j}>/2``, ``v[i] = <O_i>``; C is PSD for any
    quantum state, which is what the randomized harness checks.
    """

    m: np.ndarray
    v: np.ndarray
    c: np.ndarray

    def scalar_reduction(self, m_parity: int) -> tuple[float, float]:
        """(lhs, rhs) of |<O0> + (-1)^m <O1>| <= sqrt(u^T M u), two observables only.

        u = (1, (-1)^m) is the contraction column; with unit diagonal the rhs
        is sqrt(2 + (-1)^m <{O0, O1}>).
        """
        if self.m.shape[0] != 2:
            raise ValueError("scalar reduction needs exactly two observables")
        if m_parity not in (0, 1):
            raise ValueError(f"m_parity must be 0 or 1, got {m_parity!r}")
        u = np.array([1.0, -1.0 if m_parity else 1.0])
        lhs = abs(float(u @ self.v))
        rhs = math.sqrt(max(float(u @ self.m @ u), 0.0))
        return lhs, rhs


def covariance_witness(state: QuantumState, operators) -> CovarianceWitness:
    """Build M, V, C for a sequence of Hermitian operators on one state."""
    mats = [_square(op) for op in operators]
    if not mats:
        raise ValueError("need at least one operator")
    for op in mats:
        if op.shape[0] != state.dim:
            raise ValueError(
                f"operator dimension {op.shape[0]} does not match state dimension {state.dim}"
            )
        defect = hermiticity_defect(op)
        if defect > HERMITIAN_TOL:
            raise InvariantViolation(f"operator is not Hermitian: defect {defect:.3e}")
    k = len(mats)
    if state.kind == "pure":
        applied = np.stack([op @ state.amplitudes for op in mats])
        gram = applied.conj() @ applied.T
        m = np.array(gram.real)
        v_complex = applied @ state.amplitudes.conj()
    else:
        halves = [state.density @ op for op in mats]
        m = np.empty((k, k))
        for i in range(k):
            for j in range(i, k):
                value = complex(np.einsum("ij,ji->", halves[i], mats[j]))
                m[i, j] = m[j, i] = value.real
        v_complex = np.array([complex(np.trace(h)) for h in halves])
    worst_imag = float(np.max(np.abs(v_complex.imag)))
    if worst_imag > IMAG_TOL:
        raise InvariantViolation(f"mean vector keeps imaginary residue {worst_imag:.3e}")
    v = np.array(v_complex.real)
    m = (m + m.T) / 2.0
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


def read_state_file(path) -> QuantumState:
    """Parse the plain-text state format.

    Line 1 is ``pure N`` or ``mixed N``.  A pure state follows with 2**N
    lines of ``re im``; a mixed one with 2**N rows of 2**N comma-joined
    ``re,im`` entries separated by whitespace.  Rejects anything violating
    the state invariants.
    """
    text = Path(path).read_text(encoding="ascii")
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise FileFormatError("empty state file")
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
    try:
        if head[0] == "pure":
            amps = np.empty(dim, dtype=complex)
            for row, line in enumerate(body):
                parts = line.split()
                if len(parts) != 2:
                    raise FileFormatError(f"row {row}: expected 're im', got {line!r}")
                amps[row] = complex(float(parts[0]), float(parts[1]))
            return QuantumState.pure(amps)
        rho = np.empty((dim, dim), dtype=complex)
        for row, line in enumerate(body):
            parts = line.split()
            if len(parts) != dim:
                raise FileFormatError(f"row {row}: expected {dim} entries, got {len(parts)}")
            for col, pair in enumerate(parts):
                pieces = pair.split(",")
                if len(pieces) != 2:
                    raise FileFormatError(f"row {row}: bad entry {pair!r}")
                rho[row, col] = complex(float(pieces[0]), float(pieces[1]))
        return QuantumState.mixed(rho)
    except FileFormatError:
        raise
    except ValueError as exc:
        raise FileFormatError(f"state file rejected: {exc}") from exc
