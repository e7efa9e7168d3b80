"""Dense complex linear algebra for N-qubit states and operators.

Operators are plain complex numpy matrices over 2**N-dimensional spaces;
party 1 occupies the leftmost (most significant) tensor slot.  Arrays are
frozen after construction and safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

DIM_CAP = 4096  # 12 qubits; dense work above this is rejected
HERMITIAN_TOL = 1e-12
IMAG_TOL = 1e-10  # largest imaginary residue expectation() may discard
PSD_TOL = 1e-10
JACOBI_OFF_TOL = 1e-13  # off-diagonal Frobenius norm at which Jacobi stops
JACOBI_MAX_SWEEPS = 100
_SLAB_ROWS = 64  # rows per pass of hermiticity_defect: 2 MB temporaries at 2**12
_CHUNK = 1 << 16  # bytes per read of an input file

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
_PAULIS = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, ID2, _PAULIS):
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
    """Largest entrywise deviation of a matrix from its conjugate transpose,
    taken over slabs of _SLAB_ROWS rows, so no full-size temporary is made;
    a max is exact, so the value is that of the one-shot form (NaN too)."""
    arr = _square(matrix)
    worst = 0.0
    for top in range(0, len(arr), _SLAB_ROWS):
        slab = arr[top:top + _SLAB_ROWS] - arr[:, top:top + _SLAB_ROWS].conj().T
        worst = np.max(np.abs(slab), initial=worst)  # a NaN carries through
    return float(worst)


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
    def mixed(cls, density, copy: bool = True) -> "QuantumState":
        """``copy=False`` validates and freezes, in place, a square complex
        array that no caller holds any more, such as a freshly read table."""
        rho = np.array(_square(density), copy=copy)
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


def _state_array(state: QuantumState) -> np.ndarray:
    """The amplitude vector of a pure state, the density matrix of a mixed one."""
    return state.amplitudes if state.kind == "pure" else state.density


def _marginals(state: QuantumState, parties) -> np.ndarray:
    """The K = 1 case of :func:`_stacked_marginals` for one state."""
    return _stacked_marginals(state.kind, _state_array(state)[None], parties)[0]


def _stacked_marginals(kind: str, states: np.ndarray, parties) -> np.ndarray:
    """(K, len(parties), 2**k, 2**k) stack of partial traces of K states of
    one kind, given as a (K, 2**N) amplitude or (K, 2**N, 2**N) density
    stack, onto each tuple of k distinct 1-based parties, kept in its order;
    neither symmetrized nor validated.  psi psi^H after moving psi's kept
    axes first (pure), or one einsum tracing rho's row and column axes in
    place (mixed): O(2**(N+k)) per state, each state's product or trace the
    same as on its own."""
    count = states.shape[0]
    n = states.shape[-1].bit_length() - 1
    size = 1 << len(parties[0])
    out = np.empty((count, len(parties), size, size), dtype=complex)
    for index, keep in enumerate(parties):
        kept = [party - 1 for party in keep]
        if kind == "pure":
            order = [0] + [p + 1 for p in kept + [p for p in range(n) if p not in kept]]
            psi = states.reshape((count,) + (2,) * n).transpose(order).reshape(count, size, -1)
            out[:, index] = psi @ psi.conj().transpose(0, 2, 1)
        else:  # a traced party's row and column axes share one label; 2 N labels the stack
            cols = [n + p if p in kept else p for p in range(n)]
            rho = states.reshape((count,) + (2,) * (2 * n))
            marginal = np.einsum(
                rho, [2 * n, *range(n), *cols], [2 * n] + kept + [n + p for p in kept]
            )
            out[:, index] = marginal.reshape(count, size, size)
    return out


def _party_count(state: QuantumState, other, *parties, what: str = "scenario") -> int:
    """The party count N of ``other`` (a scenario or an operator), after
    checking that ``state`` spans the same N parties and that the listed
    1-based parties are distinct and lie in 1..N."""
    n = other.n_parties
    if state.n_parties != n:
        raise ValueError(f"state spans {state.n_parties} parties, {what} {n}")
    if len({p for p in parties if 1 <= p <= n}) != len(parties):
        raise ValueError(f"parties {list(parties)} must be distinct and in 1..{n}")
    return n


def _real_part(values, what: str):
    """The real part of complex means, which may discard at most IMAG_TOL."""
    worst_imag = float(np.max(np.abs(np.imag(values))))
    if worst_imag > IMAG_TOL:
        raise InvariantViolation(f"{what} keeps imaginary residue {worst_imag:.3e}")
    return np.real(values)


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


def pauli_tensor(state: QuantumState) -> np.ndarray:
    """The real (3,)*N tensor T[k1, ..., kN] = <sigma_k1 x ... x sigma_kN>
    of a pure state, with k = 0, 1, 2 for x, y, z.

    The parties split into a left and a right half.  Each half applies its
    3**half Pauli strings to psi, one party's axis at a time, and stacks the
    results as rows, L and R; the Paulis on different halves commute, so
    T = conj(L) R^T, one matrix product.  That is O(3**N 2**N) work, and
    the two complex 3**(N/2) x 2**N stacks take 48 MB each at N = 12; no
    2**N x 2**N operator is built.  Raises ValueError on a mixed state and
    InvariantViolation when an entry keeps an imaginary residue above 1e-10.
    """
    if state.kind != "pure":
        raise ValueError("the Pauli tensor is computed for pure states only")
    n = state.n_parties

    def stacked(parties):
        rows = state.amplitudes.reshape(1, -1)
        for party in parties:
            # rows[c, a, j, b] with j on the party's axis -> [c, k, a, i, b]
            split = rows.reshape(rows.shape[0], 1 << party, 2, -1)
            rows = (_PAULIS[None, :, None] @ split[:, None]).reshape(3 * rows.shape[0], -1)
        return rows

    half = n // 2
    product = stacked(range(half)).conj() @ stacked(range(half, n)).T
    tensor = np.ascontiguousarray(_real_part(product, "Pauli tensor")).reshape((3,) * n)
    tensor.setflags(write=False)
    return tensor


def jacobi_eigenvalues(matrices) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, ascending, by cyclic Jacobi.

    Takes one (k, k) matrix, giving a (k,) array, or a (K, k, k) stack,
    giving (K, k) rows.  Sweeps every (p, q) pair with the Golub-Van Loan
    rotation (the root of t**2 + 2*theta*t - 1 = 0 of smaller magnitude)
    until a matrix's off-diagonal Frobenius norm drops to
    ``JACOBI_OFF_TOL``; that matrix then leaves the stack.  Sized for the
    small correlation matrices built here; raises ArithmeticError if
    ``JACOBI_MAX_SWEEPS`` sweeps do not get there, and ValueError for a
    complex, non-finite, non-square or asymmetric input, naming the matrix's
    index in a stack.

    Each rotation runs on the whole stack at once, held as a (k, k, K)
    array: the matrices whose (p, q) entry is not exactly 0 rotate columns
    p and q in one elementwise pass, which also gives rows p and q by
    symmetry, and rows p and q of the rotated columns, rotated in turn,
    give the 2x2 (p, q) block.  The rotation angle takes ``math.hypot``
    per matrix.  Every matrix sees the products, the pair order and the
    stopping sums (``np.sum`` over its k * k off-diagonal squares) of the
    numpy sweep in ``tests/oracles.py``, with no fused multiply-add, so its
    eigenvalues are the same bit for bit, in a stack or on their own.
    """
    single = np.ndim(matrices) == 2
    name = "matrix" if single else "matrix {}"
    if np.iscomplexobj(matrices):
        index = 0 if single else next(i for i, m in enumerate(matrices) if np.iscomplexobj(m))
        raise ValueError(f"{name.format(index)} is complex, expected a real one")
    a = np.array(matrices, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValueError(f"expected a nonempty square matrix or a stack, got shape {a.shape}")
    if single:
        a = a[None]
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"{name.format(np.argmin(finite))} has a non-finite entry")
    sym_defect = np.max(np.abs(a - a.transpose(0, 2, 1)), axis=(1, 2))
    if np.any(sym_defect > HERMITIAN_TOL):
        index = int(np.argmax(sym_defect > HERMITIAN_TOL))
        raise ValueError(
            f"{name.format(index)} is not symmetric: defect {sym_defect[index]:.3e}"
        )
    k = a.shape[1]
    values = a.diagonal(axis1=1, axis2=2).copy()
    if k == 1:
        return values[0] if single else values
    a = np.ascontiguousarray(((a + a.transpose(0, 2, 1)) / 2.0).transpose(1, 2, 0))
    live = np.arange(a.shape[2])
    diagonal = np.arange(k)
    for _ in range(JACOBI_MAX_SWEEPS):
        # sum the off-diagonal squares directly: the textbook form
        # ||A||_F**2 - ||diag||**2 cancels and cannot resolve below
        # ~||A||**2 * eps, which is far above JACOBI_OFF_TOL**2
        off = a.transpose(2, 0, 1).copy()
        off[:, diagonal, diagonal] = 0.0
        off_sq = np.sum((off * off).reshape(live.size, -1), axis=1)
        done = off_sq <= JACOBI_OFF_TOL * JACOBI_OFF_TOL
        if done.any():
            values[live[done]] = np.sort(a[diagonal, diagonal][:, done].T, axis=1)
            live, a = live[~done], a[:, :, ~done]
            if not live.size:
                return values[0] if single else values
        # theta is inf for a denormal a[p, q], silently, as on Python floats
        with np.errstate(over="ignore"):
            for p in range(k - 1):
                for q in range(p + 1, k):
                    if a[p, q].all():
                        _jacobi_rotate(a, p, q)
                    elif a[p, q].any():  # only the matrices whose a[p, q] is not exactly 0
                        turning = np.flatnonzero(a[p, q])
                        part = a[:, :, turning]
                        _jacobi_rotate(part, p, q)
                        a[:, :, turning] = part
    raise ArithmeticError("Jacobi sweep budget exhausted before convergence")


def _jacobi_rotate(a: np.ndarray, p: int, q: int) -> None:
    """One Jacobi rotation, in place, of every matrix in the (k, k, K) stack
    ``a``, all of whose (p, q) entries are nonzero."""
    col_p, col_q = a[:, p], a[:, q]
    app, aqq, apq = col_p[p], col_q[q], col_q[p]
    theta = (aqq - app) / (2.0 * apq)
    # hypot keeps theta**2 from overflowing for denormal apq
    t = 1.0 / (np.abs(theta) + np.array([math.hypot(x, 1.0) for x in theta.tolist()]))
    np.negative(t, out=t, where=theta < 0.0)
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    new_p = c * col_p - s * col_q
    new_q = s * col_p + c * col_q
    # rows p and q of the rotated columns, rotated in turn, are the new
    # (p, q) block
    new_p[p], new_q[q] = c * new_p[p] - s * new_p[q], s * new_q[p] + c * new_q[q]
    new_p[q] = new_q[p] = 0.0
    a[:, p] = a[p] = new_p
    a[:, q] = a[q] = new_q


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
    """M, V, C for the 2N observables of a scenario on the same N parties:
    the K = 1 case of :func:`_covariance_stack`, frozen."""
    _party_count(state, scenario)
    stacks = _covariance_stack(state.kind, _state_array(state)[None], scenario.locals[None])
    m, v, c = (stack[0] for stack in stacks)
    for frozen in (m, v, c):
        frozen.setflags(write=False)
    return CovarianceWitness(m=m, v=v, c=c)


def _covariance_stack(kind: str, states: np.ndarray, locals_: np.ndarray) -> tuple:
    """(M, V, C) stacks of shapes (K, 2N, 2N), (K, 2N), (K, 2N, 2N) for K
    states of one kind (as :func:`_stacked_marginals` takes them), each with
    its own (N, 2, 2, 2) scenario locals in a (K, N, 2, 2, 2) stack.

    Observable i = 2 (p - 1) + s is party p's setting-s local.  The stacked
    1- and 2-party marginals, each taken once, give ``v[i] = Tr(rho_p O_i)``,
    ``m[i, j] = Re Tr(rho_p O_i O_j)`` on one party and
    ``Re Tr(rho_pq (O_i x O_j))`` across two, one batched einsum per stack:
    N + N (N - 1) / 2 marginals of O(2**N) work per state, and no
    full-space operator.  Each state's entries are the same bit for bit as
    on its own.
    """
    count, n = locals_.shape[:2]
    singles = _stacked_marginals(kind, states, [(p,) for p in range(1, n + 1)])
    # A batch of one 1-party marginal would take einsum's unbuffered loop,
    # which sums in another order; two copies keep every batch on one loop.
    twice = 2 if count * n == 1 else 1
    means = np.einsum("Kpxy,Kpiyx->Kpi", *(x.repeat(twice, 0) for x in (singles, locals_)))
    v = _real_part(means[:count], "mean vector").reshape(count, 2 * n)
    m = np.empty((count, n, 2, n, 2))  # m[k, p, s, q, t] is entry (2 p + s, 2 q + t)
    same = np.arange(n)
    same_party = np.einsum("Kpxy,Kpiyz,Kpjzx->Kpij", singles, locals_, locals_)
    m[:, same, :, same] = same_party.real.swapaxes(0, 1)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if pairs:  # rho[x y, z w] with x, z on p: Tr(rho (A x B)) = sum rho A[z, x] B[w, y]
        first, second = np.array(pairs).T - 1
        rho = _stacked_marginals(kind, states, pairs).reshape(count, -1, 2, 2, 2, 2)
        cross = np.einsum("KPxyzw,KPizx,KPjwy->KPij", rho, locals_[:, first], locals_[:, second])
        m[:, first, :, second] = cross.real.swapaxes(0, 1)
    m = m.reshape(count, 2 * n, 2 * n)
    m = np.triu(m) + np.triu(m, 1).transpose(0, 2, 1)  # Re Tr(rho O_i O_j) for i <= j, mirrored
    return m, v, m - v[:, :, None] * v[:, None, :]


def write_state_file(state: QuantumState, path) -> None:
    """Serialize to the plain-text state format (see read_state_file), one
    row at a time, each float as its ``repr``."""
    pure = state.kind == "pure"
    row_format = ("%r %r" if pure else " ".join(["%r,%r"] * state.dim)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as out:
        out.write(f"{state.kind} {state.n_parties}\n")
        for row in state.amplitudes[:, None] if pure else state.density:
            out.write(row_format % tuple(row.view(float).tolist()))


def _data_lines(path, kind: str):
    """Yield the stripped nonblank lines of an ASCII input file, reading it
    in _CHUNK-byte pieces and holding one line of text at a time; lines
    break as in ``str.splitlines``, a CR LF split across two pieces too."""
    empty = True
    with open(path, "rb") as handle:
        for number, line in enumerate(_text_lines(handle), start=1):
            if not line.isascii():  # latin-1 maps each byte back, for the message
                try:
                    line.encode("latin-1").decode("ascii")
                except UnicodeDecodeError as exc:
                    message = f"{kind} file is not ASCII: line {number}: {exc}"
                    raise FileFormatError(message) from exc
            if line := line.strip():
                empty = False
                yield line
    if empty:
        raise FileFormatError(f"empty {kind} file")


def _text_lines(handle):
    """The lines of a binary file, each byte read as its latin-1 character,
    with their breaks."""
    tail = ""
    while chunk := handle.read(_CHUNK):
        lines = (tail + chunk.decode("latin-1")).splitlines(keepends=True)
        tail = lines.pop()  # it may be cut short, or end in a CR that a LF completes
        yield from lines
    if tail:
        yield tail


def _rows(lines, expected: int, what: str):
    """Yield (index, line) for the first ``expected`` lines; the rest are
    counted, not parsed, and any other count raises at the end."""
    count = 0
    for count, line in enumerate(lines, start=1):
        if count <= expected:
            yield count - 1, line
    if count != expected:
        raise FileFormatError(f"expected {expected} {what}, got {count}")


def _load_state(spec: str, other, what: str) -> QuantumState:
    """GHZ on the parties of ``other`` (a scenario or an operator) for
    ``"ghz"``, else the state file at path ``spec``, which must span them."""
    state = ghz_state(other.n_parties) if spec == "ghz" else read_state_file(spec)
    _party_count(state, other, what=what)
    return state


def read_state_file(path) -> QuantumState:
    """Parse the plain-text state format.

    Line 1 is ``pure N`` or ``mixed N``.  A pure state follows with 2**N
    lines of ``re im``; a mixed one with 2**N rows of 2**N comma-joined
    ``re,im`` entries separated by whitespace.  Rejects anything violating
    the state invariants; of several faults, the first in the file.
    """
    lines = _data_lines(path, "state")
    head = (first := next(lines)).split()
    if len(head) != 2 or head[0] not in ("pure", "mixed"):
        raise FileFormatError(f"bad state header {first!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise FileFormatError(f"bad party count in header: {head[1]!r}") from exc
    if not 1 <= n <= 12:
        raise FileFormatError(f"party count {n} outside [1, 12]")
    dim = 1 << n
    pure = head[0] == "pure"
    table = np.empty((dim, 2 if pure else 2 * dim))  # re, im pairs, row by row
    for row, line in _rows(lines, dim, "data rows"):
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
            fields = ",".join(fields).split(",")
        try:
            table[row] = fields
        except ValueError as exc:
            raise FileFormatError(f"row {row}: bad number: {exc}") from exc
    entries = table.view(complex)
    try:
        return QuantumState.pure(entries[:, 0]) if pure else QuantumState.mixed(entries, copy=False)
    except ValueError as exc:
        raise FileFormatError(f"state file rejected: {exc}") from exc
