"""Metamorphic checks of the stacked correlation routes and the operator values.

Relabelling the qubits together with the scenario's parties, or applying a
local unitary U_p to each qubit of the state and U_p A U_p^dagger to each of
its locals, leaves every correlation unchanged.  So the covariance witness
follows the relabelling (and keeps its spectrum), both refined bounds keep
their values, and their witness party or pair moves with the relabelling.
These guard the axis order of the stacked 1- and 2-party marginals.  The
Svetlichny and MK values are permutation invariant, so they keep their
values under both moves, through ``realize`` + ``expectation`` and through
the optimizer's batched Pauli-tensor contraction, whose setting rows turn
by the SO(3) rotation of U_p; the batch holds N + 1 points, so a batch
axis read as a party axis shows.

Tolerances, with u = eps / 2.  ``tests/test_linalg.py`` derives that any
marginal route puts each witness entry within 8 (2**N + 16) eps of the
exact value for its input; a relabelled input is exact, so two routes
differ by twice that.  A local rotation, one 2x2 product per party and per
side of rho, moves rho's entries by at most 6 u |U| |rho| |U^dagger| per
party, and each mean by at most 6 u sum |rho_ij| <= 6 u 2**N (3 u for
psi), so C by 18 u 2**N per party, again within 8 (2**N + 16) eps.  The
eigenvalues move by at most the spectral norm of the difference, which
is at most 2N times its largest entry (Weyl).

Operator values, on Haar pure states, per unit of sum |c|: the tensor route
is within E_T = (2**N + 3 + 6N) 2**N u of the exact value and the dense
route within E_D = (4N + 2**(N+1) + 4) 2**N u (both derived in
``tests/test_experiments.py::TestTensorObjective``), so a relabelling,
which moves the inputs exactly, leaves two values within 2 E.  A rotation
also moves the inputs.  With d the largest |U_p^dagger U_p - I|, each U_p
is within d of a unitary W_p (its polar factor), and each party's 2x2
product adds 6 u, so the rotated psi is within N (d + 6 u) of
(x W_p) psi, which moves a mean of a norm-1 operator by at most three
times that.  A rotated local is within 2 d + d**2 of W A W^dagger and
within 12 u of U A U^dagger entrywise, 24 u in norm; a rotated Bloch row
is within 6 d + 45 u of its exact turn (R's entries are within 2 d of
W's rotation and 12 u of their own rounding, each row sum adds 3 u).  A
correlator moves by at most N e (1 + e)**(N - 1) when each of its N
factors moves by e in norm.
"""

import itertools
import math
import time

import numpy as np
import pytest

from bellbounds import (
    MeasurementScenario,
    QuantumState,
    best_mk_bound,
    best_svetlichny_bound,
    chi,
    expectation,
    mk,
    realize,
    svetlichny,
)
from bellbounds.experiments import _setting_rows, _tensor_value
from bellbounds.linalg import covariance_witness, pauli_tensor

from oracles import PAULIS, bloch_vector, random_scenario, random_states

U = np.finfo(float).eps / 2
PARTIES = range(2, 9)


def witness_tol(n_parties: int, rotations: int = 0) -> float:
    return (2 + rotations) * 8 * ((1 << n_parties) + 16) * 2 * U


def on_party(matrix, rows, party):
    """matrix applied to the party's (0-based) axis of rows' first index."""
    return (matrix @ rows.reshape(1 << party, 2, -1)).reshape(rows.shape)


def permuted(state, scenario, perm):
    """New party j + 1 is old party perm[j] + 1, in the state and the scenario."""
    n = state.n_parties
    if state.kind == "pure":
        amps = state.amplitudes.reshape((2,) * n).transpose(perm).reshape(-1)
        moved = QuantumState.pure(amps)
    else:
        axes = [*perm, *(n + p for p in perm)]
        rho = state.density.reshape((2,) * (2 * n)).transpose(axes)
        moved = QuantumState.mixed(rho.reshape(state.dim, state.dim))
    return moved, MeasurementScenario(scenario.locals[list(perm)])


def rotated(state, scenario, unitaries):
    """U_p on each qubit of the state, and U_p A U_p^dagger on each local."""
    if state.kind == "pure":
        amps = state.amplitudes
        for party, unitary in enumerate(unitaries):
            amps = on_party(unitary, amps, party)
        moved = QuantumState.pure(amps)
    else:
        rho = state.density
        for party, unitary in enumerate(unitaries):
            rho = on_party(unitary.conj(), on_party(unitary, rho, party).T, party).T
        moved = QuantumState.mixed(rho)
    pairs = [
        [unitary @ local @ unitary.conj().T for local in pair]
        for unitary, pair in zip(unitaries, scenario.locals)
    ]
    return moved, MeasurementScenario(pairs)


def random_unitaries(seed, n_parties):
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(n_parties):
        q, r = np.linalg.qr(gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)))
        out.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return out


def svetlichny_tol(n_parties, scenario, d):
    """2**(N-1) sqrt(1 + sqrt(1 - eta)) with eta off by d: sqrt(1 - eta)
    moves by at most min(sqrt(d), d / x), x = min_p |a x c| the smallest
    sqrt(1 - eta) (test_bounds.py::TestEta::test_closed_form_on_bloch_vectors)."""
    x = min(
        float(np.linalg.norm(np.cross(*(bloch_vector(local) for local in pair))))
        for pair in scenario.locals
    )
    return 2.0 ** (n_parties - 1) * (min(math.sqrt(d), d / x) / 2.0 + 6 * U)


def mk_tol(n_parties, scenario, state, e):
    """2**(N-3) (sqrt(2 + chi+) + sqrt(2 - chi-)) with each chi off by e:
    each root moves by at most min(sqrt(e), e / sqrt(z)), z its smallest
    radicand over the pairs."""
    pairs = itertools.combinations(range(1, n_parties + 1), 2)
    chis = [chi(scenario, state, n, m) for n, m in pairs]
    z = min(min(2.0 + plus, 2.0 - minus) for plus, minus in chis)
    step = math.sqrt(e) if z <= e else min(math.sqrt(e), e / math.sqrt(z))
    return 2.0 ** (n_parties - 3) * 2.0 * (step + 4 * U)


def chi_tol(n_parties):
    """Two orders of one chi differ by this much
    (test_bounds.py::TestChi::test_symmetric_on_random_states)."""
    marginal = ((1 << (n_parties - 2)) + 4) * 2 * U
    return 2.0 * (64.0 * marginal + 20.0 * 64.0 * 2 * U + 4 * U)


@pytest.mark.parametrize("n_parties", PARTIES)
def test_relabelling_moves_the_witness_and_keeps_the_bounds(n_parties):
    scenario = random_scenario(7100 + n_parties, n_parties, "bloch")
    perm = [int(p) for p in np.random.default_rng(7200 + n_parties).permutation(n_parties)]
    index = [2 * p + s for p in perm for s in (0, 1)]
    tol = witness_tol(n_parties)
    for state in random_states(7300 + n_parties, n_parties):
        moved, relabelled = permuted(state, scenario, perm)
        c = covariance_witness(state, scenario).c
        got = covariance_witness(moved, relabelled).c
        assert np.max(np.abs(got - c[np.ix_(index, index)])) <= tol
        spectrum = np.linalg.eigvalsh(c)
        assert np.max(np.abs(np.linalg.eigvalsh(got) - spectrum)) <= 2 * n_parties * tol

        # eta reads only the locals, which the relabelling moves unchanged
        before = best_svetlichny_bound(scenario, state)
        after = best_svetlichny_bound(relabelled, moved)
        assert after.value == before.value
        assert after.witness["party"] == perm.index(before.witness["party"] - 1) + 1

        if n_parties % 2:
            before = best_mk_bound(scenario, state)
            after = best_mk_bound(relabelled, moved)
            assert abs(after.value - before.value) <= mk_tol(
                n_parties, scenario, state, chi_tol(n_parties)
            )
            pair = sorted(perm.index(p - 1) + 1 for p in before.witness["pair"])
            assert list(after.witness["pair"]) == pair


@pytest.mark.parametrize("n_parties", PARTIES)
def test_local_unitaries_keep_the_witness_and_the_bounds(n_parties):
    scenario = random_scenario(7400 + n_parties, n_parties, "bloch")
    unitaries = random_unitaries(7500 + n_parties, n_parties)
    tol = witness_tol(n_parties, rotations=n_parties)
    for state in random_states(7600 + n_parties, n_parties):
        moved, rotated_scenario = rotated(state, scenario, unitaries)
        c = covariance_witness(state, scenario).c
        got = covariance_witness(moved, rotated_scenario).c
        assert np.max(np.abs(got - c)) <= tol
        spectrum = np.linalg.eigvalsh(c)
        assert np.max(np.abs(np.linalg.eigvalsh(got) - spectrum)) <= 2 * n_parties * tol

        # Each rotated local is within 12 u of U A U^dagger entrywise, so its
        # Bloch vector within 21 u and a.c within 42 u: eta moves by at most
        # 84 u, on top of each side's own 69 u.
        before = best_svetlichny_bound(scenario, state)
        after = best_svetlichny_bound(rotated_scenario, moved)
        assert abs(after.value - before.value) <= svetlichny_tol(n_parties, scenario, 222 * U)
        assert after.witness["party"] == before.witness["party"]

        if n_parties % 2:
            # the rotated input moves each 4x4 mean of an operator with
            # entries <= 4 by 24 u N 2**N, and the rotated locals by 1024 u
            e = chi_tol(n_parties) + (24 * n_parties * (1 << n_parties) + 1024) * U
            before = best_mk_bound(scenario, state)
            after = best_mk_bound(rotated_scenario, moved)
            assert abs(after.value - before.value) <= mk_tol(n_parties, scenario, state, e)
            assert after.witness["pair"] == before.witness["pair"]


def polys(n_parties):
    return (svetlichny(n_parties, "+"), svetlichny(n_parties, "-"), mk(n_parties))


def weight(poly) -> float:
    return float(sum(abs(c) for c in poly.terms.values()))


def tensor_tol(n_parties) -> float:
    return ((1 << n_parties) + 3 + 6 * n_parties) * (1 << n_parties) * U


def dense_tol(n_parties) -> float:
    return (4 * n_parties + (2 << n_parties) + 4) * (1 << n_parties) * U


def unitarity_defect(unitaries) -> float:
    return max(float(np.linalg.norm(u.conj().T @ u - np.eye(2), 2)) for u in unitaries)


def rotation_tol(n_parties, d, factor) -> float:
    """What a rotation adds, per unit of sum |c|: the state's share and the
    share of N factors each off by ``factor`` in norm."""
    return 3 * n_parties * (d + 6 * U) + n_parties * factor * (1 + factor) ** (n_parties - 1)


def so3(unitary) -> np.ndarray:
    """R with U (n . sigma) U^dagger = (R n) . sigma: R_ij = Tr(s_i U s_j U^dagger) / 2."""
    paulis = np.array(PAULIS)
    return np.einsum("iab,bc,jcd,da->ij", paulis, unitary, paulis, unitary.conj().T).real / 2


def batch_rows(seed, n_parties):
    """Bloch setting rows of N + 1 seeded points, (N + 1, N, 2, 3)."""
    params = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, (n_parties + 1, 4 * n_parties))
    return _setting_rows(params, n_parties, "bloch")


def haar_pure(seed, n_parties):
    """A Haar pure state alone: ``random_states`` also builds a mixed one,
    whose 2**N x 2**N density matrix is too large at N = 12."""
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=1 << n_parties) + 1j * gen.normal(size=1 << n_parties)
    return QuantumState.pure(amps / np.linalg.norm(amps))


def tensor_values(state, rows):
    tensor = pauli_tensor(state)
    return [_tensor_value(tensor, poly.table, rows) for poly in polys(state.n_parties)]


def check_tensor_route_relabelled(n_parties, seed):
    state = haar_pure(seed, n_parties)
    perm = [int(p) for p in np.random.default_rng(seed + 1).permutation(n_parties)]
    moved, _ = permuted(state, random_scenario(seed, n_parties, "bloch"), perm)
    rows = batch_rows(seed + 2, n_parties)
    before, after = tensor_values(state, rows), tensor_values(moved, rows[:, perm])
    for poly, was, now in zip(polys(n_parties), before, after):
        assert np.max(np.abs(now - was)) <= 2 * tensor_tol(n_parties) * weight(poly)


def check_tensor_route_rotated(n_parties, seed):
    state = haar_pure(seed, n_parties)
    unitaries = random_unitaries(seed + 1, n_parties)
    moved, _ = rotated(state, random_scenario(seed, n_parties, "bloch"), unitaries)
    rows = batch_rows(seed + 2, n_parties)
    turned = np.einsum("pij,bpsj->bpsi", np.array([so3(u) for u in unitaries]), rows)
    d = unitarity_defect(unitaries)
    tol = 2 * tensor_tol(n_parties) + rotation_tol(n_parties, d, 6 * d + 45 * U)
    before, after = tensor_values(state, rows), tensor_values(moved, turned)
    for poly, was, now in zip(polys(n_parties), before, after):
        assert np.max(np.abs(now - was)) <= tol * weight(poly)


@pytest.mark.parametrize("n_parties", PARTIES)
def test_relabelling_keeps_the_operator_values(n_parties):
    scenario = random_scenario(8100 + n_parties, n_parties, "bloch")
    perm = [int(p) for p in np.random.default_rng(8200 + n_parties).permutation(n_parties)]
    state = random_states(8300 + n_parties, n_parties)[0]
    moved, relabelled = permuted(state, scenario, perm)
    for poly in polys(n_parties):
        before = expectation(state, realize(poly, scenario))
        after = expectation(moved, realize(poly, relabelled))
        assert abs(after - before) <= 2 * dense_tol(n_parties) * weight(poly)
    check_tensor_route_relabelled(n_parties, 8400 + n_parties)


@pytest.mark.parametrize("n_parties", PARTIES)
def test_local_unitaries_keep_the_operator_values(n_parties):
    scenario = random_scenario(8500 + n_parties, n_parties, "bloch")
    unitaries = random_unitaries(8600 + n_parties, n_parties)
    state = random_states(8700 + n_parties, n_parties)[0]
    moved, rotated_scenario = rotated(state, scenario, unitaries)
    d = unitarity_defect(unitaries)
    tol = 2 * dense_tol(n_parties) + rotation_tol(n_parties, d, 2 * d + d * d + 24 * U)
    for poly in polys(n_parties):
        before = expectation(state, realize(poly, scenario))
        after = expectation(moved, realize(poly, rotated_scenario))
        assert abs(after - before) <= tol * weight(poly)
    check_tensor_route_rotated(n_parties, 8800 + n_parties)


def test_twelve_parties_tensor_route_within_budget():
    # The budget is 10 s.  realize + expectation would build 2**12 x 2**12
    # operators (a 670 MB peak), so N = 12 runs the tensor route alone:
    # four Pauli tensors of under 1 s each (one core of a 2-core Intel Xeon).
    start = time.perf_counter()
    check_tensor_route_relabelled(12, 8912)
    check_tensor_route_rotated(12, 8924)
    assert time.perf_counter() - start < 10.0
