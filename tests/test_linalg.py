import functools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellbounds import (
    DIM_CAP,
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    CovarianceWitness,
    FileFormatError,
    InvariantViolation,
    QuantumState,
    anticommutator,
    covariance_witness,
    expectation,
    ghz_state,
    is_psd,
    jacobi_eigenvalues,
    planar_observable,
    read_state_file,
    tensor_product,
    write_state_file,
)
from bellbounds.linalg import kron_chain, reduced_state
from bellbounds.rng import SplitMix64

from oracles import ghz_planar_correlator

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def random_complex(rng, shape):
    re = np.array([rng.normal() for _ in range(int(np.prod(shape)))])
    im = np.array([rng.normal() for _ in range(int(np.prod(shape)))])
    return (re + 1j * im).reshape(shape)


class TestTensorProduct:
    def test_pauli_block_structure(self):
        got = tensor_product(SIGMA_Z, SIGMA_X)
        want = np.block(
            [[SIGMA_X, np.zeros((2, 2))], [np.zeros((2, 2)), -SIGMA_X]]
        )
        assert np.array_equal(got, want)

    def test_multiplicative(self):
        rng = SplitMix64(3)
        for _ in range(10):
            a, b, c, d = (random_complex(rng, (2, 2)) for _ in range(4))
            lhs = tensor_product(a, b) @ tensor_product(c, d)
            rhs = tensor_product(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_associative(self):
        rng = SplitMix64(4)
        a, b, c = (random_complex(rng, (2, 2)) for _ in range(3))
        lhs = tensor_product(tensor_product(a, b), c)
        rhs = tensor_product(a, tensor_product(b, c))
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_dimension_cap(self):
        big = np.eye(DIM_CAP // 2, dtype=complex)
        with pytest.raises(InvariantViolation):
            tensor_product(big, np.eye(4, dtype=complex))
        capped = tensor_product(big, np.eye(2, dtype=complex))
        assert capped.shape == (DIM_CAP, DIM_CAP)


def test_anticommutator_of_planar_pair_is_scaled_identity():
    # {A(t0), A(t1)} = 2 cos(t0 - t1) I
    for t0, t1 in ((0.3, -1.1), (0.0, math.pi / 2), (2.0, 2.0)):
        got = anticommutator(planar_observable(t0), planar_observable(t1))
        want = 2.0 * math.cos(t0 - t1) * ID2
        assert np.max(np.abs(got - want)) < 1e-14


class TestQuantumState:
    def test_pure_accepts_unit_vector(self):
        state = QuantumState.pure([1.0, 0.0])
        assert state.kind == "pure"
        assert state.n_parties == 1
        assert state.dim == 2

    def test_pure_rejects_bad_norm(self):
        with pytest.raises(InvariantViolation):
            QuantumState.pure([1.0, 1.0])

    def test_pure_rejects_non_power_of_two_length(self):
        with pytest.raises(ValueError):
            QuantumState.pure([1.0, 0.0, 0.0])

    def test_amplitudes_are_frozen(self):
        state = ghz_state(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_mixed_accepts_maximally_mixed(self):
        state = QuantumState.mixed(np.eye(4, dtype=complex) / 4.0)
        assert state.kind == "mixed"
        assert state.n_parties == 2

    def test_mixed_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvariantViolation):
            QuantumState.mixed(rho)

    def test_mixed_rejects_wrong_trace(self):
        with pytest.raises(InvariantViolation):
            QuantumState.mixed(np.eye(2, dtype=complex))

    def test_mixed_rejects_negative_eigenvalue(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvariantViolation):
            QuantumState.mixed(rho)

    def test_density_matrix_matches_outer_product(self):
        state = ghz_state(2)
        rho = state.density_matrix()
        want = np.outer(state.amplitudes, state.amplitudes.conj())
        assert np.array_equal(rho, want)

    def test_ghz_party_range(self):
        assert ghz_state(2).dim == 4
        assert ghz_state(12).n_parties == 12
        for bad in (1, 13):
            with pytest.raises(ValueError):
                ghz_state(bad)


class TestExpectation:
    def test_computational_basis_values(self):
        up = QuantumState.pure([1.0, 0.0])
        down = QuantumState.pure([0.0, 1.0])
        assert expectation(up, SIGMA_Z) == 1.0
        assert expectation(down, SIGMA_Z) == -1.0

    def test_plus_state_along_x(self):
        plus = QuantumState.pure([math.sqrt(0.5), math.sqrt(0.5)])
        assert abs(expectation(plus, SIGMA_X) - 1.0) < 1e-12

    def test_pure_and_mixed_agree(self):
        state = ghz_state(2)
        rho = QuantumState.mixed(state.density_matrix())
        obs = tensor_product(SIGMA_X, SIGMA_X)
        assert abs(expectation(state, obs) - expectation(rho, obs)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(ghz_state(2), SIGMA_Z)

    def test_non_hermitian_rejected(self):
        ladder = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(InvariantViolation):
            expectation(QuantumState.pure([1.0, 0.0]), ladder)

    @given(st.lists(angles, min_size=2, max_size=5))
    def test_ghz_product_correlator(self, thetas):
        state = ghz_state(len(thetas))
        product = functools.reduce(
            tensor_product, (planar_observable(t) for t in thetas)
        )
        got = expectation(state, product)
        assert abs(got - ghz_planar_correlator(thetas)) < 1e-12


class TestReducedState:
    def random_pure(self, seed, n_parties):
        amps = random_complex(SplitMix64(seed), (1 << n_parties,))
        return QuantumState.pure(amps / np.linalg.norm(amps))

    def test_pure_and_mixed_routes_agree(self):
        pure = self.random_pure(5, 4)
        mixed = QuantumState.mixed(pure.density_matrix())
        for parties in ((2,), (1, 4), (4, 1), (3, 1, 2), (1, 2, 3, 4)):
            got = reduced_state(pure, parties).density
            want = reduced_state(mixed, parties).density
            assert np.max(np.abs(got - want)) < 1e-15

    def test_keeps_the_given_party_order(self):
        # Tr(rho_(3,1) (A x B)) must equal <B at party 1, A at party 3>
        state = self.random_pure(11, 3)
        a = planar_observable(0.4)
        b = planar_observable(-1.1)
        local = expectation(reduced_state(state, (3, 1)), tensor_product(a, b))
        full = expectation(state, kron_chain((b, ID2, a)))
        assert abs(local - full) < 1e-14

    def test_is_a_frozen_unit_trace_density(self):
        reduced = reduced_state(ghz_state(5), (2, 4))
        assert reduced.kind == "mixed"
        assert reduced.n_parties == 2
        assert np.array_equal(reduced.density, reduced.density.conj().T)
        assert abs(np.trace(reduced.density) - 1.0) < 1e-15
        with pytest.raises(ValueError):
            reduced.density[0, 0] = 1.0

    @pytest.mark.parametrize("parties", [(), (1, 1), (0,), (4,)])
    def test_rejects_bad_party_lists(self, parties):
        with pytest.raises(ValueError):
            reduced_state(ghz_state(3), parties)


class TestJacobi:
    def test_matches_numpy_on_random_symmetric(self):
        rng = SplitMix64(11)
        for size in (1, 2, 3, 5, 8, 10):
            for _ in range(20):
                raw = np.array(
                    [rng.normal() for _ in range(size * size)]
                ).reshape(size, size)
                sym = (raw + raw.T) / 2.0
                got = jacobi_eigenvalues(sym)
                want = np.linalg.eigvalsh(sym)
                assert np.max(np.abs(got - want)) < 1e-10

    def test_accepts_complex_with_tiny_imaginary(self):
        sym = np.array([[2.0, 1.0], [1.0, -1.0]]) + 1e-15j
        got = jacobi_eigenvalues(sym)
        assert np.max(np.abs(got - np.linalg.eigvalsh(sym.real))) < 1e-12

    def test_rejects_significant_imaginary(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[1.0, 1j], [-1j, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_sorted_ascending(self):
        got = jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert np.array_equal(got, np.array([-1.0, 2.0, 3.0]))

    def test_converges_when_scale_dwarfs_tolerance(self):
        # Frobenius norm ~15 once stalled the off-diagonal test at the
        # cancellation floor of ||A||**2 * eps, far above off_tol**2
        rng = SplitMix64(12)
        vecs = np.array([rng.normal() for _ in range(100)]).reshape(10, 10)
        gram = vecs @ vecs.T
        got = jacobi_eigenvalues(gram)
        assert np.max(np.abs(got - np.linalg.eigvalsh(gram))) < 1e-9


class TestIsPsd:
    def test_accepts_gram_matrix(self):
        rng = SplitMix64(13)
        vecs = np.array([rng.normal() for _ in range(12)]).reshape(3, 4)
        assert is_psd(vecs @ vecs.T)

    def test_boundary(self):
        assert is_psd(np.diag([-1e-11, 1.0]))
        assert not is_psd(np.diag([-1e-9, 1.0]))


class TestCovarianceWitness:
    @staticmethod
    def embedded_pair():
        return (
            tensor_product(planar_observable(0.2), ID2),
            tensor_product(ID2, planar_observable(-0.7)),
        )

    def test_fields_and_shapes(self):
        witness = covariance_witness(ghz_state(2), self.embedded_pair())
        assert isinstance(witness, CovarianceWitness)
        assert witness.m.shape == (2, 2)
        assert witness.v.shape == (2,)
        assert witness.c.shape == (2, 2)

    def test_covariance_is_psd(self):
        rng = SplitMix64(17)
        for _ in range(25):
            thetas = [2.0 * math.pi * rng.uniform() for _ in range(4)]
            ops = [
                tensor_product(planar_observable(thetas[0]), ID2),
                tensor_product(planar_observable(thetas[1]), ID2),
                tensor_product(ID2, planar_observable(thetas[2])),
                tensor_product(ID2, planar_observable(thetas[3])),
            ]
            witness = covariance_witness(ghz_state(2), ops)
            assert jacobi_eigenvalues(witness.c)[0] >= -1e-10

    def test_scalar_reduction_is_cauchy_schwarz(self):
        witness = covariance_witness(ghz_state(2), self.embedded_pair())
        for m_parity in (0, 1):
            lhs, rhs = witness.scalar_reduction(m_parity)
            assert lhs <= rhs + 1e-10

    def test_pure_and_mixed_agree(self):
        state = ghz_state(2)
        rho = QuantumState.mixed(state.density_matrix())
        ops = self.embedded_pair()
        wp = covariance_witness(state, ops)
        wm = covariance_witness(rho, ops)
        assert np.max(np.abs(wp.c - wm.c)) < 1e-12


class TestStateFiles:
    def test_pure_round_trip_is_exact(self, tmp_path):
        state = ghz_state(3)
        path = tmp_path / "ghz3.state"
        write_state_file(state, path)
        back = read_state_file(path)
        assert back.kind == "pure"
        assert np.array_equal(back.amplitudes, state.amplitudes)

    def test_mixed_round_trip_is_exact(self, tmp_path):
        probs = np.array([0.5, 0.25, 0.125, 0.125])
        state = QuantumState.mixed(np.diag(probs).astype(complex))
        path = tmp_path / "diag.state"
        write_state_file(state, path)
        back = read_state_file(path)
        assert back.kind == "mixed"
        assert np.array_equal(back.density, state.density)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "pure\n1 0\n0 0\n",
            "impure 1\n1 0\n0 0\n",
            "pure 0\n1 0\n",
            "pure 1\n1 0\n",
            "pure 1\n1 0\n0 0\n0 0\n",
            "pure 1\none 0\n0 0\n",
            "pure 1\n1 0 0\n0 0\n",
            "pure 1\n1 0\n1 0\n",
            "mixed 1\n1,0 0,0\n0,0\n",
            "mixed 1\n0.6,0 0,0\n0,0 0.6,0\n",
        ],
    )
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.state"
        path.write_text(text, encoding="ascii")
        with pytest.raises(FileFormatError):
            read_state_file(path)
