import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellbounds import (
    FileFormatError,
    InvariantViolation,
    MeasurementScenario,
    QuantumState,
    expectation,
    ghz_state,
    write_state_file,
)
from bellbounds import linalg
from bellbounds.linalg import (
    DIM_CAP,
    ID2,
    SIGMA_X,
    SIGMA_Z,
    CovarianceWitness,
    covariance_witness,
    jacobi_eigenvalues,
    kron_chain,
    product_mean,
    read_state_file,
    reduced_state,
)
from bellbounds.observables import planar_observable
from bellbounds.rng import SplitMix64

from oracles import (
    dense_covariance_witness,
    ghz_planar_correlator,
    numpy_jacobi_eigenvalues,
    random_scenario,
    random_states,
)

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def random_complex(rng, shape):
    re = np.array([rng.normal() for _ in range(int(np.prod(shape)))])
    im = np.array([rng.normal() for _ in range(int(np.prod(shape)))])
    return (re + 1j * im).reshape(shape)


class TestTensorProduct:
    def test_pauli_block_structure(self):
        got = kron_chain((SIGMA_Z, SIGMA_X))
        want = np.block(
            [[SIGMA_X, np.zeros((2, 2))], [np.zeros((2, 2)), -SIGMA_X]]
        )
        assert np.array_equal(got, want)

    def test_multiplicative(self):
        rng = SplitMix64(3)
        for _ in range(10):
            a, b, c, d = (random_complex(rng, (2, 2)) for _ in range(4))
            lhs = kron_chain((a, b)) @ kron_chain((c, d))
            rhs = kron_chain((a @ c, b @ d))
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_associative(self):
        rng = SplitMix64(4)
        a, b, c = (random_complex(rng, (2, 2)) for _ in range(3))
        lhs = kron_chain((kron_chain((a, b)), c))
        rhs = kron_chain((a, kron_chain((b, c))))
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_dimension_cap(self):
        big = np.eye(DIM_CAP // 2, dtype=complex)
        with pytest.raises(InvariantViolation):
            kron_chain((big, np.eye(4, dtype=complex)))
        capped = kron_chain((big, np.eye(2, dtype=complex)))
        assert capped.shape == (DIM_CAP, DIM_CAP)

    def test_over_cap_chain_fails_before_any_product(self, monkeypatch):
        def kron(*_):
            raise AssertionError("a product of an over-cap chain was built")

        monkeypatch.setattr(np, "kron", kron)
        with pytest.raises(InvariantViolation, match="cap"):
            kron_chain([SIGMA_X] * 13)


class TestQuantumState:
    def test_pure_accepts_unit_vector(self):
        state = QuantumState.pure([1.0, 0.0])
        assert state.kind == "pure"
        assert state.n_parties == 1
        assert state.dim == 2

    def test_pure_rejects_bad_norm(self):
        with pytest.raises(InvariantViolation):
            QuantumState.pure([1.0, 1.0])

    @pytest.mark.parametrize(
        "amplitudes",
        [
            [1.0, 0.0, 0.0],
            # the density matrix of (|0> + i|1>)/sqrt(2), whose four entries
            # would otherwise pass as a unit-norm two-qubit vector
            np.outer([1.0, 1j], [1.0, -1j]) / 2.0,
        ],
        ids=["three-entries", "one-qubit-density-matrix"],
    )
    def test_pure_rejects_non_power_of_two_length(self, amplitudes):
        with pytest.raises(ValueError):
            QuantumState.pure(amplitudes)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # every later gate compares against the entries, and a comparison
        # with NaN is false, so a NaN state would pass them all
        for amplitudes in ([bad, 0.0], [1.0, complex(0.0, bad)]):
            with pytest.raises(InvariantViolation, match="non-finite"):
                QuantumState.pure(amplitudes)
        for rho in (
            np.diag([bad, 1.0]),
            np.array([[1.0, bad], [bad, 0.0]]),
            np.array([[1.0, complex(0.0, bad)], [complex(0.0, -bad), 0.0]]),
        ):
            with pytest.raises(InvariantViolation, match="non-finite"):
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
        obs = kron_chain((SIGMA_X, SIGMA_X))
        assert abs(expectation(state, obs) - expectation(rho, obs)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(ghz_state(2), SIGMA_Z)

    def test_non_hermitian_rejected(self):
        ladder = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(InvariantViolation):
            expectation(QuantumState.pure([1.0, 0.0]), ladder)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_rejects_non_finite_observable(self, kind, bad):
        # NaN fails every comparison, so the Hermitian and imaginary-residue
        # gates alone would let a NaN value through
        state = ghz_state(2)
        if kind == "mixed":
            state = QuantumState.mixed(state.density_matrix())
        obs = kron_chain((SIGMA_X, SIGMA_X)).copy()
        obs[0, 3] = obs[3, 0] = bad
        with pytest.raises(InvariantViolation, match="non-finite entry"):
            expectation(state, obs)

    @given(st.lists(angles, min_size=2, max_size=5))
    def test_ghz_product_correlator(self, thetas):
        state = ghz_state(len(thetas))
        product = kron_chain(planar_observable(t) for t in thetas)
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
        local = expectation(reduced_state(state, (3, 1)), kron_chain((a, b)))
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


class TestProductMean:
    def test_matches_dense_product_on_pure_and_mixed(self):
        # non-Hermitian factors on parties 1, 3 and 4 of five, so the
        # complex mean is checked, not only its real part
        rng = SplitMix64(23)
        factors = {p: random_complex(rng, (2, 2)) for p in (4, 1, 3)}
        dense = kron_chain([factors.get(p, ID2) for p in range(1, 6)])
        amps = random_complex(rng, (32,))
        pure = QuantumState.pure(amps / np.linalg.norm(amps))
        mixed = QuantumState.mixed(pure.density_matrix())
        want = complex(np.vdot(pure.amplitudes, dense @ pure.amplitudes))
        for state in (pure, mixed):
            assert abs(product_mean(state, factors) - want) < 1e-14

    def test_no_factors_gives_the_norm(self):
        assert abs(product_mean(ghz_state(4), {}) - 1.0) < 1e-15

    @pytest.mark.parametrize("party", [0, 4])
    def test_rejects_parties_outside_the_state(self, party):
        with pytest.raises(ValueError):
            product_mean(ghz_state(3), {party: SIGMA_X})


def seeded_symmetric(rng, size, kind):
    """A random symmetric, scaled Gram or diagonal matrix from the stream."""
    if kind == "diagonal":
        return np.diag([rng.normal() for _ in range(size)])
    raw = np.array([rng.normal() for _ in range(size * size)]).reshape(size, size)
    if kind == "gram":
        return (raw @ raw.T) * 10.0 ** (6.0 * rng.uniform() - 3.0)
    return (raw + raw.T) / 2.0


class TestJacobi:
    def test_matches_numpy_on_random_symmetric(self):
        rng = SplitMix64(11)
        for size in (1, 2, 3, 5, 8, 10, 12):
            for _ in range(20):
                raw = np.array(
                    [rng.normal() for _ in range(size * size)]
                ).reshape(size, size)
                sym = (raw + raw.T) / 2.0
                got = jacobi_eigenvalues(sym)
                want = np.linalg.eigvalsh(sym)
                assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("size", range(2, 13))
    def test_bit_identical_to_numpy_sweep(self, size):
        rng = SplitMix64(900 + size)
        for kind in ("symmetric", "gram", "diagonal"):
            for _ in range(4):
                sym = seeded_symmetric(rng, size, kind)
                assert np.array_equal(jacobi_eigenvalues(sym), numpy_jacobi_eigenvalues(sym))

    @pytest.mark.parametrize("n_parties", range(2, 7))
    def test_bit_identical_to_numpy_sweep_on_witnesses(self, n_parties):
        # the 2N x 2N covariance matrices the harness hands to Jacobi
        for family in ("planar", "bloch"):
            scenario = random_scenario(7300 + n_parties, n_parties, family)
            for state in random_states(7400 + n_parties, n_parties):
                c = covariance_witness(state, scenario).c
                assert np.array_equal(jacobi_eigenvalues(c), numpy_jacobi_eigenvalues(c))

    def test_rejects_significant_imaginary(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[1.0, 1j], [-1j, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN passes the symmetry gate (nan > tol is false) and would
        # come back as a NaN eigenvalue that min() and `< -tol` both drop
        for matrix in (
            [[1.0, bad], [bad, 1.0]],
            [[bad, 0.0], [0.0, 1.0]],
            [[bad]],
            np.array([[1.0, complex(0.0, bad)], [complex(0.0, -bad), 1.0]]),
        ):
            with pytest.raises(ValueError):
                jacobi_eigenvalues(matrix)

    def test_sweep_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        dense = seeded_symmetric(SplitMix64(13), 6, "symmetric")
        with pytest.raises(ArithmeticError):
            jacobi_eigenvalues(dense)

    def test_stopping_sweep_is_pinned(self, monkeypatch):
        # Found by a seeded search (SplitMix64(22), 5x5, scaled so that the
        # third off-norm test lands on JACOBI_OFF_TOL**2): there np.sum of
        # the off-diagonal squares gives 1.0000000000000002e-26, one ulp
        # above the threshold, and math.fsum gives 1e-26, so the summation
        # order decides whether a fourth sweep runs.
        sym = np.array(
            [
                [4.474252336769091e-12, -3.516289712708191e-12, -8.510539960211804e-13,
                 5.925026629333878e-14, 3.4816848294678954e-12],
                [-3.516289712708191e-12, -1.7736659928936865e-12, -1.9697301165962473e-12,
                 2.3770988895633614e-12, -1.7637708505827533e-13],
                [-8.510539960211804e-13, -1.9697301165962473e-12, 5.328202420837143e-13,
                 -1.0883186710276416e-12, -1.900685439710928e-12],
                [5.925026629333878e-14, 2.3770988895633614e-12, -1.0883186710276416e-12,
                 5.301193546397656e-12, -1.1210299989997928e-12],
                [3.4816848294678954e-12, -1.7637708505827533e-13, -1.900685439710928e-12,
                 -1.1210299989997928e-12, -5.024406939041388e-13],
            ]
        )
        assert np.array_equal(jacobi_eigenvalues(sym), numpy_jacobi_eigenvalues(sym))
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 4)
        jacobi_eigenvalues(sym)
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 3)
        with pytest.raises(ArithmeticError):
            jacobi_eigenvalues(sym)

    def test_input_untouched_and_result_is_float64_array(self):
        sym = seeded_symmetric(SplitMix64(14), 5, "symmetric")
        before = sym.copy()
        got = jacobi_eigenvalues(sym)
        assert np.array_equal(sym, before)
        assert isinstance(got, np.ndarray)
        assert got.dtype == np.float64 and got.shape == (5,)

    def test_block_diagonal_skips_zero_pairs(self):
        # the exact-zero off-block entries take the apq == 0.0 skip
        rng = SplitMix64(15)
        sym = np.zeros((7, 7))
        sym[:3, :3] = seeded_symmetric(rng, 3, "symmetric")
        sym[3:, 3:] = seeded_symmetric(rng, 4, "gram")
        got = jacobi_eigenvalues(sym)
        assert np.max(np.abs(got - np.linalg.eigvalsh(sym))) < 1e-10

    def test_sorted_ascending(self):
        got = jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert np.array_equal(got, np.array([-1.0, 2.0, 3.0]))

    def test_converges_when_scale_dwarfs_tolerance(self):
        # Frobenius norm ~15 once stalled the off-diagonal test at the
        # cancellation floor of ||A||**2 * eps, far above JACOBI_OFF_TOL**2
        rng = SplitMix64(12)
        vecs = np.array([rng.normal() for _ in range(100)]).reshape(10, 10)
        gram = vecs @ vecs.T
        got = jacobi_eigenvalues(gram)
        assert np.max(np.abs(got - np.linalg.eigvalsh(gram))) < 1e-9


def all_observables(scenario):
    return [obs for pair in scenario.pairs for obs in pair]


class TestCovarianceWitness:
    @staticmethod
    def planar_scenario():
        return MeasurementScenario.planar(((0.2, 1.1), (-0.7, 0.4)))

    def test_fields_and_shapes(self):
        witness = covariance_witness(ghz_state(2), self.planar_scenario())
        assert isinstance(witness, CovarianceWitness)
        assert witness.m.shape == (4, 4)
        assert witness.v.shape == (4,)
        assert witness.c.shape == (4, 4)

    def test_covariance_is_psd(self):
        rng = SplitMix64(17)
        for _ in range(25):
            scenario = MeasurementScenario.planar(
                [(2.0 * math.pi * rng.uniform(), 2.0 * math.pi * rng.uniform()) for _ in range(2)]
            )
            witness = covariance_witness(ghz_state(2), scenario)
            assert jacobi_eigenvalues(witness.c)[0] >= -1e-10

    def test_pure_and_mixed_agree(self):
        state = ghz_state(2)
        rho = QuantumState.mixed(state.density_matrix())
        scenario = self.planar_scenario()
        wp = covariance_witness(state, scenario)
        wm = covariance_witness(rho, scenario)
        assert np.max(np.abs(wp.c - wm.c)) < 1e-12

    @pytest.mark.parametrize("n_parties", range(2, 9))
    @pytest.mark.parametrize("family", ["planar", "bloch"])
    def test_matches_dense_oracle(self, n_parties, family):
        # With u = eps / 2, a sum of n terms is off by at most (n - 1) u times
        # the sum of their moduli, and a complex product by 3 u of its
        # modulus.  Each local is unitary, so its entries have modulus <= 1
        # and sum_z |a_yz| |b_zx| <= 1; |rho_kl| <= sqrt(rho_kk rho_ll), and
        # the trace is 1.
        # Dense route: Tr(rho O_i) sums 2**N diagonal entries of two products,
        # moduli <= 2, so v is within (2**N + 6) 2u; Tr(rho O_i O_j) has
        # products of products, moduli <= 4, so M is within (2**N + 10) 4u.
        # Marginal route: a d x d marginal sums K = 2**N / d products per
        # entry, off by (K + 3) u sqrt(P_a P_b) with P its diagonal, and
        # sum_ab sqrt(P_a P_b) <= d.  Its d x d trace against one factor
        # (v, d = 2: 4 terms) or two (same party, d = 2: 8 terms; a pair,
        # d = 4: 16 terms) adds 6 u * 2, 13 u * 2 or 21 u * 4.  So v is within
        # (2**N + 18) u and M within (2**N + 96) u.  The routes differ by
        # dv <= (3 2**N + 30) u and dM <= (5 2**N + 136) u, and
        # C = M - v v^T (|v| <= 1) by dM + 2 dv + 6 u <= (11 2**N + 202) u,
        # inside 8 (2**N + 16) eps = (16 2**N + 256) u.
        tol = 8 * ((1 << n_parties) + 16) * np.finfo(float).eps
        scenario = random_scenario(6100 + n_parties, n_parties, family)
        observables = all_observables(scenario)
        for state in random_states(6200 + n_parties, n_parties):
            got = covariance_witness(state, scenario)
            want = dense_covariance_witness(state.density_matrix(), observables)
            for field, dense in zip((got.m, got.v, got.c), want):
                assert np.max(np.abs(field - dense)) <= tol

    @pytest.mark.parametrize("n_parties", (2, 3, 5))
    def test_reads_each_marginal_once(self, monkeypatch, n_parties):
        # one reduced state per party and per unordered pair, and no
        # full-space product mean
        marginals = []

        def tracing(state, parties):
            marginals.append(tuple(parties))
            return reduced_state(state, parties)

        def forbidden(state, factors):
            raise AssertionError("covariance_witness called product_mean")

        monkeypatch.setattr(linalg, "reduced_state", tracing)
        monkeypatch.setattr(linalg, "product_mean", forbidden)
        scenario = random_scenario(6400 + n_parties, n_parties, "bloch")
        parties = range(1, n_parties + 1)
        expected = [(p,) for p in parties] + list(itertools.combinations(parties, 2))
        for state in random_states(6500 + n_parties, n_parties):
            marginals.clear()
            covariance_witness(state, scenario)
            assert len(marginals) == n_parties + n_parties * (n_parties - 1) // 2
            assert sorted(marginals) == sorted(expected)

    def test_pure_twelve_parties_without_dense_operators(self):
        # The dense route would need 24 embedded operators of 268 MB each.
        amps = np.random.default_rng(6312).normal(size=(2, 4096)).T @ [1.0, 1.0j]
        state = QuantumState.pure(amps / np.linalg.norm(amps))
        scenario = random_scenario(6313, 12, "bloch")
        tracemalloc.start()
        try:
            began = time.perf_counter()
            witness = covariance_witness(state, scenario)
            elapsed = time.perf_counter() - began
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed <= 1.0
        assert peak < 1 << 20
        assert jacobi_eigenvalues(witness.c)[0] >= -1e-10

    def test_rejects_a_state_on_other_parties(self):
        with pytest.raises(ValueError, match="state spans 3 parties, scenario 2"):
            covariance_witness(ghz_state(3), self.planar_scenario())


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
            "mixed 1\n1,0,0 0\n0,0 0,0\n",
            "mixed 1\n0.6,0 0,0\n0,0 0.6,0\n",
            "pure 1\nnan 0\n0 0\n",
            "pure 1\n1 0\n0 inf\n",
            "mixed 1\nnan,0 0,0\n0,0 1,0\n",
        ],
    )
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.state"
        path.write_text(text, encoding="ascii")
        with pytest.raises(FileFormatError):
            read_state_file(path)
