import math
import re
import warnings

import numpy as np
import pytest

from bellbounds import (
    DichotomicObservable,
    FileFormatError,
    InvariantViolation,
    MeasurementScenario,
    chi,
    write_scenario_file,
)
from bellbounds.linalg import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    covariance_witness,
    expectation,
    ghz_state,
    hermiticity_defect,
    kron_chain,
)
from bellbounds.observables import (
    bloch_observable,
    embed_local,
    planar_observable,
    read_scenario_file,
    validate_dichotomic,
)
from bellbounds.polynomials import realize, svetlichny

from bellbounds import observables
from bellbounds.experiments import _random_scenario_from
from bellbounds.rng import SplitMix64

from oracles import (
    random_scenario,
    scalar_normal,
    slot_bloch_observable,
    slot_by_slot_bloch,
    slot_by_slot_locals,
    slot_by_slot_planar,
    slot_planar_observable,
    text_write_scenario_file,
    triple_loop_directions,
)


class TestPlanarObservable:
    def test_matrix_form(self):
        theta = 0.7
        got = planar_observable(theta)
        want = math.cos(theta) * SIGMA_X + math.sin(theta) * SIGMA_Y
        assert np.array_equal(got, want)

    def test_axis_cases(self):
        assert np.array_equal(planar_observable(0.0), SIGMA_X)
        assert np.max(np.abs(planar_observable(math.pi / 2) - SIGMA_Y)) < 1e-15

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            planar_observable(math.inf)

    def test_always_dichotomic(self):
        for theta in np.linspace(-math.pi, math.pi, 17):
            assert validate_dichotomic(planar_observable(float(theta))) is None


class TestBlochObservable:
    def test_unit_axes(self):
        assert np.array_equal(bloch_observable(1.0, 0.0, 0.0), SIGMA_X)
        assert np.array_equal(bloch_observable(0.0, 0.0, 1.0), SIGMA_Z)

    def test_normalizes_input(self):
        got = bloch_observable(3.0, 0.0, 4.0)
        want = 0.6 * SIGMA_X + 0.8 * SIGMA_Z
        assert np.max(np.abs(got - want)) < 1e-15

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            bloch_observable(0.0, 0.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bloch_observable(math.nan, 0.0, 1.0)


class TestValidateDichotomic:
    def test_accepts_paulis(self):
        for obs in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            assert validate_dichotomic(obs) is None

    def test_hermitian_defect_reported(self):
        bad = np.array([[0.0, 1.0], [1.0 + 3e-12, 0.0]], dtype=complex)
        report = validate_dichotomic(bad)
        assert report is not None
        assert report.check == "hermitian"
        assert report.residual > 1e-12

    def test_hermitian_defect_below_tolerance_passes_on(self):
        nearly = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]], dtype=complex)
        assert validate_dichotomic(nearly) is None

    def test_involution_defect_reported(self):
        report = validate_dichotomic(0.5 * SIGMA_X)
        assert report is not None
        assert report.check == "involution"

    def test_residues_match_the_matrix_definitions(self):
        # random complex matrices fail the Hermitian check, and their
        # Hermitian parts the involution check, so both residues show;
        # the scalar and numpy moduli may differ in the last ulp
        gen = np.random.default_rng(31)
        for _ in range(200):
            raw = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
            herm = (raw + raw.conj().T) / 2.0
            for matrix, check, want in (
                (raw, "hermitian", np.max(np.abs(raw - raw.conj().T))),
                (herm, "involution", np.max(np.abs(herm @ herm - np.eye(2)))),
            ):
                report = validate_dichotomic(matrix)
                assert report.check == check
                assert abs(report.residual - want) <= 1e-14 * max(1.0, want)

    def test_off_diagonal_involution_residue_reported(self):
        # Hermitian with a unit diagonal, so only b(a + d) and c(a + d),
        # each 2e-9, flag it; a**2 + bc - 1 is 1e-18
        report = validate_dichotomic(np.array([[1.0, 1e-9], [1e-9, 1.0]]))
        assert report is not None
        assert report.check == "involution"
        assert report.residual == pytest.approx(2e-9)

    def test_violation_formats(self):
        report = validate_dichotomic(0.5 * SIGMA_X)
        assert "involution" in str(report)

    @pytest.mark.parametrize("bad", [np.eye(4), np.eye(1), np.ones(2), np.eye(3)[:2]])
    def test_rejects_non_2x2_shapes(self, bad):
        with pytest.raises(ValueError, match=re.escape(str(bad.shape))):
            validate_dichotomic(bad)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, entry):
        with pytest.raises(ValueError, match="non-finite"):
            validate_dichotomic(np.array([[0.0, 1.0], [1.0, entry]]))


class TestDichotomicObservable:
    def test_valid_construction(self):
        obs = DichotomicObservable(SIGMA_X, 2, 1)
        assert obs.party == 2
        assert obs.setting == 1
        assert np.array_equal(obs.local, SIGMA_X)

    def test_local_is_frozen(self):
        obs = DichotomicObservable(SIGMA_X, 1, 0)
        with pytest.raises(ValueError):
            obs.local[0, 0] = 5.0

    def test_rejects_non_dichotomic(self):
        with pytest.raises(InvariantViolation):
            DichotomicObservable(0.5 * SIGMA_X, 1, 0)

    def test_rejects_non_2x2_local_naming_the_shape(self):
        with pytest.raises(ValueError, match=r"\(4, 4\)"):
            DichotomicObservable(np.kron(SIGMA_X, SIGMA_Z), 1, 0)

    def test_rejects_bad_party_and_setting(self):
        # a float party would pass a bare range check and fail later, in
        # product_mean's bit shift
        bad = [(0, 0), (1, 2), (1.5, 0), (1.0, 0), ("1", 0), (1, 0.5), (1, "0"), (1, None)]
        for party, setting in bad:
            with pytest.raises(ValueError):
                DichotomicObservable(SIGMA_X, party, setting)

    def test_numpy_integers_are_stored_as_plain_ints(self):
        obs = DichotomicObservable(SIGMA_X, np.int64(2), np.uint8(1))
        assert (obs.party, obs.setting) == (2, 1)
        assert type(obs.party) is int and type(obs.setting) is int

    def test_embedded_matches_kron_chain(self):
        obs = DichotomicObservable(SIGMA_Y, 2, 0)
        want = kron_chain((ID2, SIGMA_Y, ID2))
        assert np.array_equal(embed_local(obs.local, obs.party, 3), want)

    def test_embedded_is_frozen(self):
        obs = DichotomicObservable(SIGMA_X, 1, 0)
        with pytest.raises(ValueError):
            embed_local(obs.local, obs.party, 2)[0, 0] = 1.0

    @pytest.mark.parametrize("n_parties", range(2, 9))
    def test_near_hermitian_locals_realize_an_exactly_hermitian_operator(self, n_parties):
        # each local passes the 1e-12 gate, but the N-fold products of the
        # raw locals drift by about N * 0.9e-12, past expectation's 1e-12
        skew = SIGMA_X + 0.9e-12j * np.array([[0.0, 1.0], [0.0, 0.0]])
        obs = DichotomicObservable(skew, 1, 0)
        assert np.array_equal(obs.local, obs.local.conj().T)
        scenario = MeasurementScenario([(skew, SIGMA_Z)] * n_parties)
        operator = realize(svetlichny(n_parties, "-"), scenario)
        assert hermiticity_defect(operator) == 0.0
        assert math.isfinite(expectation(ghz_state(n_parties), operator))

    def test_slots_hold_no_cache(self):
        assert DichotomicObservable.__slots__ == ("local", "party", "setting")


class TestEmbedLocal:
    def test_disjoint_slots_commute_bitwise(self):
        x1 = embed_local(planar_observable(0.3), 1, 3)
        y2 = embed_local(planar_observable(-1.2), 2, 3)
        assert np.array_equal(x1 @ y2, y2 @ x1)

    def test_party_out_of_range(self):
        with pytest.raises(ValueError):
            embed_local(SIGMA_X, 4, 3)
        with pytest.raises(ValueError):
            embed_local(SIGMA_X, 0, 3)

    def test_rejects_wrong_local_shape(self):
        with pytest.raises(ValueError):
            embed_local(np.eye(4, dtype=complex), 1, 2)

    def test_dimension_cap(self):
        with pytest.raises(InvariantViolation):
            embed_local(SIGMA_X, 1, 13)


class TestMeasurementScenario:
    def test_planar_records_angles(self):
        pairs = ((0.1, 0.2), (-0.3, 0.4))
        scenario = MeasurementScenario.planar(pairs)
        assert scenario.n_parties == 2
        assert scenario.angles == pairs
        got = scenario.observable(2, 1)
        assert np.array_equal(got.local, planar_observable(0.4))

    def test_bloch_constructor(self):
        scenario = MeasurementScenario.bloch(
            (((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),)
        )
        assert scenario.n_parties == 1
        assert np.array_equal(scenario.observable(1, 0).local, SIGMA_X)
        assert np.array_equal(scenario.observable(1, 1).local, SIGMA_Z)

    def test_observable_validates_labels(self):
        scenario = MeasurementScenario.planar(((0.0, 1.0),))
        with pytest.raises(ValueError):
            scenario.observable(2, 0)
        with pytest.raises(ValueError):
            scenario.observable(1, 3)

    @pytest.mark.parametrize("family", ["planar", "bloch", "pauli"])
    def test_observables_carry_their_slot_and_given_local(self, family):
        if family == "planar":
            locals_ = [(planar_observable(0.1 * p), planar_observable(-0.3 * p)) for p in range(3)]
        elif family == "bloch":
            locals_ = [
                (bloch_observable(1.0, -2.0, 0.5 * p), bloch_observable(-0.3, p, 2.0))
                for p in range(3)
            ]
        else:
            locals_ = [(SIGMA_X, SIGMA_Y), (SIGMA_Z, SIGMA_X), (SIGMA_Y, SIGMA_Z)]
        scenario = MeasurementScenario(locals_)
        assert scenario.n_parties == 3 and scenario.angles is None
        for party, pair in enumerate(locals_, start=1):
            for setting, local in enumerate(pair):
                obs = scenario.observable(party, setting)
                assert (obs.party, obs.setting) == (party, setting)
                assert np.array_equal(obs.local, local)
                assert np.array_equal(scenario.locals[party - 1, setting], obs.local)
        assert scenario.locals.shape == (3, 2, 2, 2)
        assert not scenario.locals.flags.writeable

    def test_stacked_contractions_read_the_locals_array(self):
        # the locals array is the scenario's only copy of its settings, so a
        # scenario whose array holds another scenario's locals reads as that
        # scenario in the witness, the chi scan, realize and observable()
        assert MeasurementScenario.__slots__ == ("locals", "angles")
        scenario = MeasurementScenario.planar([(0.3 * p, 1.0 - 0.7 * p) for p in range(3)])
        other = MeasurementScenario.planar([(0.5 - p, 0.2 * p) for p in range(3)])
        original = covariance_witness(ghz_state(3), scenario).c
        scenario.locals = other.locals
        got = covariance_witness(ghz_state(3), scenario).c
        assert np.array_equal(got, covariance_witness(ghz_state(3), other).c)
        assert not np.array_equal(got, original)
        for n, m in ((1, 2), (1, 3), (2, 3)):
            assert chi(scenario, ghz_state(3), n, m) == chi(other, ghz_state(3), n, m)
        operator = realize(svetlichny(3, "-"), scenario)
        assert operator.tobytes() == realize(svetlichny(3, "-"), other).tobytes()
        for party in (1, 2, 3):
            for setting in (0, 1):
                got = scenario.observable(party, setting).local
                assert got.tobytes() == other.observable(party, setting).local.tobytes()

    def test_observable_is_a_view_of_its_slot(self):
        scenario = MeasurementScenario([(SIGMA_X, SIGMA_Y), (SIGMA_Z, SIGMA_X)])
        for party, setting in ((1, 0), (2, 1), (np.int64(2), np.int64(0))):
            obs = scenario.observable(party, setting)
            assert isinstance(obs, DichotomicObservable)
            assert type(obs.party) is int and type(obs.setting) is int
            assert (obs.party, obs.setting) == (party, setting)
            assert not obs.local.flags.writeable
            assert np.shares_memory(obs.local, scenario.locals)
            assert np.array_equal(obs.local, scenario.locals[party - 1, setting])

    @pytest.mark.parametrize(
        "pairs, error, message",
        [
            (
                [(SIGMA_X, SIGMA_Z), (SIGMA_X, 0.5 * SIGMA_X), (1j * SIGMA_X, SIGMA_Y)],
                InvariantViolation,
                "party 2 setting 1: involution check failed with residual 7.500e-01",
            ),
            (
                [(np.array([[np.nan, 1.0], [1.0, 0.0]]), SIGMA_Z)],
                ValueError,
                "dichotomic observable has a non-finite entry: [(nan+0j), (1+0j), (1+0j), 0j]",
            ),
            ([], ValueError, "scenario needs at least one party"),
            ([(SIGMA_X,)], ValueError, None),
            ([(SIGMA_X, SIGMA_Y, SIGMA_Z)], ValueError, None),
            ([([1.0, 0.0], [0.0, 1.0])], ValueError, None),
        ],
        ids=["bad-slot", "nan", "empty", "one-setting", "three-settings", "two-vectors"],
    )
    def test_malformed_input_raises_as_before(self, pairs, error, message):
        # each slot is checked before the locals are stacked, so a party
        # with one or three settings, or two 2-vectors that would stack into
        # one 2x2 matrix, is rejected; the first failing slot is reported
        with pytest.raises(error) as raised:
            MeasurementScenario(pairs)
        if message is not None:
            assert str(raised.value) == message

    def test_rejects_observables_in_place_of_locals(self):
        pair = (DichotomicObservable(SIGMA_X, 1, 0), DichotomicObservable(SIGMA_Y, 1, 1))
        with pytest.raises(TypeError):
            MeasurementScenario([pair])


def seeded_angles(gen, n_parties):
    """Angles of every size: near 0, around a turn, and up to 1e300."""
    scale = 10.0 ** gen.integers(-3, 301, size=(n_parties, 2)).astype(float)
    return (gen.uniform(-1.0, 1.0, size=(n_parties, 2)) * scale).tolist()


def seeded_directions(gen, n_parties):
    """Directions scaled by 1e-5 .. 1e4, some components +0.0 or -0.0."""
    raw = gen.normal(size=(n_parties, 2, 3)) * 10.0 ** gen.integers(-5, 5, size=(n_parties, 2, 1))
    raw[gen.uniform(size=raw.shape) < 0.2] = 0.0
    raw[gen.uniform(size=raw.shape) < 0.1] = -0.0
    raw[(raw == 0.0).all(axis=2), 0] = -1.5  # no zero direction
    return raw.tolist()


AXIS_DIRECTIONS = [
    tuple(sign if index == axis else zero for index, zero in enumerate(zeros))
    for axis in range(3)
    for sign in (1.0, -1.0, 2.5, -1e-5, 1e4)
    for zeros in ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, 0.0))
]


class TestStackedScenarioBuild:
    """The stacked builders and the stacked check against the scenario built
    one 2x2 slot at a time (oracles.slot_by_slot_locals), bit for bit."""

    @pytest.mark.parametrize("n_parties", range(1, 13))
    def test_locals_equal_the_slot_by_slot_build(self, n_parties):
        gen = np.random.default_rng(9100 + n_parties)
        for seed in range(20):
            angles = seeded_angles(gen, n_parties)
            got = MeasurementScenario.planar(angles).locals
            assert got.tobytes() == slot_by_slot_planar(angles).tobytes()
            directions = seeded_directions(gen, n_parties)
            got = MeasurementScenario.bloch(directions).locals
            assert got.tobytes() == slot_by_slot_bloch(directions).tobytes()
            # the harness's draws, against the triple-by-triple draw
            stream, twin = SplitMix64(seed), SplitMix64(seed)
            got = _random_scenario_from(stream, n_parties, "planar").locals
            want = [(2.0 * math.pi * twin.uniform(), 2.0 * math.pi * twin.uniform())
                    for _ in range(n_parties)]
            assert got.tobytes() == slot_by_slot_planar(want).tobytes()
            got = _random_scenario_from(stream, n_parties, "bloch").locals
            want = triple_loop_directions(lambda: scalar_normal(twin), n_parties)
            assert got.tobytes() == slot_by_slot_bloch(want).tobytes()
            assert (stream.state, stream._spare) == (twin.state, twin._spare)

    def test_axes_and_signed_zeros_equal_the_slot_by_slot_build(self):
        pairs = list(zip(AXIS_DIRECTIONS, AXIS_DIRECTIONS[::-1]))
        got = MeasurementScenario.bloch(pairs).locals
        assert got.tobytes() == slot_by_slot_bloch(pairs).tobytes()
        stack = bloch_observable(*np.moveaxis(np.array(AXIS_DIRECTIONS), -1, 0))
        for local, direction in zip(stack, AXIS_DIRECTIONS):
            assert local.tobytes() == slot_bloch_observable(*direction).tobytes()
        angles = [0.0, -0.0, math.pi, -math.pi / 2, 2.0**60, -1e15, 1e300, 5e-324]
        stack = planar_observable(np.reshape(angles, (2, 2, 2)))
        assert stack.shape == (2, 2, 2, 2, 2)
        for local, theta in zip(stack.reshape(-1, 2, 2), angles):
            assert local.tobytes() == slot_planar_observable(theta).tobytes()

    @pytest.mark.parametrize("family", ["planar", "bloch", "drawn-planar", "drawn-bloch", "file"])
    def test_a_valid_build_makes_no_scalar_check(self, monkeypatch, tmp_path, family):
        checks = []
        validate = observables.validate_dichotomic

        def counted(matrix):
            checks.append(1)
            return validate(matrix)

        monkeypatch.setattr(observables, "validate_dichotomic", counted)
        gen = np.random.default_rng(9200)
        for n_parties in range(1, 13):
            if family == "planar":
                MeasurementScenario.planar(seeded_angles(gen, n_parties))
            elif family == "bloch":
                MeasurementScenario.bloch(seeded_directions(gen, n_parties))
            elif family == "file":
                path = tmp_path / "scenario"
                kind = ("planar", "bloch")[n_parties % 2]
                write_scenario_file(random_scenario(9300 + n_parties, n_parties, kind), path)
                read_scenario_file(path)
            else:
                _random_scenario_from(SplitMix64(n_parties), n_parties, family[6:])
        assert checks == []
        DichotomicObservable(SIGMA_X, 1, 0)  # the scalar check still runs on its own
        assert checks == [1]

    @pytest.mark.parametrize("check", ["hermitian", "involution"])
    def test_a_slot_between_half_and_full_tolerance_is_confirmed(self, monkeypatch, check):
        # the screen flags residues above tol / 2; the scalar check decides
        if check == "hermitian":
            def slot(residue):
                return SIGMA_X + residue * 1j * np.array([[0.0, 0.0], [1.0, 0.0]])
        else:
            def slot(residue):
                return (1.0 + residue / 2.0) * SIGMA_Z
        checks = []
        validate = observables.validate_dichotomic

        def counted(matrix):
            report = validate(matrix)
            checks.append(report)
            return report

        monkeypatch.setattr(observables, "validate_dichotomic", counted)
        for residue in (0.6e-12, 0.8e-12, 0.99e-12):
            local = slot(residue)
            scenario = MeasurementScenario([(SIGMA_X, SIGMA_Y), (SIGMA_Z, local)])
            assert checks == [None]  # one flagged slot, checked once and accepted
            want = slot_by_slot_locals([(SIGMA_X, SIGMA_Y), (SIGMA_Z, local)])
            assert scenario.locals.tobytes() == want.tobytes()
            checks.clear()
        for residue in (1.05e-12, 2e-12, 0.5):
            local = slot(residue)
            with pytest.raises(InvariantViolation) as raised:
                MeasurementScenario([(SIGMA_X, SIGMA_Y), (SIGMA_Z, local)])
            report = validate(local)
            assert report.check == check
            assert str(raised.value) == f"party 2 setting 1: {report}"
            checks.clear()

    @pytest.mark.parametrize(
        "build, error, message",
        [
            # messages as measured before the stacked build
            (lambda: MeasurementScenario.bloch([((1e200, 0.0, 0.0), (0.0, 0.0, 1.0))]),
             InvariantViolation,
             "party 1 setting 0: involution check failed with residual 1.000e+00"),
            (lambda: MeasurementScenario.bloch([((0.0, 0.0, 1.0), (1e200, 1e200, -1e200))]),
             InvariantViolation,
             "party 1 setting 1: involution check failed with residual 1.000e+00"),
            (lambda: MeasurementScenario.bloch([((1e-160, 0.0, 0.0), (0.0, 0.0, 1.0))]),
             InvariantViolation,
             "party 1 setting 0: involution check failed with residual 1.113e-05"),
            (lambda: MeasurementScenario.bloch(
                [((0.0, 0.0, 1.0), (0.0, 1.0, 0.0)), ((0.0, 1e-160, 1e-160), (0.0, 0.0, 1.0))]),
             InvariantViolation,
             "party 2 setting 0: involution check failed with residual 1.113e-05"),
            (lambda: MeasurementScenario.bloch([((0.0, 0.0, 1.0), (0.0, -0.0, 0.0))]),
             ValueError, "direction must be nonzero"),
            (lambda: MeasurementScenario.bloch([((0.0, 0.0, 1.0), (1e-170, 0.0, 0.0))]),
             ValueError, "direction must be nonzero"),
            (lambda: MeasurementScenario.bloch(
                [((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)), ((math.nan, 0.0, 1.0), (0.0, 0.0, 1.0))]),
             ValueError, "direction must be finite, got (nan, 0.0, 1.0)"),
            (lambda: MeasurementScenario.bloch([((0.0, -math.inf, 1.0), (0.0, 0.0, 0.0))]),
             ValueError, "direction must be finite, got (0.0, -inf, 1.0)"),
            (lambda: MeasurementScenario.bloch([((0.0, 1.0), (1.0, 0.0))]),
             TypeError, "bloch_observable() missing 1 required positional argument: 'nz'"),
            (lambda: MeasurementScenario.bloch([((0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))]),
             TypeError, "bloch_observable() takes 3 positional arguments but 4 were given"),
            (lambda: MeasurementScenario.bloch([]),
             ValueError, "scenario needs at least one party"),
            (lambda: MeasurementScenario.planar([(0.1, 0.2), (0.3, math.inf)]),
             ValueError, "theta must be finite, got inf"),
            (lambda: MeasurementScenario.planar([(math.nan, 0.2)]),
             ValueError, "theta must be finite, got nan"),
            (lambda: MeasurementScenario.planar([(0.1, 0.2, 0.3)]),
             ValueError, "too many values to unpack (expected 2)"),
            (lambda: MeasurementScenario.planar([]),
             ValueError, "scenario needs at least one party"),
        ],
        ids=["bloch-1e200", "bloch-1e200-setting-1", "bloch-1e-160", "bloch-1e-160-party-2",
             "bloch-zero", "bloch-underflow", "bloch-nan", "bloch-inf", "bloch-2-components",
             "bloch-4-components", "bloch-empty", "planar-inf", "planar-nan",
             "planar-three-angles", "planar-empty"],
    )
    def test_malformed_builds_raise_as_before_without_warnings(self, build, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as raised:
                build()
        assert type(raised.value) is error
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "pairs, error, message",
        [
            (
                [(SIGMA_X, SIGMA_Z), (SIGMA_X, 0.5 * SIGMA_X), (1j * SIGMA_X, SIGMA_Y)],
                InvariantViolation,
                "party 2 setting 1: involution check failed with residual 7.500e-01",
            ),
            (
                [(np.array([[np.nan, 1.0], [1.0, 0.0]]), SIGMA_Z)],
                ValueError,
                "dichotomic observable has a non-finite entry: [(nan+0j), (1+0j), (1+0j), 0j]",
            ),
            (
                [(SIGMA_X, SIGMA_Y), (SIGMA_Z, np.array([[1.0, 0.0], [0.0, np.inf]]))],
                ValueError,
                "dichotomic observable has a non-finite entry: [(1+0j), 0j, 0j, (inf+0j)]",
            ),
            ([], ValueError, "scenario needs at least one party"),
            # the stack's shape is named where the slot-by-slot build failed
            # to unpack a pair or to check a 2-vector
            ([(SIGMA_X,)], ValueError,
             "scenario locals must have shape (N, 2, 2, 2), got (1, 1, 2, 2)"),
            ([(SIGMA_X, SIGMA_Y, SIGMA_Z)], ValueError,
             "scenario locals must have shape (N, 2, 2, 2), got (1, 3, 2, 2)"),
            ([([1.0, 0.0], [0.0, 1.0])], ValueError,
             "scenario locals must have shape (N, 2, 2, 2), got (1, 2, 2)"),
        ],
        ids=["bad-slot", "nan", "inf", "empty", "one-setting", "three-settings", "two-vectors"],
    )
    def test_malformed_locals_raise_without_warnings(self, pairs, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as raised:
                MeasurementScenario(pairs)
        assert type(raised.value) is error
        assert str(raised.value) == message


class TestScenarioFiles:
    def test_planar_round_trip(self, tmp_path):
        scenario = MeasurementScenario.planar(
            ((0.25, -1.5), (math.pi, 0.0), (0.75, 2.0))
        )
        path = tmp_path / "planar.scenario"
        write_scenario_file(scenario, path)
        back = read_scenario_file(path)
        assert back.n_parties == 3
        for party in (1, 2, 3):
            for setting in (0, 1):
                assert np.array_equal(
                    back.observable(party, setting).local,
                    scenario.observable(party, setting).local,
                )

    def test_bloch_round_trip(self, tmp_path):
        scenario = MeasurementScenario.bloch(
            (
                ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
                ((0.0, 0.0, 1.0), (0.6, 0.0, 0.8)),
            )
        )
        path = tmp_path / "bloch.scenario"
        write_scenario_file(scenario, path)
        back = read_scenario_file(path)
        assert back.n_parties == 2
        for party in (1, 2):
            for setting in (0, 1):
                assert np.max(np.abs(
                    back.observable(party, setting).local
                    - scenario.observable(party, setting).local
                )) < 1e-15

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "parties 2 family planar\n0 0\n",
            "parties two family planar\n0 0\n0 0\n",
            "parties 2 family spherical\n0 0\n0 0\n",
            "parties 1 family planar\n0 0 0\n",
            "parties 1 family bloch\n1 0 0 0 0\n",
            "parties 1 family planar\nzero 0\n",
        ],
    )
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.scenario"
        path.write_text(text, encoding="ascii")
        with pytest.raises(FileFormatError):
            read_scenario_file(path)

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("family", ["planar", "bloch"])
    def test_writer_matches_the_whole_text_oracle(self, tmp_path, n, family):
        scenario = random_scenario(700 + n, n, family)
        write_scenario_file(scenario, tmp_path / "streamed.scenario")
        text_write_scenario_file(scenario, tmp_path / "text.scenario")
        streamed = (tmp_path / "streamed.scenario").read_bytes()
        assert streamed == (tmp_path / "text.scenario").read_bytes()
        assert streamed.startswith(f"parties {n} family {family}\n".encode())

    def test_writer_leaves_no_file_for_a_local_off_the_bloch_form(self, tmp_path):
        scenario = MeasurementScenario([(SIGMA_Z, -ID2)])
        path = tmp_path / "general.scenario"
        with pytest.raises(ValueError, match="Bloch form"):
            write_scenario_file(scenario, path)
        assert not path.exists()

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r", b"\x0c", b"\n\n  "])
    def test_any_line_break_reads_the_same(self, tmp_path, newline):
        path = tmp_path / "bloch.scenario"
        write_scenario_file(random_scenario(71, 3, "bloch"), path)
        other = tmp_path / "other.scenario"
        other.write_bytes(path.read_bytes().replace(b"\n", newline))
        want = read_scenario_file(path).locals
        assert read_scenario_file(other).locals.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "data, message",
        [
            # the row count is checked at the end of the file, after the rows
            (b"parties 1 family planar\nzero 0\n0 0\n",
             "party row 1: bad number: could not convert string to float: 'zero'"),
            (b"parties 2 family planar\n0\n", "party row 1: expected 2 numbers, got 1"),
            (b"parties 1 family planar\n0 1\n\xff\n",
             "scenario file is not ASCII: line 3: 'ascii' codec can't decode byte 0xff "
             "in position 0: ordinal not in range(128)"),
        ],
    )
    def test_first_fault_in_file_order_is_reported(self, tmp_path, data, message):
        path = tmp_path / "faults.scenario"
        path.write_bytes(data)
        with pytest.raises(FileFormatError) as caught:
            read_scenario_file(path)
        assert str(caught.value) == message
