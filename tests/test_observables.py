import math
import re

import numpy as np
import pytest

from bellbounds import (
    DichotomicObservable,
    FileFormatError,
    InvariantViolation,
    MeasurementScenario,
    write_scenario_file,
)
from bellbounds.linalg import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
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

    def test_rejects_observables_in_place_of_locals(self):
        pair = (DichotomicObservable(SIGMA_X, 1, 0), DichotomicObservable(SIGMA_Y, 1, 1))
        with pytest.raises(TypeError):
            MeasurementScenario([pair])


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
