import functools
import math

import numpy as np
import pytest

from bellbounds import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DichotomicObservable,
    FileFormatError,
    InvariantViolation,
    MeasurementScenario,
    bloch_observable,
    embed_local,
    planar_observable,
    read_scenario_file,
    tensor_product,
    validate_dichotomic,
    write_scenario_file,
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

    def test_violation_formats(self):
        report = validate_dichotomic(0.5 * SIGMA_X)
        assert "involution" in str(report)


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

    def test_rejects_bad_party_and_setting(self):
        with pytest.raises(ValueError):
            DichotomicObservable(SIGMA_X, 0, 0)
        with pytest.raises(ValueError):
            DichotomicObservable(SIGMA_X, 1, 2)

    def test_embedded_matches_kron_chain(self):
        obs = DichotomicObservable(SIGMA_Y, 2, 0)
        want = functools.reduce(tensor_product, (ID2, SIGMA_Y, ID2))
        assert np.array_equal(embed_local(obs.local, obs.party, 3), want)

    def test_embedded_is_frozen(self):
        obs = DichotomicObservable(SIGMA_X, 1, 0)
        with pytest.raises(ValueError):
            embed_local(obs.local, obs.party, 2)[0, 0] = 1.0

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

    def test_rejects_mislabeled_pairs(self):
        # slot 1 must hold party-1 observables
        wrong = (
            (
                DichotomicObservable(SIGMA_X, 2, 0),
                DichotomicObservable(SIGMA_Y, 2, 1),
            ),
        )
        with pytest.raises(ValueError):
            MeasurementScenario(wrong)

    def test_rejects_mismatched_settings(self):
        wrong = (
            (
                DichotomicObservable(SIGMA_X, 1, 0),
                DichotomicObservable(SIGMA_Y, 1, 0),
            ),
        )
        with pytest.raises(ValueError):
            MeasurementScenario(wrong)

    def test_swapped_settings_exchanges_observables(self):
        scenario = MeasurementScenario.planar(((0.1, 0.9), (0.0, -0.5)))
        swapped = scenario.with_swapped_settings()
        for party in (1, 2):
            assert np.array_equal(
                swapped.observable(party, 0).local,
                scenario.observable(party, 1).local,
            )
            assert np.array_equal(
                swapped.observable(party, 1).local,
                scenario.observable(party, 0).local,
            )


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
