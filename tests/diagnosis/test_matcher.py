"""Nearest-trajectory matching: recovery, ambiguity, layer unification."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import FrequencyResponse, decade_grid
from repro.core import analyze_diagnosis
from repro.diagnosis import (
    DISTANCES,
    build_trajectory_dictionary,
    deviation_grid,
    locate_fault,
    match_response,
)
from repro.errors import AnalysisError
from repro.faults import (
    DeviationFault,
    SimulationSetup,
    simulate_faults,
)

from .conftest import make_mcc

#: per-circuit seeded injections: a clearly identifiable component and
#: an off-grid deviation (the acceptance scenario of the subsystem)
SEEDED = [
    ("sallen_key", "R1a", +0.33),
    ("biquad", "R2", +0.33),
    ("bandpass_mfb", "C1a", -0.30),
]


def small_dictionary(name, **kwargs):
    bench, mcc = make_mcc(name)
    grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=6)
    dictionary = build_trajectory_dictionary(
        mcc, grid, deviations=deviation_grid(span=0.5, steps=2), **kwargs
    )
    return mcc, dictionary


class TestSeededRecovery:
    @pytest.mark.parametrize("name,component,deviation", SEEDED)
    def test_single_fault_is_located_within_one_grid_step(
        self, name, component, deviation
    ):
        mcc, dictionary = small_dictionary(name)
        fault = DeviationFault(component, deviation)
        diagnosis = locate_fault(dictionary, mcc, fault)
        score = diagnosis.evaluate(component, deviation)
        assert score["hit"], (
            f"{name}: true component {component} not in ambiguity set "
            f"{diagnosis.ambiguity}"
        )
        assert score["deviation_error"] <= dictionary.deviation_step
        assert not diagnosis.fault_free
        assert any(diagnosis.signature)

    def test_off_grid_fault_is_the_best_match(self):
        """R1a at +30 % on a 6-points-per-decade ``sallen_key``
        dictionary (±50 % in four steps a side): R1a ranks first,
        within one grid step."""
        from repro.diagnosis import observe_fault

        bench, mcc = make_mcc("sallen_key")
        grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=6)
        dictionary = build_trajectory_dictionary(
            mcc, grid, deviations=deviation_grid(span=0.5, steps=4)
        )
        observed = observe_fault(mcc, DeviationFault("R1a", 0.30), grid)
        diagnosis = match_response(dictionary, observed)
        assert diagnosis.best.component == "R1a"
        assert abs(diagnosis.best.deviation - 0.30) <= (
            dictionary.deviation_step
        )
        assert "R1a" in diagnosis.ambiguity

    def test_on_grid_fault_matches_exactly(self):
        mcc, dictionary = small_dictionary("sallen_key")
        fault = DeviationFault("C1a", +0.25)
        diagnosis = locate_fault(dictionary, mcc, fault)
        match = diagnosis.match_for("C1a")
        assert match.deviation == 0.25
        assert match.distance == 0.0
        assert diagnosis.best.component == "C1a"
        assert diagnosis.rank_of("C1a") == 0

    def test_fault_free_observation(self):
        _, dictionary = small_dictionary("sallen_key")
        observed = {
            index: dictionary.nominal[index]
            for index in dictionary.config_indices
        }
        diagnosis = match_response(dictionary, observed)
        assert diagnosis.fault_free
        assert diagnosis.signature == (0,) * dictionary.n_configs
        assert "fault-free" in diagnosis.render()


class TestDiagnosisObject:
    def test_render_and_json(self):
        mcc, dictionary = small_dictionary("sallen_key")
        diagnosis = locate_fault(
            dictionary, mcc, DeviationFault("R1a", +0.33)
        )
        rendered = diagnosis.render()
        assert "signature" in rendered
        assert "ambiguity set" in rendered
        payload = diagnosis.to_json()
        assert payload["metric"] == "relative"
        assert payload["ambiguity"] == list(diagnosis.ambiguity)
        assert len(payload["matches"]) == len(dictionary.components)
        assert payload["matches"] == sorted(
            payload["matches"], key=lambda m: m["distance"]
        )

    def test_ambiguity_tolerance_widens_the_set(self):
        mcc, dictionary = small_dictionary("sallen_key")
        fault = DeviationFault("R1a", +0.33)
        tight = locate_fault(
            dictionary, mcc, fault, ambiguity_tolerance=0.0
        )
        loose = locate_fault(
            dictionary, mcc, fault, ambiguity_tolerance=1e9
        )
        assert set(tight.ambiguity) <= set(loose.ambiguity)
        assert len(loose.ambiguity) == len(dictionary.components)
        assert tight.best.component in tight.ambiguity

    def test_verdict_unifies_with_the_boolean_signature_layer(self):
        """The trajectory observation's Definition 1 signature plugs
        straight into ``repro.core.diagnosis.diagnose``."""
        bench, mcc = make_mcc("sallen_key")
        grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=6)
        components = ("R1a", "C1a", "R2b")
        dictionary = build_trajectory_dictionary(
            mcc, grid, components=components, deviations=(0.25,)
        )
        setup = SimulationSetup(
            grid=grid, epsilon=0.10, criterion="relative"
        )
        dataset = simulate_faults(
            mcc,
            [DeviationFault(c, 0.25) for c in components],
            setup,
        )
        report = analyze_diagnosis(dataset.detectability_matrix())
        diagnosis = locate_fault(
            dictionary, mcc, DeviationFault("R1a", +0.25)
        )
        verdict = diagnosis.verdict(report)
        assert verdict.observed == diagnosis.signature
        assert not verdict.fault_free
        assert verdict.known
        assert "fR1a" in verdict.candidates


class TestValidation:
    def test_unknown_metric(self):
        _, dictionary = small_dictionary("sallen_key")
        observed = {
            index: dictionary.nominal[index]
            for index in dictionary.config_indices
        }
        with pytest.raises(AnalysisError, match="unknown trajectory"):
            match_response(dictionary, observed, metric="hamming")

    def test_named_metrics_and_callables(self):
        """The distances are Definition 1's two criteria, by name; a
        callable is refused like any unknown name."""
        mcc, dictionary = small_dictionary("sallen_key")
        fault = DeviationFault("R1a", +0.33)
        assert DISTANCES == ("relative", "band")
        for metric in DISTANCES:
            diagnosis = locate_fault(dictionary, mcc, fault, metric=metric)
            assert diagnosis.metric == metric

        def l2(reference, observed):
            return np.abs(observed.values - reference.values)

        with pytest.raises(AnalysisError, match="unknown trajectory"):
            locate_fault(dictionary, mcc, fault, metric=l2)

    def test_parameter_validation(self):
        _, dictionary = small_dictionary("sallen_key")
        observed = {
            index: dictionary.nominal[index]
            for index in dictionary.config_indices
        }
        with pytest.raises(AnalysisError, match="ambiguity_tolerance"):
            match_response(dictionary, observed, ambiguity_tolerance=-1.0)
        with pytest.raises(AnalysisError, match="epsilon"):
            match_response(dictionary, observed, epsilon=0.0)

    def test_missing_configuration_rejected(self):
        _, dictionary = small_dictionary("sallen_key")
        index = dictionary.config_indices[0]
        with pytest.raises(AnalysisError, match="missing configuration"):
            match_response(
                dictionary, {index: dictionary.nominal[index]}
            )

    def test_response_distance_is_the_infinity_norm(self):
        """A point's distance is its largest deviation from the
        observation over every frequency and configuration."""
        _, dictionary = small_dictionary("sallen_key")
        observed = dict(dictionary.nominal)
        diagnosis = match_response(dictionary, observed)
        for component in dictionary.components:
            match = diagnosis.match_for(component)
            distances = [
                max(
                    float(
                        np.max(
                            dictionary.response(
                                index, component, deviation
                            ).relative_deviation(observed[index])
                        )
                    )
                    for index in dictionary.config_indices
                )
                for deviation in dictionary.deviations
            ]
            assert match.distance == min(distances)
            assert match.deviation == dictionary.deviations[
                distances.index(min(distances))
            ]

    def test_foreign_grid_and_zero_band_peak_rejected(self):
        """An observation on another grid, and a band distance from an
        identically zero point, raise before any match is returned."""
        _, dictionary = small_dictionary("sallen_key")
        index = dictionary.config_indices[0]
        observed = dict(dictionary.nominal)
        regridded = decade_grid(1e3, 1, 1, points_per_decade=7)
        observed[index] = FrequencyResponse(
            regridded, np.ones(regridded.n_points)
        )
        with pytest.raises(AnalysisError, match="different grids"):
            match_response(dictionary, observed)
        responses = np.array(dictionary.responses)
        responses[0, 0] = 0.0
        zeroed = dataclasses.replace(dictionary, responses=responses)
        with pytest.raises(AnalysisError, match="identically zero"):
            match_response(zeroed, dict(zeroed.nominal), metric="band")
