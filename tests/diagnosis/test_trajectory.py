"""Trajectory dictionaries: grids, shapes, counts, the simulator oracle."""

import numpy as np
import pytest

from repro.analysis import KernelStats, ac_analysis
from repro.diagnosis import (
    build_trajectory_dictionary,
    deviation_grid,
    trajectory_faults,
    trajectory_responses,
)
from repro.diagnosis.trajectory import validate_deviations
from repro.errors import AnalysisError, FaultModelError
from repro.faults import DeviationFault

COMPONENTS = ("R1a", "C1a", "R2b")
DEVIATIONS = (-0.25, 0.25)


def per_point_oracle(circuit, probe, grid):
    """The per-point rebuild loop: nominal + one sweep per fault."""
    nominal = ac_analysis(circuit, grid, output=probe)
    points = {
        (fault.target, fault.deviation): ac_analysis(
            fault.apply(circuit), grid, output=probe
        )
        for fault in trajectory_faults(COMPONENTS, DEVIATIONS)
    }
    return nominal, points


class TestDeviationGrid:
    def test_default_shape(self):
        grid = deviation_grid()
        assert grid == (
            -0.5, -0.375, -0.25, -0.125, 0.125, 0.25, 0.375, 0.5
        )

    def test_symmetric_and_zero_free(self):
        grid = deviation_grid(span=0.4, steps=3)
        assert len(grid) == 6
        assert 0.0 not in grid
        assert grid == tuple(sorted(grid))
        negatives, positives = grid[:3], grid[3:]
        assert negatives == tuple(-d for d in reversed(positives))

    def test_validation(self):
        with pytest.raises(FaultModelError):
            deviation_grid(span=0.0)
        with pytest.raises(FaultModelError):
            deviation_grid(span=1.0)
        with pytest.raises(FaultModelError):
            deviation_grid(steps=0)

    def test_validate_deviations(self):
        assert validate_deviations([0.1, -0.1]) == (0.1, -0.1)
        with pytest.raises(FaultModelError):
            validate_deviations([])
        with pytest.raises(FaultModelError):
            validate_deviations([0.1, 0.1])
        with pytest.raises(FaultModelError):
            validate_deviations([0.0])
        with pytest.raises(FaultModelError):
            validate_deviations([-1.0])

    def test_trajectory_faults_component_major(self):
        faults = trajectory_faults(["R1", "C1"], [0.1, -0.1])
        assert [f.name for f in faults] == [
            "fR1+10%", "fR1-10%", "fC1+10%", "fC1-10%"
        ]


class TestBuild:
    def test_shapes_and_accounting(self, sallen_key, small_grid):
        _, mcc = sallen_key
        dictionary = build_trajectory_dictionary(
            mcc, small_grid, components=COMPONENTS, deviations=DEVIATIONS
        )
        # sallen_key: 2 opamps -> C0, C1, C2 (transparent C3 excluded)
        assert dictionary.n_configs == 3
        assert dictionary.responses.shape == (
            3, len(COMPONENTS) * len(DEVIATIONS), small_grid.n_points
        )
        assert not dictionary.responses.flags.writeable
        assert dictionary.config_labels == ("C0", "C1", "C2")
        assert dictionary.components == COMPONENTS
        assert dictionary.n_trajectories == 3 * len(COMPONENTS)
        assert dictionary.n_points == 3 * len(COMPONENTS) * len(DEVIATIONS)
        assert dictionary.n_solves == 3 * (
            1 + len(COMPONENTS) * len(DEVIATIONS)
        )
        # one LU per solved sweep and grid point
        assert dictionary.n_factorizations == (
            dictionary.n_solves * small_grid.n_points
        )
        assert dictionary.deviation_step == 0.25
        assert "trajectory dictionary" in dictionary.describe()

    def test_trajectory_accessor_sorted_by_deviation(
        self, sallen_key, small_grid
    ):
        _, mcc = sallen_key
        dictionary = build_trajectory_dictionary(
            mcc, small_grid, components=COMPONENTS, deviations=DEVIATIONS
        )
        index = dictionary.config_indices[0]
        curve = dictionary.trajectory(index, "R1a")
        assert [d for d, _ in curve] == sorted(DEVIATIONS)
        column = {d: j for j, d in enumerate(DEVIATIONS)}  # R1a is first
        for deviation, response in curve:
            # a read-only view of the stored row, not a copy
            stored = dictionary.responses[0, column[deviation]]
            assert np.shares_memory(response.values, dictionary.responses)
            assert np.array_equal(response.values, stored)
            assert not response.values.flags.writeable

    def test_stacked_build_is_bit_identical(self, sallen_key, small_grid):
        """The stamp-program build equals the per-point rebuild loop,
        nominal sweeps included."""
        _, mcc = sallen_key
        dictionary = build_trajectory_dictionary(
            mcc, small_grid, components=COMPONENTS, deviations=DEVIATIONS
        )
        for config in mcc.configurations(
            include_functional=True, include_transparent=False
        ):
            emulated = mcc.emulate(config)
            nominal, points = per_point_oracle(
                emulated, emulated.output or mcc.base.output, small_grid
            )
            assert np.array_equal(
                dictionary.nominal[config.index].values, nominal.values
            )
            for (component, deviation), response in points.items():
                assert np.array_equal(
                    dictionary.response(
                        config.index, component, deviation
                    ).values,
                    response.values,
                )

    def test_points_reproduce_the_fault_simulator(
        self, sallen_key, small_grid
    ):
        """A trajectory point at a fault-universe deviation *is* the
        fault simulator's faulty response, bit for bit."""
        _, mcc = sallen_key
        dictionary = build_trajectory_dictionary(
            mcc, small_grid, components=COMPONENTS, deviations=DEVIATIONS
        )
        for config in mcc.configurations(
            include_functional=True, include_transparent=False
        ):
            emulated = mcc.emulate(config)
            probe = emulated.output or mcc.base.output
            for component in COMPONENTS:
                for deviation in DEVIATIONS:
                    fault = DeviationFault(component, deviation)
                    reference = ac_analysis(
                        fault.apply(emulated), small_grid, output=probe
                    )
                    stored = dictionary.response(
                        config.index, component, deviation
                    )
                    assert np.array_equal(
                        stored.values, reference.values
                    )

    def test_component_validation(self, sallen_key, small_grid):
        _, mcc = sallen_key
        with pytest.raises(FaultModelError, match="unknown passive"):
            build_trajectory_dictionary(
                mcc, small_grid, components=["R99"]
            )
        with pytest.raises(FaultModelError, match="unique"):
            build_trajectory_dictionary(
                mcc, small_grid, components=["R1a", "R1a"]
            )
        with pytest.raises(FaultModelError, match="no components"):
            build_trajectory_dictionary(mcc, small_grid, components=[])
        with pytest.raises(AnalysisError, match="no configurations"):
            build_trajectory_dictionary(
                mcc, small_grid, components=COMPONENTS, configs=[]
            )

    def test_default_components_cover_every_passive(
        self, sallen_key, small_grid
    ):
        _, mcc = sallen_key
        dictionary = build_trajectory_dictionary(
            mcc, small_grid, deviations=DEVIATIONS
        )
        assert dictionary.components == tuple(
            e.name for e in mcc.base.passives()
        )


class TestTrajectoryResponses:
    def test_kernel_parity_and_counts(self, sallen_key, small_grid):
        _, mcc = sallen_key
        config = mcc.configurations()[0]
        emulated = mcc.emulate(config)
        probe = emulated.output or mcc.base.output
        stats = KernelStats()
        nominal, points, n_solves = trajectory_responses(
            emulated, probe, COMPONENTS, DEVIATIONS, small_grid, stats=stats
        )
        oracle_nominal, oracle_points = per_point_oracle(
            emulated, probe, small_grid
        )
        assert n_solves == 1 + len(COMPONENTS) * len(DEVIATIONS)
        assert stats.factorizations == n_solves * small_grid.n_points
        assert np.array_equal(nominal, oracle_nominal.values)
        # one row per (component, deviation), component-major
        assert np.array_equal(
            points,
            [oracle_points[key].values for key in oracle_points],
        )

    def test_unknown_kernel_rejected(self, sallen_key, small_grid):
        """The kernel option is gone: any ``kernel=`` is unknown."""
        _, mcc = sallen_key
        with pytest.raises(TypeError, match="kernel"):
            build_trajectory_dictionary(
                mcc, small_grid, components=COMPONENTS,
                deviations=DEVIATIONS, kernel="stacked",
            )
