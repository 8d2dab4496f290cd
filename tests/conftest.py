"""Shared fixtures for the test suite.

Expensive artefacts (the full biquad fault-simulation campaign) are
session-scoped; everything else is rebuilt per test for isolation.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings as hypothesis_settings

from repro.analysis import decade_grid
from repro.circuits import benchmark_biquad
from repro.errors import CampaignError, SingularCircuitError
from repro.experiments.paper import PaperScenario
from repro.faults import SimulationSetup, deviation_faults, simulate_faults
from repro.faults.simulator import fault_labels, simulate_configuration
from repro.verify import reference_dataset
from repro.verify.invariants import check_assembly

# Hypothesis profiles: "ci" is deterministic (derandomized, no deadline)
# so CI failures are reproducible from the printed seed; "dev" keeps the
# default random exploration but drops the deadline — circuit simulation
# is too slow for hypothesis's per-example timing budget.
hypothesis_settings.register_profile(
    "ci", derandomize=True, deadline=None, max_examples=20
)
hypothesis_settings.register_profile("dev", deadline=None)
hypothesis_settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "dev")
)


@pytest.fixture
def biquad_bench():
    """A fresh biquad benchmark circuit (paper Fig. 1)."""
    return benchmark_biquad()


@pytest.fixture
def biquad(biquad_bench):
    """The bare biquad circuit."""
    return biquad_bench.circuit


@pytest.fixture
def biquad_grid(biquad_bench):
    """A light Ω_reference grid around the biquad's f0 (fast tests)."""
    return decade_grid(biquad_bench.f0_hz, 2, 2, points_per_decade=30)


@pytest.fixture(scope="session")
def paper_scenario():
    """A moderately sampled paper scenario shared across the session."""
    return PaperScenario(points_per_decade=60)


@pytest.fixture(scope="session")
def paper_dataset(paper_scenario):
    """The full C0…C6 fault campaign on the biquad (session-cached)."""
    return paper_scenario.dataset()


@pytest.fixture(scope="session")
def simulated_matrix(paper_dataset):
    return paper_dataset.detectability_matrix()


@pytest.fixture(scope="session")
def simulated_table(paper_dataset):
    return paper_dataset.omega_table()


@pytest.fixture(scope="session")
def mini_dataset():
    """A small, fast campaign (coarse grid) for schedule/maskd tests."""
    bench = benchmark_biquad()
    mcc = bench.dft()
    faults = deviation_faults(bench.circuit, 0.20)
    grid = decade_grid(bench.f0_hz, 2, 2, points_per_decade=15)
    setup = SimulationSetup(grid=grid, epsilon=0.10)
    return simulate_faults(mcc, faults, setup)


def assert_matches_reference(case, dataset=None):
    """The production engine against the scalar reference on ``case``.

    ``dataset`` defaults to ``simulate_faults`` on the case.  Where that
    fails on a :class:`SingularCircuitError`, :func:`reference_dataset`
    must meet a singular sweep of the same circuit.  Otherwise the
    ``invariant-assembly`` check must find nothing: every nominal sweep,
    verdict, mask and ω equal to the reference's, and every peak too,
    within ``deviation_rtol`` for Sherman–Morrison pairs and exactly for
    pairs on an exact sweep.
    """
    if dataset is None:
        mcc, faults = case.mcc(), list(case.faults)
        try:
            dataset = simulate_faults(mcc, faults, case.setup)
        except CampaignError as exc:
            if not isinstance(exc.__cause__, SingularCircuitError):
                raise
            configs = mcc.configurations(
                include_functional=True, include_transparent=False
            )
            with pytest.raises(SingularCircuitError) as info:
                reference_dataset(mcc, faults, case.setup, configs)
            assert str(exc.__cause__).startswith(str(info.value))
            return
    assert check_assembly(case, dataset) == []


def bare_row(circuit, faults, setup):
    """A bare circuit's (no DFT) row: ``(labels, detections)``.

    The labels are the campaign's (:func:`fault_labels`, so colliding
    labels raise its :class:`CampaignError`); the
    :class:`~repro.core.detectability.Detections` hold one row per
    fault, from :func:`simulate_configuration` on the circuit alone.
    """
    labels = fault_labels(faults, setup.fault_name_style)
    _, detections, _ = simulate_configuration(
        circuit, setup.output or circuit.output, faults, labels, setup
    )
    return labels, detections
