"""Every exact cover of the catalog campaigns, pinned byte for byte.

The covering layer's exact answers come from branch and bound, which
breaks ties by its branching order: a change to that order can move a
cover to another of the same size without failing any size check.  This
module re-derives every exact cover of a fixed set of catalog campaigns
and compares it with ``data/exact_covers.json``:

* the configuration cover at each feasible ``n_detect`` up to 3, and at
  ``n_detect=2`` with ``saturate=True``;
* the maximum-diagnosability configuration set
  (``optimize_for_diagnosis(method="exact")``);
* the measurements of ``select_test_frequencies(method="exact",
  candidate_stride=5)``.

The campaigns are every catalog circuit at deviations +0.2 and +0.5 and
tolerances ε 0.05 and 0.14, 2 decades each side of f0 at 20 points per
decade.  ``PYTHONPATH=src python tests/core/test_exact_covers.py``
rewrites the file; a change that moves a cover on purpose says so and
rewrites it.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import decade_grid
from repro.circuits import build, catalog
from repro.core import (
    branch_and_bound_cover,
    build_coverage_problem,
    max_feasible_n,
    optimize_for_diagnosis,
    select_test_frequencies,
)
from repro.faults import SimulationSetup, deviation_faults, simulate_faults

COVER_FIXTURE = Path(__file__).parent / "data" / "exact_covers.json"
DEVIATIONS = (0.2, 0.5)
EPSILONS = (0.05, 0.14)


def exact_covers(name):
    """The pinned exact answers of one catalog circuit's campaigns."""
    bench = build(name)
    grid = decade_grid(bench.f0_hz, 2, 2, points_per_decade=20)
    answers = {}
    for deviation in DEVIATIONS:
        faults = deviation_faults(bench.circuit, deviation)
        for epsilon in EPSILONS:
            dataset = simulate_faults(
                bench.dft(), faults, SimulationSetup(grid=grid, epsilon=epsilon)
            )
            matrix = dataset.detectability_matrix()
            covers = {
                str(n): sorted(
                    branch_and_bound_cover(
                        build_coverage_problem(matrix, n_detect=n)
                    )
                )
                for n in range(1, min(3, max_feasible_n(matrix)) + 1)
            }
            covers["2 saturate"] = sorted(
                branch_and_bound_cover(
                    build_coverage_problem(matrix, n_detect=2, saturate=True)
                )
            )
            schedule = select_test_frequencies(
                dataset, method="exact", candidate_stride=5
            )
            answers[f"{name} dev={deviation:g} eps={epsilon:g}"] = {
                "configuration covers": covers,
                "diagnosis": sorted(
                    optimize_for_diagnosis(matrix, method="exact")
                ),
                "measurements": [
                    [m.config_index, m.frequency_hz]
                    for m in schedule.measurements
                ],
            }
    return answers


@pytest.fixture(scope="module")
def pinned():
    return json.loads(COVER_FIXTURE.read_text())


def test_fixture_names_every_campaign(pinned):
    assert sorted(pinned) == sorted(
        f"{name} dev={deviation:g} eps={epsilon:g}"
        for name in catalog()
        for deviation in DEVIATIONS
        for epsilon in EPSILONS
    )


@pytest.mark.parametrize("name", catalog())
def test_every_exact_cover_is_pinned(name, pinned):
    """Re-deriving a circuit's exact answers gives every pinned one."""
    answers = exact_covers(name)
    assert answers == {key: pinned[key] for key in answers}


if __name__ == "__main__":
    COVER_FIXTURE.parent.mkdir(exist_ok=True)
    fixture = {}
    for circuit in catalog():
        fixture.update(exact_covers(circuit))
    COVER_FIXTURE.write_text(
        json.dumps(fixture, indent=1, sort_keys=True) + "\n"
    )
