"""Run every paper experiment in both modes and collect the reports.

``python -m repro.experiments.runner`` prints the complete reproduction —
all tables, figures, the scaling study and the ablations — which is also
what ``examples/full_reproduction.py`` wraps.
"""

from __future__ import annotations

import inspect
from typing import List, Optional

from ..reporting.report import ExperimentReport, render_reports
from . import (
    exp_ablations,
    exp_covering,
    exp_diagnosis,
    exp_epsilon,
    exp_fig5,
    exp_graph1,
    exp_graph2,
    exp_graph3,
    exp_graph4,
    exp_headline,
    exp_scaling,
    exp_table1,
    exp_table2,
    exp_table3,
    exp_table4,
)
from .paper import MODES, PaperScenario, default_scenario

#: the per-table/figure drivers, in paper order
DRIVERS = (
    exp_table1,
    exp_graph1,
    exp_fig5,
    exp_table2,
    exp_graph2,
    exp_covering,
    exp_graph3,
    exp_table3,
    exp_table4,
    exp_graph4,
    exp_headline,
    exp_diagnosis,
)


def _accepts_scenario(driver) -> bool:
    """Whether a driver's ``run`` takes the shared paper scenario.

    Structural drivers (Tables 1 and 3) regenerate the published
    configuration tables and take only a mode.  Inspecting the signature
    — rather than probing with a ``try/except TypeError`` — keeps
    genuine ``TypeError``\\ s raised *inside* a driver from being
    silently re-dispatched or swallowed.
    """
    try:
        signature = inspect.signature(driver.run)
    except (TypeError, ValueError):
        return True
    return "scenario" in signature.parameters


def run_paper_experiments(
    modes=MODES, scenario: Optional[PaperScenario] = None
) -> List[ExperimentReport]:
    """Every table/figure driver, in each requested mode."""
    scenario = scenario or default_scenario()
    reports: List[ExperimentReport] = []
    for driver in DRIVERS:
        takes_scenario = _accepts_scenario(driver)
        for mode in modes:
            if takes_scenario:
                reports.append(driver.run(mode, scenario=scenario))
            else:
                reports.append(driver.run(mode))
    return reports


def run_all(
    include_scaling: bool = True,
    include_ablations: bool = True,
    executor=None,
    cache=None,
):
    """The complete reproduction run.

    ``executor`` / ``cache`` run the scaling study's fault-simulation
    campaigns in parallel and resumably (see :mod:`repro.campaign`)
    without changing any result.
    """
    reports = run_paper_experiments()
    if include_scaling:
        reports.append(exp_scaling.run(executor=executor, cache=cache))
    if include_ablations:
        reports.extend(exp_ablations.run())
        reports.append(exp_epsilon.run())
    return reports


def main() -> None:
    print(render_reports(run_all()))


if __name__ == "__main__":
    main()
