"""Dictionary construction as a resumable, parallel campaign.

A trajectory dictionary is the expensive half of fault location — the
matcher itself is a cheap array scan.  This module is the one build:
it decomposes the dictionary into one content-hashed
:data:`DIAGNOSIS_KIND` unit per configuration and runs it through the
shared campaign machinery, exactly like the fault simulator and the
ε-calibration engine:

* units execute through any :class:`~repro.campaign.executor.Executor`
  (serial or process-parallel) via the shared
  :func:`~repro.campaign.executor.execute_unit`;
* a :class:`~repro.campaign.cache.ResultCache` resumes interrupted
  builds and answers re-planned unchanged configurations without a
  single solve;
* :class:`~repro.campaign.telemetry.CampaignTelemetry` observes unit
  completions for traces, progress lines and the service's
  ``/metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.ac import FrequencyResponse
from ..analysis.sweep import FrequencyGrid
from ..dft.configuration import Configuration
from ..dft.transform import MultiConfigurationCircuit
from ..errors import AnalysisError, FaultModelError
from ..campaign.cache import ResultCache
from ..campaign.engine import execute_units
from ..campaign.executor import Executor, Unit, UnitKind
from ..campaign.plan import grid_key
from ..campaign.telemetry import CampaignTelemetry
from .trajectory import (
    TrajectoryDictionary,
    deviation_grid,
    trajectory_responses,
    validate_deviations,
)

#: bumped whenever the result layout or key recipe changes (v2: the
#: responses' frequency grids carry their cell widths and pickle as
#: their parameters, so a v1 entry would load grids without widths)
DIAGNOSIS_FORMAT = "diagnosis-v2"


def run_diagnosis_unit(
    bases, stats, circuit, output, components, deviations, grid
):
    """Build one configuration's trajectories (:data:`DIAGNOSIS_KIND`).

    ``responses`` holds one row per (component, deviation) point,
    component-major, deviation-minor.
    """
    nominal, responses, n_solves = trajectory_responses(
        circuit, output, components, deviations, grid, stats=stats
    )
    arrays = {"nominal": nominal, "responses": responses}
    return n_solves, arrays, {"label": f"{circuit.title}:V({output})"}


#: one configuration's trajectories over every component and deviation
DIAGNOSIS_KIND = UnitKind(
    name="diagnosis",
    format=DIAGNOSIS_FORMAT,
    key_fields=("output", "grid", "components", "deviations", "circuit"),
    run=run_diagnosis_unit,
    arrays=("nominal", "responses"),
    values=("label",),
)


def _key_texts(circuit, output, components, deviations, grid):
    """The key texts of a diagnosis unit with these args."""
    return dict(
        output=str(output),
        grid=grid_key(grid),
        components=",".join(components),
        deviations=",".join(repr(d) for d in deviations),
        circuit=circuit.identity(),
    )


def _resolve_components(
    circuit, components: Optional[Sequence[str]]
) -> Tuple[str, ...]:
    known = [e.name for e in circuit.passives()]
    if components is None:
        return tuple(known)
    resolved = tuple(components)
    if not resolved:
        raise FaultModelError("no components to build trajectories for")
    if len(set(resolved)) != len(resolved):
        raise FaultModelError("trajectory components must be unique")
    unknown = [name for name in resolved if name not in known]
    if unknown:
        raise FaultModelError(
            f"unknown passive component(s) {', '.join(unknown)}; "
            f"expected a subset of {known}"
        )
    return resolved


@dataclass(frozen=True)
class DiagnosisPlan:
    """A fully planned dictionary build: ordered units + shared context."""

    units: Tuple[Unit, ...]
    config_labels: Tuple[str, ...]
    config_indices: Tuple[int, ...]
    components: Tuple[str, ...]
    deviations: Tuple[float, ...]
    grid: FrequencyGrid

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(unit.key for unit in self.units)

    def describe(self) -> str:
        return (
            f"diagnosis plan: {self.n_units} configuration(s) x "
            f"{len(self.components)} component(s) x "
            f"{len(self.deviations)} deviation(s)"
        )


def plan_diagnosis_campaign(
    mcc: MultiConfigurationCircuit,
    grid: FrequencyGrid,
    components: Optional[Sequence[str]] = None,
    deviations: Optional[Sequence[float]] = None,
    configs: Optional[Sequence[Configuration]] = None,
    output: Optional[str] = None,
) -> DiagnosisPlan:
    """Decompose a dictionary build into hashed per-configuration units.

    ``components`` defaults to every passive of the base circuit,
    ``deviations`` to :func:`~repro.diagnosis.trajectory.
    deviation_grid`'s default, ``configs`` to every non-transparent
    configuration (functional included — the diagnosis configuration
    set of the paper's flow).
    """
    resolved_components = _resolve_components(mcc.base, components)
    resolved_deviations = validate_deviations(
        deviations if deviations is not None else deviation_grid()
    )
    if configs is None:
        configs = mcc.configurations(
            include_functional=True, include_transparent=False
        )
    if not configs:
        raise AnalysisError("no configurations to build trajectories for")

    units: List[Unit] = []
    for config in configs:
        emulated = mcc.emulate(config)
        probe = output or emulated.output or mcc.base.output
        args = dict(
            circuit=emulated,
            output=probe,
            components=resolved_components,
            deviations=resolved_deviations,
            grid=grid,
        )
        units.append(
            DIAGNOSIS_KIND.unit(
                unit_id=config.label,
                label=config.label,
                size=len(resolved_components) * len(resolved_deviations),
                args=args,
                key_texts=partial(_key_texts, **args),
            )
        )

    return DiagnosisPlan(
        units=tuple(units),
        config_labels=tuple(c.label for c in configs),
        config_indices=tuple(c.index for c in configs),
        components=resolved_components,
        deviations=resolved_deviations,
        grid=grid,
    )


def execute_diagnosis_plan(
    plan: DiagnosisPlan,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[CampaignTelemetry] = None,
) -> TrajectoryDictionary:
    """Execute a planned build and assemble the dictionary.

    The units run through :func:`repro.campaign.engine.execute_units`,
    the loop every campaign kind shares; each unit's nominal and
    ``(K·D, P)`` response block are copied into its configuration's row
    in plan order, regardless of completion order.  ``n_solves`` /
    ``n_factorizations`` count only the work *this* run performed —
    both are 0 on a fully warm cache.
    """
    run = execute_units(plan, executor, cache, telemetry, noun="diagnosis")
    responses = np.empty(
        (
            plan.n_units,
            len(plan.components) * len(plan.deviations),
            plan.grid.n_points,
        ),
        dtype=complex,
    )
    nominal: Dict[int, FrequencyResponse] = {}
    for row, (result, index) in enumerate(
        zip(run.results, plan.config_indices)
    ):
        # copies, so the dictionary keeps no unit result's buffer alive
        nominal[index] = FrequencyResponse(
            plan.grid,
            result.arrays["nominal"].copy(),
            result.values["label"],
        )
        responses[row] = result.arrays["responses"]

    return TrajectoryDictionary(
        config_labels=plan.config_labels,
        config_indices=plan.config_indices,
        components=plan.components,
        deviations=plan.deviations,
        grid=plan.grid,
        nominal=nominal,
        responses=responses,
        n_solves=run.work.solves,
        n_factorizations=run.work.factorizations,
    )


def build_trajectory_dictionary(
    mcc: MultiConfigurationCircuit,
    grid: FrequencyGrid,
    components: Optional[Sequence[str]] = None,
    deviations: Optional[Sequence[float]] = None,
    configs: Optional[Sequence[Configuration]] = None,
    output: Optional[str] = None,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[CampaignTelemetry] = None,
) -> TrajectoryDictionary:
    """One-call dictionary build: plan → execute → assemble.

    The defaults of :func:`plan_diagnosis_campaign`; the units run
    serially in-process unless an ``executor`` is given, and ``cache``
    / ``telemetry`` resume and observe the build as in
    :func:`execute_diagnosis_plan`.
    """
    plan = plan_diagnosis_campaign(
        mcc,
        grid,
        components=components,
        deviations=deviations,
        configs=configs,
        output=output,
    )
    return execute_diagnosis_plan(
        plan, executor=executor, cache=cache, telemetry=telemetry
    )
