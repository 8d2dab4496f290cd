"""Dictionary construction as a resumable, parallel campaign.

A trajectory dictionary is the expensive half of fault location — the
matcher itself is a cheap array scan.  This module decomposes the build
into one content-hashed :class:`DiagnosisUnit` per configuration and
runs it through the shared campaign machinery, exactly like the fault
simulator and the ε-calibration engine:

* units execute through any :class:`~repro.campaign.executor.Executor`
  (serial or process-parallel) via the shared
  :func:`~repro.campaign.executor.execute_unit` dispatch (engine tag
  ``"diagnosis"``);
* a :class:`~repro.campaign.cache.ResultCache` constructed by
  :func:`diagnosis_cache` resumes interrupted builds and answers
  re-planned unchanged configurations without a single solve;
* :class:`~repro.campaign.telemetry.CampaignTelemetry` observes unit
  completions for traces, progress lines and the service's
  ``/metrics``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.ac import FrequencyResponse
from ..analysis.kernel import KernelStats
from ..analysis.sweep import FrequencyGrid
from ..circuit.netlist import Circuit
from ..dft.configuration import Configuration
from ..dft.transform import MultiConfigurationCircuit
from ..errors import AnalysisError, CampaignError
from ..campaign.cache import ResultCache
from ..campaign.engine import execute_units
from ..campaign.executor import Executor
from ..campaign.telemetry import CampaignTelemetry
from .trajectory import (
    TrajectoryDictionary,
    _resolve_components,
    deviation_grid,
    trajectory_responses,
    validate_deviations,
)

#: engine tag :func:`repro.campaign.executor.execute_unit` dispatches on
DIAGNOSIS = "diagnosis"

#: bumped whenever the result layout or key recipe changes (v2: the
#: responses' frequency grids carry their cell widths and pickle as
#: their parameters, so a v1 entry would load grids without widths)
DIAGNOSIS_FORMAT = "diagnosis-v2"


@dataclass(frozen=True, eq=False)
class DiagnosisUnit:
    """One schedulable quantum: one configuration's trajectories.

    Mirrors :class:`~repro.campaign.plan.WorkUnit` closely enough
    (``unit_id`` / ``config_label`` / ``key`` / ``n_faults`` /
    ``engine``) that executors, the cache and the telemetry consume it
    unchanged.  ``circuit`` is the already-emulated
    configuration, so workers need no DFT machinery.
    """

    unit_id: str
    config_index: int
    circuit: Circuit
    output: Optional[str]
    components: Tuple[str, ...]
    deviations: Tuple[float, ...]
    grid: FrequencyGrid
    engine: str = DIAGNOSIS
    key: str = ""

    @property
    def config_label(self) -> str:
        return self.unit_id

    @property
    def n_faults(self) -> int:
        """Faulty sweeps this unit performs (telemetry accounting)."""
        return len(self.components) * len(self.deviations)

    def __repr__(self) -> str:
        return (
            f"DiagnosisUnit({self.unit_id}, {self.n_faults} point(s), "
            f"key={self.key[:8]})"
        )


@dataclass
class DiagnosisUnitResult:
    """One configuration's trajectories (cacheable payload)."""

    key: str
    unit_id: str
    config_index: int
    config_label: str
    nominal: FrequencyResponse
    responses: Dict[Tuple[str, float], FrequencyResponse]
    n_solves: int
    #: LU factorizations the unit's sweeps performed
    n_factorizations: int = 0


def diagnosis_unit_key(
    circuit: Circuit,
    output: Optional[str],
    grid: FrequencyGrid,
    components: Sequence[str],
    deviations: Sequence[float],
) -> str:
    """Content hash of one diagnosis unit (stable across processes)."""
    payload = "\n".join(
        [
            DIAGNOSIS_FORMAT,
            f"output:{output}",
            f"grid:{grid.f_start!r}:{grid.f_stop!r}:{grid.points_per_decade}",
            "components:" + ",".join(components),
            "deviations:" + ",".join(repr(d) for d in deviations),
            circuit.identity(),
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class DiagnosisPlan:
    """A fully planned dictionary build: ordered units + shared context."""

    units: Tuple[DiagnosisUnit, ...]
    config_labels: Tuple[str, ...]
    config_indices: Tuple[int, ...]
    components: Tuple[str, ...]
    deviations: Tuple[float, ...]
    grid: FrequencyGrid
    engine: str = DIAGNOSIS

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_configs(self) -> int:
        return len(self.units)

    @property
    def n_faults(self) -> int:
        """Trajectory points per configuration (telemetry accounting)."""
        return len(self.components) * len(self.deviations)

    @property
    def chunk_size(self) -> Optional[int]:
        return None

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

    Defaults mirror :func:`~repro.diagnosis.trajectory.
    build_trajectory_dictionary`: every passive component, the default
    :func:`~repro.diagnosis.trajectory.deviation_grid`, every
    non-transparent configuration.
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

    units: List[DiagnosisUnit] = []
    for config in configs:
        emulated = mcc.emulate(config)
        probe = output or emulated.output or mcc.base.output
        units.append(
            DiagnosisUnit(
                unit_id=config.label,
                config_index=config.index,
                circuit=emulated,
                output=probe,
                components=resolved_components,
                deviations=resolved_deviations,
                grid=grid,
                key=diagnosis_unit_key(
                    emulated,
                    probe,
                    grid,
                    resolved_components,
                    resolved_deviations,
                ),
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


def execute_diagnosis_unit(unit: DiagnosisUnit) -> DiagnosisUnitResult:
    """Build one configuration's trajectories (parent or worker process)."""
    stats = KernelStats()
    nominal, responses, n_solves = trajectory_responses(
        unit.circuit,
        unit.output,
        unit.components,
        unit.deviations,
        unit.grid,
        stats=stats,
    )
    return DiagnosisUnitResult(
        key=unit.key,
        unit_id=unit.unit_id,
        config_index=unit.config_index,
        config_label=unit.config_label,
        nominal=nominal,
        responses=responses,
        n_solves=n_solves,
        n_factorizations=stats.factorizations,
    )


def diagnosis_cache(directory) -> ResultCache:
    """A :class:`ResultCache` validating diagnosis payloads."""
    return ResultCache(directory, payload_type=DiagnosisUnitResult)


def execute_diagnosis_plan(
    plan: DiagnosisPlan,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[CampaignTelemetry] = None,
) -> TrajectoryDictionary:
    """Execute a planned build and assemble the dictionary.

    The units run through :func:`repro.campaign.engine.execute_units`,
    the loop every campaign kind shares; the assembly follows plan
    order regardless of completion order.  ``n_solves`` /
    ``n_factorizations`` count only the work *this* run performed —
    both are 0 on a fully warm cache.
    """
    outcomes = execute_units(
        plan, executor, cache, telemetry, noun="diagnosis"
    )

    nominal: Dict[int, FrequencyResponse] = {}
    responses = {}
    n_solves = 0
    n_factorizations = 0
    for unit in plan.units:
        outcome = outcomes[unit.unit_id]
        if outcome.result is None:
            raise CampaignError(
                f"diagnosis unit {unit.unit_id} has no result to assemble"
            )
        result = outcome.result
        nominal[result.config_index] = result.nominal
        for key, response in result.responses.items():
            responses[(result.config_index,) + key] = response
        if not outcome.from_cache:
            n_solves += result.n_solves
            n_factorizations += getattr(result, "n_factorizations", 0)

    return TrajectoryDictionary(
        config_labels=plan.config_labels,
        config_indices=plan.config_indices,
        components=plan.components,
        deviations=plan.deviations,
        grid=plan.grid,
        nominal=nominal,
        responses=responses,
        n_solves=n_solves,
        n_factorizations=n_factorizations,
    )


def run_diagnosis_campaign(
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
    """One-call dictionary build: plan → execute → assemble."""
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
