"""The campaign engine: plan → cache lookup → execute → assemble.

:func:`run_campaign` is the one-call entry point used by
:func:`repro.faults.simulator.simulate_faults`, the experiment runners
and the CLI.  The pipeline:

1. :func:`~repro.campaign.plan.plan_campaign` decomposes the run into
   deterministic, content-hashed work units;
2. cached units are satisfied from the
   :class:`~repro.campaign.cache.ResultCache` without simulating;
3. the remaining units go through the chosen executor (serial by
   default, process-parallel on request), with fresh results written
   back to the cache as they land;
4. the outcomes are assembled — **in plan order, regardless of
   completion order** — into the same
   :class:`~repro.faults.simulator.DetectabilityDataset` the in-process
   loop produces, bit for bit.

``dataset.n_solves`` counts the AC solves *performed by this run*; a
fully warm cache therefore yields ``n_solves == 0``, which the telemetry
trace corroborates.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..analysis.ac import FrequencyResponse
from ..core.detectability import Detections
from ..dft.configuration import Configuration
from ..dft.transform import MultiConfigurationCircuit
from ..errors import CampaignError
from ..faults.model import Fault
from ..faults.simulator import DetectabilityDataset, SimulationSetup
from .cache import ResultCache
from .executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    UnitOutcome,
)
from .plan import CampaignPlan, plan_campaign
from .telemetry import CampaignTelemetry


def run_campaign(
    mcc: MultiConfigurationCircuit,
    faults: Sequence[Fault],
    setup: SimulationSetup,
    configs: Optional[Sequence[Configuration]] = None,
    chunk_size: Optional[int] = None,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[CampaignTelemetry] = None,
) -> DetectabilityDataset:
    """Run a fault × configuration campaign through the engine.

    Drop-in equivalent of
    :func:`repro.faults.simulator.simulate_faults` — the returned
    dataset is bit-identical for every executor and chunking.
    """
    plan = plan_campaign(
        mcc,
        faults,
        setup,
        configs=configs,
        chunk_size=chunk_size,
    )
    return execute_plan(
        plan, executor=executor, cache=cache, telemetry=telemetry
    )


def execute_plan(
    plan: CampaignPlan,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[CampaignTelemetry] = None,
) -> DetectabilityDataset:
    """Execute an already-planned campaign and assemble its dataset."""
    return assemble_dataset(
        plan, execute_units(plan, executor, cache, telemetry)
    )


def execute_units(
    plan,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[CampaignTelemetry] = None,
    noun: str = "work",
) -> Dict[str, UnitOutcome]:
    """Run every unit of a plan; ``unit_id -> outcome``.

    The one unit loop of the three campaign kinds (fault simulation,
    tolerance, diagnosis): cache lookup, executor fan-out with
    write-back, telemetry observation, and fail-fast on any failed unit
    (``noun`` names the kind in that error).  A cached result counts
    only if it holds the arrays and values its unit's kind declares.
    Each kind assembles its result from the outcomes in plan order, so
    the result does not depend on completion order.
    """
    executor = executor or SerialExecutor()
    telemetry = telemetry or CampaignTelemetry()
    jobs = getattr(executor, "jobs", 1)
    telemetry.campaign_start(plan, executor.name, jobs=jobs)

    outcomes: Dict[str, UnitOutcome] = {}
    pending = []
    for unit in plan.units:
        cached = None
        if cache is not None:
            cached = cache.get(unit.key, unit.kind.name)
        if cached is not None and unit.kind.produced(cached):
            outcome = UnitOutcome(
                unit=unit,
                result=cached,
                attempts=0,
                from_cache=True,
            )
            outcomes[unit.unit_id] = outcome
            telemetry.unit_outcome(outcome)
        else:
            pending.append(unit)

    def on_outcome(outcome: UnitOutcome) -> None:
        if cache is not None and outcome.result is not None:
            cache.put(outcome.unit.key, outcome.result)
        telemetry.unit_outcome(outcome)

    for outcome in executor.execute(pending, callback=on_outcome):
        outcomes[outcome.unit.unit_id] = outcome

    telemetry.campaign_end()

    failed = [o for o in outcomes.values() if not o.ok]
    if failed:
        first = failed[0]
        raise CampaignError(
            f"{len(failed)} of {plan.n_units} {noun} unit(s) failed "
            f"(first: {first.unit.unit_id} after {first.attempts} "
            f"attempt(s): {first.error!r})"
        ) from first.error
    return outcomes


def assemble_dataset(
    plan: CampaignPlan, outcomes: Dict[str, UnitOutcome]
) -> DetectabilityDataset:
    """Fold unit outcomes into a dataset, deterministically.

    Each unit's detections fill the row of its configuration and the
    columns of its fault chunk, and iteration follows plan order, so the
    result is independent of executor scheduling and chunk completion
    order.  Nominal responses are taken from the first unit of each
    configuration (chunks of one configuration share the nominal by
    construction).  The factorization count adds the shared basis
    sweeps the run made.
    """
    shape = (plan.n_configs, plan.n_faults)
    arrays = Detections(
        masks=np.empty(shape + (plan.setup.grid.n_points,), dtype=bool),
        omega_detectability=np.empty(shape),
        max_deviation=np.empty(shape),
        f_max_deviation_hz=np.empty(shape),
    )
    nominal = {}
    n_solves = 0
    n_factorizations = 0
    sm_fallbacks = 0
    slots = (
        (row, config, columns)
        for row, config in enumerate(plan.configs)
        for columns in plan.chunks()
    )
    for unit, (row, config, (start, stop)) in zip(plan.units, slots):
        outcome = outcomes[unit.unit_id]
        result = outcome.result
        if result is None:
            raise CampaignError(
                f"work unit {unit.unit_id} has no result to assemble"
            )
        if config.index not in nominal:
            nominal[config.index] = FrequencyResponse(
                grid=plan.setup.grid,
                values=result.arrays["nominal"],
                label=result.values["label"],
            )
        for name, array in zip(Detections._fields, arrays):
            array[row, start:stop] = result.arrays[name]
        if not outcome.from_cache:
            n_solves += result.n_solves
            n_factorizations += (
                result.n_factorizations + outcome.basis_factorizations
            )
            sm_fallbacks += result.sm_fallbacks
    return DetectabilityDataset(
        configs=plan.configs,
        fault_labels=plan.fault_labels,
        setup=plan.setup,
        nominal=nominal,
        **arrays._asdict(),
        n_solves=n_solves,
        n_factorizations=n_factorizations,
        sm_fallbacks=sm_fallbacks,
    )


def make_executor(
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    persistent: bool = False,
) -> Executor:
    """Executor factory used by the CLI: serial for 1 job, else parallel.

    ``persistent=True`` keeps the process pool warm across
    ``execute()`` calls — the job server's mode; call
    ``executor.close()`` to release the workers.
    """
    if jobs is not None and jobs < 1:
        raise CampaignError(f"jobs must be >= 1, got {jobs}")
    if jobs is None or jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        persistent=persistent,
    )
