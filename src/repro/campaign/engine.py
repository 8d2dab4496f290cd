"""The campaign engine: plan → cache lookup → execute → assemble.

:func:`repro.faults.simulator.simulate_faults` is
:func:`~repro.campaign.plan.plan_campaign` followed by
:func:`execute_plan`:

1. the planner decomposes the run into one deterministic,
   content-hashed work unit per configuration;
2. cached units are satisfied from the
   :class:`~repro.campaign.cache.ResultCache` without simulating;
3. the remaining units go through the chosen executor (serial
   in-process by default, process-parallel on request), with fresh
   results written back to the cache as they land;
4. the results are assembled — **in plan order, regardless of
   completion order** — into a
   :class:`~repro.faults.simulator.DetectabilityDataset`, bit for bit
   the same whatever the executor.

``dataset.n_solves`` counts the AC solves *performed by this run*; a
fully warm cache therefore yields ``n_solves == 0``, which the telemetry
trace corroborates.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..analysis.ac import FrequencyResponse
from ..core.detectability import Detections
from ..errors import CampaignError
from ..faults.simulator import DetectabilityDataset
from .cache import ResultCache
from .executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    UnitOutcome,
    UnitResult,
    Work,
)
from .plan import CampaignPlan
from .telemetry import CampaignTelemetry


class UnitRun(NamedTuple):
    """What :func:`execute_units` returns."""

    #: every unit's result, in plan order
    results: Tuple[UnitResult, ...]
    #: the work this run performed (:attr:`UnitOutcome.work`, summed)
    work: Work


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
) -> UnitRun:
    """Run every unit of a plan; their results and the run's work.

    The one unit loop of the three campaign kinds (fault simulation,
    tolerance, diagnosis): cache lookup, executor fan-out with
    write-back, telemetry observation, and a :class:`CampaignError`
    once every unit has run if any failed (``noun`` names the kind in
    that error, which is chained to the first failure's).  A cached
    result counts only if it holds the arrays and values its unit's
    kind declares.  Each kind assembles its result from the results in
    plan order, so the result does not depend on completion order.
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
    ordered = [outcomes[unit.unit_id] for unit in plan.units]
    works = [outcome.work for outcome in ordered]
    return UnitRun(
        results=tuple(outcome.result for outcome in ordered),
        work=Work(*map(sum, zip(*works))),
    )


def assemble_dataset(
    plan: CampaignPlan, run: UnitRun
) -> DetectabilityDataset:
    """Fold a run's unit results into a dataset, deterministically.

    Unit ``c``'s nominal response and Definitions 1 and 2 fill row
    ``c``, in plan order, so the result is independent of executor
    scheduling.  The counters are the run's work, the shared basis
    sweeps it made included.
    """
    shape = (plan.n_configs, plan.n_faults)
    arrays = Detections(
        masks=np.empty(shape + (plan.setup.grid.n_points,), dtype=bool),
        omega_detectability=np.empty(shape),
        max_deviation=np.empty(shape),
        f_max_deviation_hz=np.empty(shape),
    )
    nominal = {}
    for row, (config, result) in enumerate(zip(plan.configs, run.results)):
        nominal[config.index] = FrequencyResponse(
            grid=plan.setup.grid,
            values=result.arrays["nominal"],
            label=result.values["label"],
        )
        for name, array in zip(Detections._fields, arrays):
            array[row] = result.arrays[name]
    return DetectabilityDataset(
        configs=plan.configs,
        fault_labels=plan.fault_labels,
        setup=plan.setup,
        nominal=nominal,
        **arrays._asdict(),
        n_solves=run.work.solves,
        n_factorizations=run.work.factorizations,
        sm_fallbacks=run.work.sm_fallbacks,
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
