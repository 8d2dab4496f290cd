"""Campaign engine — planned, parallel, cached, observable fault simulation.

The paper's conclusion names the flow's cost bottleneck: constructing
the fault-detectability matrix "implies extensive fault simulation" —
every fault × every configuration × a dense AC sweep.  This package
turns that sweep into a *campaign*, and every fault-simulation run —
:func:`~repro.faults.simulator.simulate_faults`, ``repro campaign``, a
served job — goes through it:

* :mod:`~repro.campaign.executor` — the unit protocol every campaign
  kind declares itself in (:class:`UnitKind`, :class:`Unit`,
  :class:`UnitResult`) and pluggable executors: in-process
  :class:`SerialExecutor` (the default) and process-pool
  :class:`ParallelExecutor` with per-unit timeout, bounded retry and
  graceful degradation to serial;
* :mod:`~repro.campaign.plan` — deterministic decomposition of a fault
  campaign into content-hashed units, one per configuration;
* :mod:`~repro.campaign.cache` — content-addressed on-disk
  :class:`ResultCache` enabling resume and incremental re-runs;
* :mod:`~repro.campaign.telemetry` — :class:`CampaignTelemetry`
  counters, JSONL event traces and a terminal progress line;
* :mod:`~repro.campaign.engine` — :func:`execute_plan`, which runs a
  plan's units and assembles them into a
  :class:`~repro.faults.simulator.DetectabilityDataset`.

Results are independent of the executor — the parity tests assert
bit-identical datasets across all of them.
"""

from .cache import ResultCache
from .engine import (
    assemble_dataset,
    execute_plan,
    make_executor,
)
from .executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    Unit,
    UnitKind,
    UnitOutcome,
    UnitResult,
    content_key,
    execute_unit,
)
from .plan import (
    FAULTSIM_KIND,
    CampaignPlan,
    fault_signature,
    plan_campaign,
)
from .telemetry import CampaignTelemetry
from .tolerance import (
    TOLERANCE_KIND,
    TolerancePlan,
    ToleranceReport,
    execute_tolerance_plan,
    plan_tolerance_campaign,
)

__all__ = [
    "CampaignPlan",
    "CampaignTelemetry",
    "Executor",
    "FAULTSIM_KIND",
    "ParallelExecutor",
    "ResultCache",
    "SerialExecutor",
    "TOLERANCE_KIND",
    "TolerancePlan",
    "ToleranceReport",
    "Unit",
    "UnitKind",
    "UnitOutcome",
    "UnitResult",
    "assemble_dataset",
    "content_key",
    "execute_plan",
    "execute_tolerance_plan",
    "execute_unit",
    "fault_signature",
    "make_executor",
    "plan_campaign",
    "plan_tolerance_campaign",
]
