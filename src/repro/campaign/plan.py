"""Campaign planning — deterministic decomposition into hashed work units.

A fault-simulation campaign multiplies three axes: every fault of a
universe, through every DFT configuration, over a dense AC grid.  The
planner cuts that product into **work units** — one configuration times
one contiguous chunk of the fault universe — that are:

* *deterministic*: planning the same ``(circuit, faults, setup)`` twice,
  in any process, yields the same units in the same order;
* *content-addressed*: each unit carries a SHA-256 key derived from the
  emulated configuration's exact identity
  (:meth:`~repro.circuit.netlist.Circuit.identity`), the functional
  circuit's, the probe node, the frequency grid, the tolerance, the
  deviation criterion and the fault chunk.  The key is stable across
  processes and runs, so an on-disk
  :class:`~repro.campaign.cache.ResultCache` can resume an interrupted
  campaign or skip unchanged work after a partial edit;
* *self-contained*: a unit holds the already-emulated configuration
  circuit, the campaign's functional circuit (whose sweep is the
  :class:`~repro.faults.simulator.Basis` every configuration reuses) and
  everything else needed to simulate it, so it can be shipped to a
  worker process as a single picklable value.

Chunking trades scheduling granularity against per-unit overhead: the
default (``chunk_size=None``) keeps all faults of a configuration in one
unit — matching the serial engine's cost exactly — while ``chunk_size=1``
maximises parallelism at the price of one configuration sweep (one LU
factorization per grid point) per fault.
Campaign *results* are independent of the chunking (each
(configuration, fault) pair is evaluated identically no matter which
unit carries it); only the cache keys and the nominal-solve count vary.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..circuit.netlist import Circuit
from ..dft.configuration import Configuration
from ..dft.transform import MultiConfigurationCircuit
from ..errors import CampaignError
from ..faults.model import Fault, MultipleFault
from ..faults.simulator import (
    SimulationSetup,
    fault_labels,
    functional_circuit,
)

#: bumped whenever the unit result layout or key recipe changes, so stale
#: cache entries from older library versions can never be misread
#: (v2: unit results grew the ``n_factorizations`` counter; v3: the
#: engine left the key and unit results grew ``sm_fallbacks``; v4: units
#: reuse the functional circuit's sweep, whose identity joins the key;
#: v5: unit results carry their Definitions 1 and 2 as arrays)
PLAN_FORMAT = "campaign-v5"


def fault_signature(fault: Fault) -> str:
    """Canonical, process-stable textual identity of a fault.

    Two faults with the same signature are guaranteed to transform a
    circuit identically, so the signature (not the display name) goes
    into the work-unit content hash.
    """
    if isinstance(fault, MultipleFault):
        parts = "+".join(fault_signature(part) for part in fault.parts)
        return f"MultipleFault[{parts}]"
    if dataclasses.is_dataclass(fault):
        fields = ",".join(
            f"{f.name}={getattr(fault, f.name)!r}"
            for f in dataclasses.fields(fault)
        )
        return f"{type(fault).__name__}({fields})"
    return f"{type(fault).__name__}({fault.name})"


@dataclass(frozen=True, eq=False)
class WorkUnit:
    """One schedulable quantum: a configuration × a chunk of faults.

    Attributes
    ----------
    unit_id:
        Human-readable plan-unique id, ``"C3#0"`` (configuration label,
        chunk ordinal).
    config_index, config_label:
        The emulated configuration's identity.
    circuit:
        The configuration-emulated circuit (DFT already applied).
    functional:
        The campaign's functional circuit C0, whose sweep the unit's
        configuration reuses (the same object as ``circuit`` for C0).
    output:
        Probe node for every sweep of the unit.
    faults, labels:
        The fault chunk and the matrix column labels, aligned.
    setup:
        Shared grid / tolerance / criterion parameters.
    key:
        SHA-256 content hash; the cache address of the unit's result.
    """

    unit_id: str
    config_index: int
    config_label: str
    circuit: Circuit
    functional: Circuit
    output: Optional[str]
    faults: Tuple[Fault, ...]
    labels: Tuple[str, ...]
    setup: SimulationSetup
    key: str = ""

    @property
    def n_faults(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        return (
            f"WorkUnit({self.unit_id}, {self.n_faults} fault(s), "
            f"key={self.key[:8]})"
        )


def unit_key(
    circuit: Circuit,
    output: Optional[str],
    faults: Sequence[Fault],
    labels: Sequence[str],
    setup: SimulationSetup,
    functional: Circuit,
) -> str:
    """Content hash of one work unit (stable across processes and runs)."""
    grid = setup.grid
    payload = "\n".join(
        [
            PLAN_FORMAT,
            f"output:{output}",
            f"grid:{grid.f_start!r}:{grid.f_stop!r}:{grid.points_per_decade}",
            f"epsilon:{setup.epsilon!r}",
            f"criterion:{setup.criterion}",
            "faults:"
            + ";".join(
                f"{label}={fault_signature(fault)}"
                for label, fault in zip(labels, faults)
            ),
            circuit.identity(),
            functional.identity(),
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CampaignPlan:
    """A fully planned campaign: ordered work units plus shared context."""

    configs: Tuple[Configuration, ...]
    fault_labels: Tuple[str, ...]
    setup: SimulationSetup
    units: Tuple[WorkUnit, ...]
    chunk_size: Optional[int]

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    @property
    def n_faults(self) -> int:
        return len(self.fault_labels)

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(unit.key for unit in self.units)

    def describe(self) -> str:
        chunk = self.chunk_size if self.chunk_size else self.n_faults
        return (
            f"campaign plan: {self.n_configs} configuration(s) x "
            f"{self.n_faults} fault(s) -> {self.n_units} unit(s) "
            f"(chunk {chunk})"
        )


def _chunked(n: int, chunk_size: Optional[int]) -> List[Tuple[int, int]]:
    """``[start, stop)`` chunk bounds over ``range(n)``."""
    if n == 0:
        return []
    size = n if chunk_size is None else chunk_size
    return [(start, min(start + size, n)) for start in range(0, n, size)]


def plan_campaign(
    mcc: MultiConfigurationCircuit,
    faults: Sequence[Fault],
    setup: SimulationSetup,
    configs: Optional[Sequence[Configuration]] = None,
    chunk_size: Optional[int] = None,
) -> CampaignPlan:
    """Decompose a fault-simulation campaign into hashed work units.

    Parameters mirror :func:`repro.faults.simulator.simulate_faults`;
    ``chunk_size`` bounds the number of faults per unit (``None`` keeps
    each configuration whole).
    """
    if chunk_size is not None and chunk_size < 1:
        raise CampaignError(f"chunk_size must be >= 1, got {chunk_size}")
    labels = fault_labels(faults, setup.fault_name_style, CampaignError)
    if configs is None:
        configs = mcc.configurations(
            include_functional=True, include_transparent=False
        )
    if not configs:
        raise CampaignError("no configurations to simulate")
    if not faults:
        raise CampaignError("no faults to simulate")

    faults = tuple(faults)
    functional = functional_circuit(mcc)
    units: List[WorkUnit] = []
    for config in configs:
        emulated = functional if config.is_functional else mcc.emulate(config)
        output = setup.output or emulated.output or mcc.base.output
        for ordinal, (start, stop) in enumerate(
            _chunked(len(faults), chunk_size)
        ):
            chunk_faults = faults[start:stop]
            chunk_labels = tuple(labels[start:stop])
            units.append(
                WorkUnit(
                    unit_id=f"{config.label}#{ordinal}",
                    config_index=config.index,
                    config_label=config.label,
                    circuit=emulated,
                    functional=functional,
                    output=output,
                    faults=chunk_faults,
                    labels=chunk_labels,
                    setup=setup,
                    key=unit_key(
                        emulated,
                        output,
                        chunk_faults,
                        chunk_labels,
                        setup,
                        functional,
                    ),
                )
            )

    return CampaignPlan(
        configs=tuple(configs),
        fault_labels=tuple(labels),
        setup=setup,
        units=tuple(units),
        chunk_size=chunk_size,
    )
