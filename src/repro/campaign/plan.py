"""Campaign planning — deterministic decomposition into hashed units.

A fault-simulation campaign multiplies three axes: every fault of a
universe, through every DFT configuration, over a dense AC grid.  The
planner cuts that product into :data:`FAULTSIM_KIND` units — one
configuration times one contiguous chunk of the fault universe — that
are:

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
* *self-contained*: a unit's args hold the already-emulated
  configuration circuit, the campaign's functional circuit (whose sweep
  is the :class:`~repro.faults.simulator.Basis` every configuration
  reuses) and everything else needed to simulate it, so it can be
  shipped to a worker process as a single picklable value.

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
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..dft.configuration import Configuration
from ..dft.transform import MultiConfigurationCircuit
from ..errors import CampaignError
from ..faults.model import Fault, MultipleFault
from ..faults.simulator import (
    SimulationSetup,
    fault_labels,
    functional_circuit,
    simulate_configuration,
)
from .executor import Unit, UnitKind

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


def run_fault_unit(
    bases, stats, circuit, functional, output, faults, labels, setup
):
    """Simulate one configuration's fault chunk (:data:`FAULTSIM_KIND`).

    The configuration reuses its functional circuit's basis from
    ``bases``.  Returns the nominal response and the chunk's
    Definitions 1 and 2, one row per label.
    """
    nominal, detections, n_solves = simulate_configuration(
        circuit, output, faults, labels, setup, stats=stats,
        basis=bases.get(functional, setup.grid),
    )
    arrays = {"nominal": nominal.values, **detections._asdict()}
    return n_solves, arrays, {"label": nominal.label}


#: a configuration times a chunk of the fault universe
FAULTSIM_KIND = UnitKind(
    name="faultsim",
    format=PLAN_FORMAT,
    key_fields=(
        "output", "grid", "epsilon", "criterion", "faults", "circuit",
        "functional",
    ),
    run=run_fault_unit,
    arrays=(
        "nominal", "masks", "omega_detectability", "max_deviation",
        "f_max_deviation_hz",
    ),
    values=("label",),
)


def grid_key(grid) -> str:
    """A frequency grid's key text."""
    return f"{grid.f_start!r}:{grid.f_stop!r}:{grid.points_per_decade}"


@dataclass(frozen=True)
class CampaignPlan:
    """A fully planned campaign: ordered units plus shared context.

    ``units`` run configuration by configuration, each configuration's
    faults in :meth:`chunks` order.
    """

    configs: Tuple[Configuration, ...]
    fault_labels: Tuple[str, ...]
    setup: SimulationSetup
    units: Tuple[Unit, ...]
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

    def chunks(self) -> List[Tuple[int, int]]:
        """``[start, stop)`` bounds of each configuration's fault chunks."""
        return _chunked(self.n_faults, self.chunk_size)

    def describe(self) -> str:
        chunk = self.chunk_size if self.chunk_size else self.n_faults
        return (
            f"campaign plan: {self.n_configs} configuration(s) x "
            f"{self.n_faults} fault(s) -> {self.n_units} unit(s) "
            f"(chunk {chunk})"
        )


def _chunked(n: int, chunk_size: Optional[int]) -> List[Tuple[int, int]]:
    """``[start, stop)`` chunk bounds over ``range(n)``."""
    size = n if chunk_size is None else chunk_size
    return [(start, min(start + size, n)) for start in range(0, n, size)]


def plan_campaign(
    mcc: MultiConfigurationCircuit,
    faults: Sequence[Fault],
    setup: SimulationSetup,
    configs: Optional[Sequence[Configuration]] = None,
    chunk_size: Optional[int] = None,
) -> CampaignPlan:
    """Decompose a fault-simulation campaign into hashed units.

    Parameters mirror :func:`repro.faults.simulator.simulate_faults`;
    ``chunk_size`` bounds the number of faults per unit (``None`` keeps
    each configuration whole).  The key text shared by every unit —
    grid, tolerance, criterion, the functional circuit's identity and
    each fault's signature — is derived once per plan.
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
    grid = grid_key(setup.grid)
    functional_identity = functional.identity()
    signatures = [
        f"{label}={fault_signature(fault)}"
        for label, fault in zip(labels, faults)
    ]
    units: List[Unit] = []
    for config in configs:
        emulated = functional if config.is_functional else mcc.emulate(config)
        output = setup.output or emulated.output or mcc.base.output
        identity = emulated.identity()
        for ordinal, (start, stop) in enumerate(
            _chunked(len(faults), chunk_size)
        ):
            units.append(
                FAULTSIM_KIND.unit(
                    unit_id=f"{config.label}#{ordinal}",
                    label=config.label,
                    size=stop - start,
                    args=dict(
                        circuit=emulated,
                        functional=functional,
                        output=output,
                        faults=faults[start:stop],
                        labels=tuple(labels[start:stop]),
                        setup=setup,
                    ),
                    output=str(output),
                    grid=grid,
                    epsilon=repr(setup.epsilon),
                    criterion=setup.criterion,
                    faults=";".join(signatures[start:stop]),
                    circuit=identity,
                    functional=functional_identity,
                )
            )
    return CampaignPlan(
        configs=tuple(configs),
        fault_labels=tuple(labels),
        setup=setup,
        units=tuple(units),
        chunk_size=chunk_size,
    )
