"""Campaign planning — deterministic decomposition into hashed units.

A fault-simulation campaign multiplies three axes: every fault of a
universe, through every DFT configuration, over a dense AC grid.  The
planner cuts that product into :data:`FAULTSIM_KIND` units — one per
configuration, each carrying the whole fault universe — that are:

* *deterministic*: planning the same ``(circuit, faults, setup)`` twice,
  in any process, yields the same units in the same order;
* *content-addressed*: each unit's SHA-256 key is derived from the
  emulated configuration's exact identity
  (:meth:`~repro.circuit.netlist.Circuit.identity`), the functional
  circuit's, the probe node, the frequency grid, the tolerance, the
  deviation criterion and the faults.  The key is stable across
  processes and runs, so an on-disk
  :class:`~repro.campaign.cache.ResultCache` can resume an interrupted
  campaign or skip unchanged work after a partial edit.  It is derived
  on first read (a cache, a trace, :attr:`CampaignPlan.keys`), the
  parts every unit shares once per plan, so a run that reads no key
  emulates no configuration for one;
* *self-contained*: a unit's args hold the DFT circuit, its
  configuration, the campaign's functional circuit (whose sweep is the
  :class:`~repro.faults.simulator.Basis` every configuration reuses)
  and everything else needed to simulate it, so it can be shipped to a
  worker process as a single picklable value.  The configuration's
  circuit is the functional stamp with its followers' rows written in
  (:func:`~repro.faults.simulator.configuration_variant`); it is
  emulated only for a key or an exact per-fault sweep.

A configuration is the smallest unit: its faults share one sweep of its
``[z, E_S]`` (one LU factorization per grid point), so splitting them
would only repeat that sweep.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

from ..dft.configuration import Configuration
from ..dft.transform import MultiConfigurationCircuit
from ..errors import CampaignError
from ..faults.model import Fault, MultipleFault
from ..faults.simulator import (
    SimulationSetup,
    configuration_variant,
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
    bases, stats, mcc, config, functional, output, faults, labels, setup
):
    """Simulate one configuration's faults (:data:`FAULTSIM_KIND`).

    The configuration reuses its functional circuit's basis from
    ``bases``.  Returns the nominal response and the configuration's
    Definitions 1 and 2, one row per label.
    """
    basis = bases.get(functional, setup.grid)
    nominal, detections, n_solves = simulate_configuration(
        configuration_variant(mcc, config, basis, stats),
        output, faults, labels, setup, stats=stats, basis=basis,
    )
    arrays = {"nominal": nominal.values, **detections._asdict()}
    return n_solves, arrays, {"label": nominal.label}


#: one configuration times the whole fault universe
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


class _KeyTexts:
    """The key texts of a fault campaign's units.

    Called with a configuration, on the first read of its unit's key;
    the costly texts every unit shares (the grid, each fault's
    signature and the functional circuit's identity) are derived on the
    first call and kept.
    """

    def __init__(self, mcc, functional, output, faults, labels, setup):
        self.mcc = mcc
        self.functional = functional
        self.output = output
        self.faults = faults
        self.labels = labels
        self.setup = setup
        self._shared: Optional[Tuple[str, str, str]] = None

    def __call__(self, config: Configuration) -> Dict[str, str]:
        if self._shared is None:
            self._shared = (
                grid_key(self.setup.grid),
                ";".join(
                    f"{label}={fault_signature(fault)}"
                    for label, fault in zip(self.labels, self.faults)
                ),
                self.functional.identity(),
            )
        grid, faults, functional = self._shared
        emulated = (
            self.functional if config.is_functional
            else self.mcc.emulate(config)
        )
        return dict(
            output=str(self.output),
            grid=grid,
            epsilon=repr(self.setup.epsilon),
            criterion=self.setup.criterion,
            faults=faults,
            circuit=emulated.identity(),
            functional=functional,
        )


@dataclass(frozen=True)
class CampaignPlan:
    """A fully planned campaign: ordered units plus shared context.

    ``units[c]`` simulates ``configs[c]``.
    """

    configs: Tuple[Configuration, ...]
    fault_labels: Tuple[str, ...]
    setup: SimulationSetup
    units: Tuple[Unit, ...]

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
        return (
            f"campaign plan: {self.n_configs} configuration(s) x "
            f"{self.n_faults} fault(s) -> {self.n_units} unit(s)"
        )


def plan_campaign(
    mcc: MultiConfigurationCircuit,
    faults: Sequence[Fault],
    setup: SimulationSetup,
    configs: Optional[Sequence[Configuration]] = None,
) -> CampaignPlan:
    """Decompose a fault-simulation campaign into one unit per configuration.

    Parameters mirror :func:`repro.faults.simulator.simulate_faults`.
    Planning emulates only the functional circuit; the unit keys, and
    the key text they share, are derived when first read.
    """
    labels = tuple(fault_labels(faults, setup.fault_name_style))
    if configs is None:
        configs = mcc.configurations(
            include_functional=True, include_transparent=False
        )
    if not configs:
        raise CampaignError("no configurations to simulate")
    if not faults:
        raise CampaignError("no faults to simulate")

    faults = tuple(faults)
    for config in configs:
        mcc.check_configuration(config)
    functional = functional_circuit(mcc)
    # Probe priority: explicit setup override, then the emulated
    # circuit's own output (parasitics may move it to the external pin,
    # in every configuration alike), then the base circuit's.
    output = setup.output or functional.output or mcc.base.output
    key_texts = _KeyTexts(mcc, functional, output, faults, labels, setup)
    units = tuple(
        FAULTSIM_KIND.unit(
            unit_id=config.label,
            label=config.label,
            size=len(faults),
            args=dict(
                mcc=mcc,
                config=config,
                functional=functional,
                output=output,
                faults=faults,
                labels=labels,
                setup=setup,
            ),
            key_texts=partial(key_texts, config),
        )
        for config in configs
    )
    return CampaignPlan(
        configs=tuple(configs),
        fault_labels=labels,
        setup=setup,
        units=units,
    )
