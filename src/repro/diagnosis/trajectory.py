"""Fault-trajectory dictionaries: response curves over a deviation grid.

Boolean Definition 1 signatures (:mod:`repro.core.diagnosis`) say *which
class* of fault is present; they cannot say "R2 is ~40% high".  The
fault-trajectory approach (Savioli et al., PAPERS.md) closes that gap:
for every component the circuit is re-simulated over a grid of relative
deviations, and the resulting frequency responses — one *trajectory* per
(configuration, component) — form a dictionary against which an observed
faulty response is located by nearest-trajectory search
(:mod:`repro.diagnosis.matcher`).

A :class:`DeviationFault` *is* a single-component scaling
(``element.scaled(1 + deviation)``), so each configuration's whole
deviation grid becomes one factor matrix for
:func:`repro.analysis.batched.scaled_responses`, which replays the
nominal stamp stream once (:class:`~repro.analysis.batched.
StampProgram`) and solves every (component × deviation) sweep through
:func:`repro.analysis.kernel.solve_sweep`.  The batched-assembly
contract makes every point **bit-identical** to sweeping
``fault.apply(circuit)``, so a trajectory evaluated at a fault-universe
deviation *is* the fault simulator's faulty response, bit for bit (the
``trajectory ≡ fault simulator`` invariant of :mod:`repro.verify`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.ac import FrequencyResponse, ac_analysis
from ..analysis.batched import scaled_responses
from ..analysis.kernel import KernelStats
from ..analysis.sweep import FrequencyGrid
from ..dft.configuration import Configuration
from ..dft.transform import MultiConfigurationCircuit
from ..errors import AnalysisError, FaultModelError
from ..faults.model import DeviationFault, Fault


def deviation_grid(
    span: float = 0.5, steps: int = 4
) -> Tuple[float, ...]:
    """Symmetric relative-deviation grid: ``steps`` points per side.

    Returns ``2 * steps`` equally spaced nonzero deviations covering
    ``[-span, +span]`` — e.g. ``span=0.5, steps=4`` gives ``(-0.5,
    -0.375, -0.25, -0.125, +0.125, +0.25, +0.375, +0.5)``.  Zero is
    excluded: a 0% deviation is not a fault
    (:class:`~repro.faults.model.DeviationFault` rejects it) and the
    nominal response is the trajectory's natural origin.
    """
    if not 0.0 < span < 1.0:
        raise FaultModelError(
            f"deviation span must be in (0, 1), got {span:g} "
            "(a -100% deviation removes the component)"
        )
    if steps < 1:
        raise FaultModelError("deviation grid needs steps >= 1")
    positive = [span * (k + 1) / steps for k in range(steps)]
    return tuple([-d for d in reversed(positive)] + positive)


def validate_deviations(deviations: Sequence[float]) -> Tuple[float, ...]:
    """A checked tuple of trajectory deviations (nonzero, > -1, unique)."""
    grid = tuple(float(d) for d in deviations)
    if not grid:
        raise FaultModelError("trajectory deviation grid is empty")
    if len(set(grid)) != len(grid):
        raise FaultModelError("trajectory deviations must be unique")
    for d in grid:
        if d == 0.0 or d <= -1.0:
            raise FaultModelError(
                f"invalid trajectory deviation {d:g}: must be nonzero "
                "and > -1"
            )
    return grid


def trajectory_faults(
    components: Sequence[str], deviations: Sequence[float]
) -> List[Fault]:
    """The dictionary's fault list: component-major, deviation-minor."""
    return [
        DeviationFault(component, deviation)
        for component in components
        for deviation in deviations
    ]


def trajectory_responses(
    circuit,
    output: Optional[str],
    components: Sequence[str],
    deviations: Sequence[float],
    grid: FrequencyGrid,
    stats: Optional[KernelStats] = None,
) -> Tuple[FrequencyResponse, Dict[Tuple[str, float], FrequencyResponse], int]:
    """One configuration's trajectories: nominal + every grid point.

    Returns ``(nominal, {(component, deviation): response}, n_solves)``.
    The faulty circuits ``DeviationFault(component, deviation).apply(
    circuit)`` are expressed as one factor matrix — a row of ones for
    the nominal, then one row per grid point with component ``k``
    scaled by ``1 + deviation`` — and the whole family goes through
    :func:`~repro.analysis.batched.scaled_responses` with values
    bit-identical to sweeping each faulty circuit (the ``value *
    factor`` product and the stamp accumulation order are exactly the
    rebuilt circuit's).
    """
    keys = [
        (component, deviation)
        for component in components
        for deviation in deviations
    ]
    column = {name: k for k, name in enumerate(components)}
    factors = np.ones((1 + len(keys), len(components)))
    for row, (component, deviation) in enumerate(keys, start=1):
        factors[row, column[component]] = 1.0 + deviation
    responses = scaled_responses(
        circuit, grid, components, factors, output=output, stats=stats
    )
    return responses[0], dict(zip(keys, responses[1:])), 1 + len(keys)


@dataclass
class TrajectoryDictionary:
    """All trajectories of one circuit + configuration set.

    ``responses`` maps ``(config_index, component, deviation)`` to the
    frequency response of the circuit with that single parametric fault
    injected, emulated in that configuration; ``nominal`` holds the
    fault-free response per configuration.
    """

    config_labels: Tuple[str, ...]
    config_indices: Tuple[int, ...]
    components: Tuple[str, ...]
    deviations: Tuple[float, ...]
    grid: FrequencyGrid
    nominal: Dict[int, FrequencyResponse]
    responses: Dict[Tuple[int, str, float], FrequencyResponse] = field(
        repr=False
    )
    n_solves: int = 0
    #: LU factorizations the sweeps performed
    n_factorizations: int = 0

    @property
    def n_configs(self) -> int:
        return len(self.config_indices)

    @property
    def n_trajectories(self) -> int:
        """One trajectory per (configuration, component)."""
        return self.n_configs * len(self.components)

    @property
    def n_points(self) -> int:
        """Stored trajectory points (sweeps beyond the nominals)."""
        return len(self.responses)

    @property
    def deviation_step(self) -> float:
        """Largest gap between adjacent grid deviations (0 included).

        The matcher's estimated deviation is exact up to this
        quantisation: any true deviation inside the grid's hull lies
        within one step of some dictionary point.
        """
        anchors = sorted(set(self.deviations) | {0.0})
        return float(max(b - a for a, b in zip(anchors, anchors[1:])))

    def response(
        self, config_index: int, component: str, deviation: float
    ) -> FrequencyResponse:
        return self.responses[(config_index, component, deviation)]

    def trajectory(
        self, config_index: int, component: str
    ) -> List[Tuple[float, FrequencyResponse]]:
        """One component's curve in one configuration, by deviation."""
        return [
            (d, self.responses[(config_index, component, d)])
            for d in sorted(self.deviations)
        ]

    def describe(self) -> str:
        return (
            f"trajectory dictionary: {self.n_configs} configuration(s) x "
            f"{len(self.components)} component(s) x "
            f"{len(self.deviations)} deviation(s) = {self.n_points} "
            f"point(s) on {self.grid.n_points} frequencies"
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


def build_trajectory_dictionary(
    mcc: MultiConfigurationCircuit,
    grid: FrequencyGrid,
    components: Optional[Sequence[str]] = None,
    deviations: Optional[Sequence[float]] = None,
    configs: Optional[Sequence[Configuration]] = None,
    output: Optional[str] = None,
) -> TrajectoryDictionary:
    """Build the full dictionary in-process (no campaign engine).

    ``components`` defaults to every passive of the base circuit,
    ``deviations`` to :func:`deviation_grid`'s default, ``configs`` to
    every non-transparent configuration (functional included — the
    diagnosis configuration set of the paper's flow).  For the campaign
    engine's planned / parallel / cached twin of this function see
    :func:`repro.diagnosis.campaign.run_diagnosis_campaign`.
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

    stats = KernelStats()
    nominal: Dict[int, FrequencyResponse] = {}
    responses: Dict[Tuple[int, str, float], FrequencyResponse] = {}
    n_solves = 0
    for config in configs:
        emulated = mcc.emulate(config)
        probe = output or emulated.output or mcc.base.output
        config_nominal, points, config_solves = trajectory_responses(
            emulated,
            probe,
            resolved_components,
            resolved_deviations,
            grid,
            stats=stats,
        )
        nominal[config.index] = config_nominal
        for key, response in points.items():
            responses[(config.index,) + key] = response
        n_solves += config_solves

    return TrajectoryDictionary(
        config_labels=tuple(c.label for c in configs),
        config_indices=tuple(c.index for c in configs),
        components=resolved_components,
        deviations=resolved_deviations,
        grid=grid,
        nominal=nominal,
        responses=responses,
        n_solves=n_solves,
        n_factorizations=stats.factorizations,
    )


def observe_fault(
    mcc: MultiConfigurationCircuit,
    fault: Fault,
    grid: FrequencyGrid,
    configs: Optional[Sequence[Configuration]] = None,
    output: Optional[str] = None,
) -> Dict[int, FrequencyResponse]:
    """Simulated measurement of a faulty device under test.

    Sweeps ``fault.apply(emulated)`` in every configuration — the
    response set a tester would record from a device carrying that
    fault, used to seed the matcher in tests, the CLI and the service.
    Evaluated by plain per-circuit sweeps: it models the *measurement*,
    not the dictionary build.
    """
    if configs is None:
        configs = mcc.configurations(
            include_functional=True, include_transparent=False
        )
    observed: Dict[int, FrequencyResponse] = {}
    for config in configs:
        emulated = mcc.emulate(config)
        probe = output or emulated.output or mcc.base.output
        observed[config.index] = ac_analysis(
            fault.apply(emulated), grid, output=probe
        )
    return observed
