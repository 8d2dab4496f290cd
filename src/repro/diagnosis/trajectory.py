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
:func:`repro.analysis.batched.scaled_values`, which replays the
nominal stamp stream once (:class:`~repro.analysis.batched.
StampProgram`) and solves every (component × deviation) sweep through
:func:`repro.analysis.kernel.solve_sweep`.  The batched-assembly
contract makes every point **bit-identical** to sweeping
``fault.apply(circuit)``, so a trajectory evaluated at a fault-universe
deviation *is* the fault simulator's faulty response, bit for bit (the
``trajectory ≡ fault simulator`` invariant of :mod:`repro.verify`).

This module holds the per-configuration computation
(:func:`trajectory_responses`) and the assembled
:class:`TrajectoryDictionary`; :mod:`repro.diagnosis.campaign` plans
and runs the build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.ac import FrequencyResponse, ac_analysis
from ..analysis.batched import scaled_values
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
) -> Tuple[np.ndarray, np.ndarray, int]:
    """One configuration's trajectories: nominal + every grid point.

    Returns ``(nominal, responses, n_solves)``: the nominal's ``(P,)``
    values and the ``(K·D, P)`` block of trajectory points, one row per
    (component, deviation), component-major, deviation-minor.  The
    faulty circuits ``DeviationFault(component, deviation).apply(
    circuit)`` are expressed as one factor matrix — a row of ones for
    the nominal, then one row per grid point with component ``k``
    scaled by ``1 + deviation`` — and the whole family goes through
    :func:`~repro.analysis.batched.scaled_values` with values
    bit-identical to sweeping each faulty circuit (the ``value *
    factor`` product and the stamp accumulation order are exactly the
    rebuilt circuit's).
    """
    keys = list(product(components, deviations))
    column = {name: k for k, name in enumerate(components)}
    factors = np.ones((1 + len(keys), len(components)))
    for row, (component, deviation) in enumerate(keys, start=1):
        factors[row, column[component]] = 1.0 + deviation
    values = scaled_values(
        circuit, grid, components, factors, output=output, stats=stats
    )
    return values[0], values[1:], len(factors)


@dataclass
class TrajectoryDictionary:
    """All trajectories of one circuit + configuration set, as arrays.

    ``responses`` is the read-only ``(C, K·D, P)`` array of trajectory
    points: row ``c`` is configuration ``config_indices[c]``, column
    ``k·D + d`` the circuit with ``components[k]`` deviated by
    ``deviations[d]`` (component-major, deviation-minor, the layout of
    :func:`trajectory_faults`), emulated in that configuration; ``P``
    is the grid's point count.  ``nominal`` holds the fault-free
    response per configuration index.
    """

    config_labels: Tuple[str, ...]
    config_indices: Tuple[int, ...]
    components: Tuple[str, ...]
    deviations: Tuple[float, ...]
    grid: FrequencyGrid
    nominal: Dict[int, FrequencyResponse]
    responses: np.ndarray = field(repr=False)
    n_solves: int = 0
    #: LU factorizations the sweeps performed
    n_factorizations: int = 0

    def __post_init__(self) -> None:
        shape = (
            len(self.config_indices),
            len(self.components) * len(self.deviations),
            self.grid.n_points,
        )
        responses = np.asarray(self.responses, dtype=complex).view()
        if responses.shape != shape:
            raise AnalysisError(
                f"trajectory responses of shape {responses.shape}, "
                f"expected {shape}"
            )
        responses.flags.writeable = False
        self.responses = responses
        self._rows = {index: c for c, index in enumerate(self.config_indices)}
        self._columns = {
            point: column
            for column, point in enumerate(
                product(self.components, self.deviations)
            )
        }

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
        return self.n_configs * len(self._columns)

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
        """One stored point, as a view of :attr:`responses`."""
        return FrequencyResponse(
            self.grid,
            self.responses[
                self._rows[config_index], self._columns[(component, deviation)]
            ],
            self.nominal[config_index].label,
        )

    def trajectory(
        self, config_index: int, component: str
    ) -> List[Tuple[float, FrequencyResponse]]:
        """One component's curve in one configuration, by deviation."""
        return [
            (d, self.response(config_index, component, d))
            for d in sorted(self.deviations)
        ]

    def describe(self) -> str:
        return (
            f"trajectory dictionary: {self.n_configs} configuration(s) x "
            f"{len(self.components)} component(s) x "
            f"{len(self.deviations)} deviation(s) = {self.n_points} "
            f"point(s) on {self.grid.n_points} frequencies"
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
