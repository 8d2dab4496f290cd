"""Catalog-scale ε-calibration campaigns.

Definition 1 of the paper tests ``|ΔT/T| > ε``, with ε chosen "to take
into account possible fluctuations in the process environment".  The
per-circuit machinery for that choice lives in
:mod:`repro.analysis.montecarlo` (statistical ``suggested_epsilon``) and
:mod:`repro.analysis.corners` (worst-vertex ``epsilon_floor``); this
module scales it to the whole benchmark catalog with the same campaign
infrastructure the fault simulator uses:

* a :class:`TolerancePlan` decomposes the calibration into one
  content-hashed :class:`ToleranceUnit` per catalog circuit;
* units run through any :class:`~repro.campaign.executor.Executor`
  (serial or process-parallel) via the shared
  :func:`~repro.campaign.executor.execute_unit` dispatch;
* a :class:`~repro.campaign.cache.ResultCache` (constructed with
  ``payload_type=ToleranceUnitResult``) resumes interrupted calibrations
  and skips unchanged circuits;
* :class:`~repro.campaign.telemetry.CampaignTelemetry` observes unit
  completions exactly as it does for fault campaigns.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.corners import corner_analysis
from ..analysis.kernel import KernelStats
from ..analysis.montecarlo import DISTRIBUTIONS, monte_carlo_tolerance
from ..analysis.sweep import FrequencyGrid, decade_grid
from ..circuit.netlist import Circuit
from ..circuits.catalog import build, catalog
from ..errors import CampaignError
from .cache import ResultCache
from .engine import execute_units
from .executor import Executor
from .telemetry import CampaignTelemetry

#: engine tag :func:`repro.campaign.executor.execute_unit` dispatches on
TOLERANCE = "tolerance"

#: bumped whenever the result layout or key recipe changes
TOLERANCE_FORMAT = "tolerance-v1"


@dataclass(frozen=True, eq=False)
class ToleranceUnit:
    """One schedulable quantum: the ε-calibration of one circuit.

    Mirrors :class:`~repro.campaign.plan.WorkUnit` closely enough
    (``unit_id`` / ``config_label`` / ``key`` / ``n_faults`` /
    ``engine``) that executors, the cache and the telemetry consume it
    unchanged.
    """

    unit_id: str
    circuit_name: str
    circuit: Circuit
    output: Optional[str]
    grid: FrequencyGrid
    tolerance: float
    n_samples: int
    distribution: str
    seed: int
    percentile: float
    corners: bool
    engine: str = TOLERANCE
    key: str = ""

    @property
    def config_label(self) -> str:
        """Telemetry-facing label (the catalog circuit name)."""
        return self.circuit_name

    @property
    def n_faults(self) -> int:
        """Tolerance units simulate the fault-free circuit only."""
        return 0

    def __repr__(self) -> str:
        return (
            f"ToleranceUnit({self.unit_id}, {self.n_samples} sample(s), "
            f"key={self.key[:8]})"
        )


@dataclass
class ToleranceUnitResult:
    """The calibration payload of one completed unit (cacheable)."""

    key: str
    unit_id: str
    circuit_name: str
    tolerance: float
    n_samples: int
    #: Definition 1 ε at the plan's percentile of per-sample maxima
    suggested_epsilon: float
    #: worst Definition 1 deviation over every Monte Carlo sample
    max_deviation: float
    #: corner-analysis ε floor (Definition 1); ``None`` when the corner
    #: pass was skipped (too many components)
    epsilon_floor: Optional[float]
    #: ε floor in the band normalisation ``|ΔT|/max|T|``; ``None`` when
    #: corners were skipped
    band_epsilon_floor: Optional[float]
    n_corners: int
    n_solves: int
    #: LU factorizations the unit's sweeps performed
    n_factorizations: int = 0


def tolerance_unit_key(
    circuit: Circuit,
    output: Optional[str],
    grid: FrequencyGrid,
    tolerance: float,
    n_samples: int,
    distribution: str,
    seed: int,
    percentile: float,
    corners: bool,
) -> str:
    """Content hash of one tolerance unit (stable across processes)."""
    payload = "\n".join(
        [
            TOLERANCE_FORMAT,
            f"output:{output}",
            f"grid:{grid.f_start!r}:{grid.f_stop!r}:{grid.points_per_decade}",
            f"tolerance:{tolerance!r}",
            f"n_samples:{n_samples}",
            f"distribution:{distribution}",
            f"seed:{seed}",
            f"percentile:{percentile!r}",
            f"corners:{corners}",
            circuit.identity(),
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TolerancePlan:
    """A fully planned ε-calibration: ordered units plus shared context."""

    units: Tuple[ToleranceUnit, ...]
    tolerance: float
    n_samples: int
    distribution: str
    seed: int
    percentile: float
    engine: str = TOLERANCE

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_configs(self) -> int:
        """Telemetry-facing count: one 'configuration' per circuit."""
        return len(self.units)

    @property
    def n_faults(self) -> int:
        return 0

    @property
    def chunk_size(self) -> Optional[int]:
        return None

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(unit.key for unit in self.units)

    def describe(self) -> str:
        return (
            f"tolerance plan: {self.n_units} circuit(s) x "
            f"{self.n_samples} sample(s) ({self.distribution}, "
            f"±{100 * self.tolerance:g}%)"
        )


def plan_tolerance_campaign(
    names: Optional[Sequence[str]] = None,
    tolerance: float = 0.05,
    n_samples: int = 200,
    distribution: str = "uniform",
    seed: int = 2026,
    percentile: float = 95.0,
    decades: int = 1,
    points_per_decade: int = 10,
    corners: bool = True,
    max_corner_components: int = 10,
) -> TolerancePlan:
    """Decompose a catalog ε-calibration into hashed tolerance units.

    One unit per circuit in ``names`` (default: the whole benchmark
    catalog), each sweeping a ``decades``-per-side grid around the
    circuit's characteristic frequency.  The corner pass rides along for
    circuits with at most ``max_corner_components`` passives (the vertex
    count is ``2^n``); larger circuits report the Monte Carlo quantities
    only.
    """
    if tolerance <= 0:
        raise CampaignError("tolerance must be > 0")
    if distribution not in DISTRIBUTIONS:
        raise CampaignError(
            f"unknown distribution {distribution!r}; use one of "
            f"{DISTRIBUTIONS}"
        )
    if distribution == "uniform" and tolerance >= 1.0:
        raise CampaignError(
            "tolerance must be < 1 under the uniform distribution"
        )
    if n_samples < 1:
        raise CampaignError("n_samples must be >= 1")
    if not 0.0 < percentile <= 100.0:
        raise CampaignError(
            f"percentile must be in (0, 100], got {percentile:g}"
        )
    if names is None:
        names = catalog()
    if not names:
        raise CampaignError("no circuits to calibrate")

    units: List[ToleranceUnit] = []
    for name in names:
        bench = build(name)
        circuit = bench.circuit
        grid = decade_grid(
            bench.f0_hz, decades, decades, points_per_decade=points_per_decade
        )
        do_corners = corners and (
            len(circuit.passives()) <= max_corner_components
            and tolerance < 1.0
        )
        units.append(
            ToleranceUnit(
                unit_id=name,
                circuit_name=name,
                circuit=circuit,
                output=circuit.output,
                grid=grid,
                tolerance=tolerance,
                n_samples=n_samples,
                distribution=distribution,
                seed=seed,
                percentile=percentile,
                corners=do_corners,
                key=tolerance_unit_key(
                    circuit,
                    circuit.output,
                    grid,
                    tolerance,
                    n_samples,
                    distribution,
                    seed,
                    percentile,
                    do_corners,
                ),
            )
        )

    return TolerancePlan(
        units=tuple(units),
        tolerance=tolerance,
        n_samples=n_samples,
        distribution=distribution,
        seed=seed,
        percentile=percentile,
    )


def execute_tolerance_unit(unit: ToleranceUnit) -> ToleranceUnitResult:
    """Calibrate one circuit (runs in the parent or a worker process).

    ``n_solves`` is computed arithmetically — one nominal sweep plus one
    per sample, plus the nominal and vertex sweeps of the corner pass;
    ``n_factorizations`` comes from the kernel's own bookkeeping,
    mirroring the fault-simulation units.
    """
    stats = KernelStats()
    analysis = monte_carlo_tolerance(
        unit.circuit,
        unit.grid,
        tolerance=unit.tolerance,
        n_samples=unit.n_samples,
        output=unit.output,
        distribution=unit.distribution,
        seed=unit.seed,
        stats=stats,
    )
    n_solves = 1 + unit.n_samples
    epsilon_floor = None
    band_epsilon_floor = None
    n_corners = 0
    if unit.corners:
        corner = corner_analysis(
            unit.circuit,
            unit.grid,
            tolerance=unit.tolerance,
            output=unit.output,
            stats=stats,
        )
        epsilon_floor = corner.epsilon_floor()
        band_epsilon_floor = corner.band_epsilon_floor()
        n_corners = corner.n_corners
        n_solves += 1 + n_corners
    return ToleranceUnitResult(
        key=unit.key,
        unit_id=unit.unit_id,
        circuit_name=unit.circuit_name,
        tolerance=unit.tolerance,
        n_samples=unit.n_samples,
        suggested_epsilon=analysis.suggested_epsilon(unit.percentile),
        max_deviation=float(np.max(analysis.max_deviation_per_sample())),
        epsilon_floor=epsilon_floor,
        band_epsilon_floor=band_epsilon_floor,
        n_corners=n_corners,
        n_solves=n_solves,
        n_factorizations=stats.factorizations,
    )


@dataclass(frozen=True)
class ToleranceReport:
    """Assembled ε-calibration of a circuit catalog."""

    plan: TolerancePlan
    rows: Tuple[ToleranceUnitResult, ...]
    #: AC solves performed by *this* run (0 on a fully warm cache)
    n_solves: int
    n_factorizations: int

    @property
    def n_circuits(self) -> int:
        return len(self.rows)

    def row_for(self, name: str) -> ToleranceUnitResult:
        for row in self.rows:
            if row.circuit_name == name:
                return row
        raise KeyError(name)

    def suggested_epsilons(self) -> Dict[str, float]:
        """``circuit name -> suggested ε`` at the plan's percentile."""
        return {row.circuit_name: row.suggested_epsilon for row in self.rows}

    def render(self) -> str:
        """Human-readable calibration table."""
        header = (
            f"{'circuit':<18} {'suggested ε':>12} {'max dev':>10} "
            f"{'corner floor':>13} {'corners':>8}"
        )
        lines = [self.plan.describe(), header, "-" * len(header)]
        for row in self.rows:
            floor = (
                f"{row.epsilon_floor:.4f}"
                if row.epsilon_floor is not None
                else "-"
            )
            lines.append(
                f"{row.circuit_name:<18} {row.suggested_epsilon:>12.4f} "
                f"{row.max_deviation:>10.4f} {floor:>13} "
                f"{row.n_corners:>8d}"
            )
        lines.append(
            f"{self.n_circuits} circuit(s), {self.n_solves} solve(s), "
            f"{self.n_factorizations} factorization(s)"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON-serialisable summary (CLI ``--json`` output)."""
        return {
            "format": TOLERANCE_FORMAT,
            "tolerance": self.plan.tolerance,
            "n_samples": self.plan.n_samples,
            "distribution": self.plan.distribution,
            "seed": self.plan.seed,
            "percentile": self.plan.percentile,
            "n_solves": self.n_solves,
            "n_factorizations": self.n_factorizations,
            "circuits": [
                {
                    "name": row.circuit_name,
                    "suggested_epsilon": row.suggested_epsilon,
                    "max_deviation": row.max_deviation,
                    "epsilon_floor": row.epsilon_floor,
                    "band_epsilon_floor": row.band_epsilon_floor,
                    "n_corners": row.n_corners,
                    "n_solves": row.n_solves,
                }
                for row in self.rows
            ],
        }


def tolerance_cache(directory) -> ResultCache:
    """A :class:`ResultCache` validating tolerance payloads."""
    return ResultCache(directory, payload_type=ToleranceUnitResult)


def execute_tolerance_plan(
    plan: TolerancePlan,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[CampaignTelemetry] = None,
) -> ToleranceReport:
    """Execute an already-planned calibration and assemble its report.

    The units run through :func:`repro.campaign.engine.execute_units`,
    the loop every campaign kind shares; the assembly follows plan
    order regardless of completion order.
    """
    outcomes = execute_units(
        plan, executor, cache, telemetry, noun="tolerance"
    )

    rows = []
    n_solves = 0
    n_factorizations = 0
    for unit in plan.units:
        outcome = outcomes[unit.unit_id]
        if outcome.result is None:
            raise CampaignError(
                f"tolerance unit {unit.unit_id} has no result to assemble"
            )
        rows.append(outcome.result)
        if not outcome.from_cache:
            n_solves += outcome.result.n_solves
            n_factorizations += getattr(
                outcome.result, "n_factorizations", 0
            )
    return ToleranceReport(
        plan=plan,
        rows=tuple(rows),
        n_solves=n_solves,
        n_factorizations=n_factorizations,
    )


def run_tolerance_campaign(
    names: Optional[Sequence[str]] = None,
    tolerance: float = 0.05,
    n_samples: int = 200,
    distribution: str = "uniform",
    seed: int = 2026,
    percentile: float = 95.0,
    decades: int = 1,
    points_per_decade: int = 10,
    corners: bool = True,
    max_corner_components: int = 10,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[CampaignTelemetry] = None,
) -> ToleranceReport:
    """One-call catalog ε-calibration: plan → execute → report."""
    plan = plan_tolerance_campaign(
        names=names,
        tolerance=tolerance,
        n_samples=n_samples,
        distribution=distribution,
        seed=seed,
        percentile=percentile,
        decades=decades,
        points_per_decade=points_per_decade,
        corners=corners,
        max_corner_components=max_corner_components,
    )
    return execute_tolerance_plan(
        plan, executor=executor, cache=cache, telemetry=telemetry
    )
