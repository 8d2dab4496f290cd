"""Catalog-scale ε-calibration campaigns.

Definition 1 of the paper tests ``|ΔT/T| > ε``, with ε chosen "to take
into account possible fluctuations in the process environment".  The
per-circuit machinery for that choice lives in
:mod:`repro.analysis.montecarlo` (statistical ``suggested_epsilon``) and
:mod:`repro.analysis.corners` (worst-vertex ``epsilon_floor``); this
module scales it to the whole benchmark catalog with the same campaign
infrastructure the fault simulator uses:

* a :class:`TolerancePlan` decomposes the calibration into one
  content-hashed :data:`TOLERANCE_KIND` unit per catalog circuit;
* units run through any :class:`~repro.campaign.executor.Executor`
  (serial or process-parallel) via the shared
  :func:`~repro.campaign.executor.execute_unit`;
* a :class:`~repro.campaign.cache.ResultCache` resumes interrupted
  calibrations and skips unchanged circuits;
* :class:`~repro.campaign.telemetry.CampaignTelemetry` observes unit
  completions exactly as it does for fault campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.corners import corner_analysis
from ..analysis.montecarlo import DISTRIBUTIONS, monte_carlo_tolerance
from ..analysis.sweep import decade_grid
from ..circuits.catalog import build, catalog
from ..errors import CampaignError
from .cache import ResultCache
from .engine import execute_units
from .executor import Executor, Unit, UnitKind
from .plan import grid_key
from .telemetry import CampaignTelemetry

#: bumped whenever the result layout or key recipe changes
TOLERANCE_FORMAT = "tolerance-v1"


def run_tolerance_unit(
    bases, stats, name, circuit, grid, tolerance, n_samples,
    distribution, seed, percentile, corners,
):
    """Calibrate one circuit (:data:`TOLERANCE_KIND`).

    ``n_solves`` is computed arithmetically — one nominal sweep plus one
    per sample, plus the nominal and vertex sweeps of the corner pass.
    Floors are ``None`` when the corner pass is skipped.
    """
    analysis = monte_carlo_tolerance(
        circuit,
        grid,
        tolerance=tolerance,
        n_samples=n_samples,
        output=circuit.output,
        distribution=distribution,
        seed=seed,
        stats=stats,
    )
    n_solves = 1 + n_samples
    epsilon_floor = None
    band_epsilon_floor = None
    n_corners = 0
    if corners:
        corner = corner_analysis(
            circuit,
            grid,
            tolerance=tolerance,
            output=circuit.output,
            stats=stats,
        )
        epsilon_floor = corner.epsilon_floor()
        band_epsilon_floor = corner.band_epsilon_floor()
        n_corners = corner.n_corners
        n_solves += 1 + n_corners
    values = {
        "name": name,
        "suggested_epsilon": analysis.suggested_epsilon(percentile),
        "max_deviation": float(np.max(analysis.max_deviation_per_sample())),
        "epsilon_floor": epsilon_floor,
        "band_epsilon_floor": band_epsilon_floor,
        "n_corners": n_corners,
    }
    return n_solves, {}, values


#: the ε-calibration of one catalog circuit; its values are one row of
#: the report
TOLERANCE_KIND = UnitKind(
    name="tolerance",
    format=TOLERANCE_FORMAT,
    key_fields=(
        "output", "grid", "tolerance", "n_samples", "distribution", "seed",
        "percentile", "corners", "circuit",
    ),
    run=run_tolerance_unit,
    arrays=(),
    values=(
        "name", "suggested_epsilon", "max_deviation", "epsilon_floor",
        "band_epsilon_floor", "n_corners",
    ),
)


@dataclass(frozen=True)
class TolerancePlan:
    """A fully planned ε-calibration: ordered units plus shared context."""

    units: Tuple[Unit, ...]
    tolerance: float
    n_samples: int
    distribution: str
    seed: int
    percentile: float

    @property
    def n_units(self) -> int:
        return len(self.units)

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

    units: List[Unit] = []
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
            TOLERANCE_KIND.unit(
                unit_id=name,
                label=name,
                size=0,
                args=dict(
                    name=name,
                    circuit=circuit,
                    grid=grid,
                    tolerance=tolerance,
                    n_samples=n_samples,
                    distribution=distribution,
                    seed=seed,
                    percentile=percentile,
                    corners=do_corners,
                ),
                output=str(circuit.output),
                grid=grid_key(grid),
                tolerance=repr(tolerance),
                n_samples=str(n_samples),
                distribution=distribution,
                seed=str(seed),
                percentile=repr(percentile),
                corners=str(do_corners),
                circuit=circuit.identity(),
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


@dataclass(frozen=True)
class ToleranceReport:
    """Assembled ε-calibration of a circuit catalog.

    Each row is one circuit's calibration: the :data:`TOLERANCE_KIND`
    values plus the unit's own ``n_solves``.
    """

    plan: TolerancePlan
    rows: Tuple[Dict[str, object], ...]
    #: AC solves performed by *this* run (0 on a fully warm cache)
    n_solves: int
    n_factorizations: int

    @property
    def n_circuits(self) -> int:
        return len(self.rows)

    def row_for(self, name: str) -> Dict[str, object]:
        for row in self.rows:
            if row["name"] == name:
                return row
        raise KeyError(name)

    def suggested_epsilons(self) -> Dict[str, float]:
        """``circuit name -> suggested ε`` at the plan's percentile."""
        return {row["name"]: row["suggested_epsilon"] for row in self.rows}

    def render(self) -> str:
        """Human-readable calibration table."""
        header = (
            f"{'circuit':<18} {'suggested ε':>12} {'max dev':>10} "
            f"{'corner floor':>13} {'corners':>8}"
        )
        lines = [self.plan.describe(), header, "-" * len(header)]
        for row in self.rows:
            floor = (
                f"{row['epsilon_floor']:.4f}"
                if row["epsilon_floor"] is not None
                else "-"
            )
            lines.append(
                f"{row['name']:<18} {row['suggested_epsilon']:>12.4f} "
                f"{row['max_deviation']:>10.4f} {floor:>13} "
                f"{row['n_corners']:>8d}"
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
            "circuits": [dict(row) for row in self.rows],
        }


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
    run = execute_units(plan, executor, cache, telemetry, noun="tolerance")
    rows = []
    for result in run.results:
        row = {name: result.values[name] for name in TOLERANCE_KIND.values}
        row["n_solves"] = result.n_solves
        rows.append(row)
    return ToleranceReport(
        plan=plan,
        rows=tuple(rows),
        n_solves=run.work.solves,
        n_factorizations=run.work.factorizations,
    )
