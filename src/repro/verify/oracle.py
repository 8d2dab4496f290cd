"""The differential oracle: four independent roads to one answer.

For every (circuit, fault universe, configuration, grid) case the oracle
runs

1. the production engine (:func:`repro.faults.simulator.simulate_faults`,
   certified Sherman–Morrison),
2. the scalar reference :func:`~repro.verify.invariants.reference_dataset`,
   which re-stamps and sweeps every faulty circuit,
3. a direct *unbatched* MNA solve (:meth:`repro.analysis.mna.MnaSystem.solve_at`
   point by point — a different LAPACK path than the batched sweep),
4. the rational transfer-function fit
   (:func:`repro.analysis.transfer.extract_transfer_function`)

and demands agreement within documented tolerances, plus every
metamorphic invariant of :mod:`repro.verify.invariants`.  Disagreements
become structured :class:`Mismatch` records carrying the circuit,
configuration, fault, worst frequency, relative error and the case seed
— everything needed to replay the failure exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.mna import MnaSystem
from ..analysis.transfer import extract_transfer_function
from ..errors import ReproError
from ..faults.simulator import DetectabilityDataset, simulate_faults
from .generators import VerifyCase, catalog_cases, random_cases


@dataclass(frozen=True)
class Tolerances:
    """Documented agreement tolerances of the differential oracle.

    All response tolerances are *relative to the configuration's peak
    nominal magnitude* — the same normalisation as the paper's tolerance
    band — so stopband noise cannot mask passband disagreement and
    vanishing magnitudes cannot inflate it.

    Attributes
    ----------
    engine_rtol:
        Two simulations of the same circuit, per response sample: only
        rounding separates them.
    mna_rtol:
        Batched sweep vs point-by-point MNA solve.
    transfer_rtol:
        AC sweep vs evaluated rational-fit transfer function.  The fit
        goes through a Vandermonde least-squares and polynomial root
        finding, hence the looser bound.
    deviation_rtol:
        Peak deviation of a Sherman–Morrison pair against the scalar
        reference, relative to ``max(peak, 1)``; pairs on the exact
        per-fault sweep must match bit for bit.
    mna_points:
        Number of spot frequencies per configuration for the unbatched
        MNA check.
    """

    engine_rtol: float = 1e-9
    mna_rtol: float = 1e-9
    transfer_rtol: float = 1e-5
    deviation_rtol: float = 1e-7
    mna_points: int = 7


@dataclass(frozen=True)
class Mismatch:
    """One verified disagreement, with its exact reproduction recipe."""

    check: str
    circuit: str
    config: str
    fault: Optional[str]
    frequency_hz: Optional[float]
    error: float
    tolerance: float
    seed: Optional[int]
    detail: str = ""

    def to_dict(self) -> Dict:
        return {
            "check": self.check,
            "circuit": self.circuit,
            "config": self.config,
            "fault": self.fault,
            "frequency_hz": self.frequency_hz,
            "error": self.error,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "detail": self.detail,
        }

    def render(self) -> str:
        place = self.config + (f"/{self.fault}" if self.fault else "")
        where = (
            f" at {self.frequency_hz:.4g} Hz"
            if self.frequency_hz is not None
            else ""
        )
        seed = f" [seed={self.seed}]" if self.seed is not None else ""
        detail = f" — {self.detail}" if self.detail else ""
        return (
            f"{self.check}: {self.circuit} {place}{where}: "
            f"error {self.error:.3g} > tol {self.tolerance:.3g}"
            f"{seed}{detail}"
        )


@dataclass(frozen=True)
class Skipped:
    """A comparison that could not run on a case: neither pass nor mismatch."""

    check: str
    circuit: str
    config: str
    detail: str

    def to_dict(self) -> Dict:
        return {
            "check": self.check,
            "circuit": self.circuit,
            "config": self.config,
            "detail": self.detail,
        }

    def render(self) -> str:
        return (
            f"{self.check}: {self.circuit} {self.config} skipped — "
            f"{self.detail}"
        )


@dataclass
class CaseOutcome:
    """Oracle verdict for one case."""

    case: VerifyCase
    n_checks: int
    mismatches: List[Mismatch]
    skipped: List[Skipped] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches


@dataclass
class OracleReport:
    """Aggregated outcome of a verification run."""

    outcomes: List[CaseOutcome] = field(default_factory=list)
    master_seed: Optional[int] = None

    @property
    def n_cases(self) -> int:
        return len(self.outcomes)

    @property
    def n_checks(self) -> int:
        return sum(o.n_checks for o in self.outcomes)

    @property
    def mismatches(self) -> List[Mismatch]:
        return [m for o in self.outcomes for m in o.mismatches]

    @property
    def skipped(self) -> List[Skipped]:
        return [s for o in self.outcomes for s in o.skipped]

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> Dict:
        return {
            "passed": self.passed,
            "master_seed": self.master_seed,
            "n_cases": self.n_cases,
            "n_checks": self.n_checks,
            "cases": [
                {
                    "name": o.case.name,
                    "seed": o.case.seed,
                    "n_checks": o.n_checks,
                    "passed": o.passed,
                    "description": o.case.describe(),
                }
                for o in self.outcomes
            ],
            "mismatches": [m.to_dict() for m in self.mismatches],
            "n_skipped": len(self.skipped),
            "skipped": [s.to_dict() for s in self.skipped],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"verify: {verdict} — {self.n_cases} case(s), "
            f"{self.n_checks} check(s), "
            f"{len(self.mismatches)} mismatch(es), "
            f"{len(self.skipped)} skipped"
        ]
        for mismatch in self.mismatches:
            lines.append("  " + mismatch.render())
        for skipped in self.skipped:
            lines.append("  " + skipped.render())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# per-case differential checks
# ----------------------------------------------------------------------

def _check_mna(
    case: VerifyCase,
    dataset: DetectabilityDataset,
    tol: Tolerances,
) -> List[Mismatch]:
    """Batched sweep vs independent point-by-point MNA solves."""
    mismatches: List[Mismatch] = []
    mcc = case.mcc()
    for config in dataset.configs:
        emulated = mcc.emulate(config)
        output = case.setup.output or emulated.output or mcc.base.output
        ref = dataset.nominal[config.index]
        peak = float(np.max(ref.magnitude))
        scale = peak if peak > 0 else 1.0
        system = MnaSystem(emulated)
        indices = np.unique(
            np.linspace(
                0, ref.frequencies_hz.size - 1, tol.mna_points, dtype=int
            )
        )
        for index in indices:
            frequency = float(ref.frequencies_hz[index])
            direct = system.solve_at(frequency).voltage(output)
            error = abs(direct - ref.values[index]) / scale
            if error > tol.mna_rtol:
                mismatches.append(
                    Mismatch(
                        check="mna-direct",
                        circuit=case.name,
                        config=config.label,
                        fault=None,
                        frequency_hz=frequency,
                        error=float(error),
                        tolerance=tol.mna_rtol,
                        seed=case.seed,
                        detail="batched sweep vs unbatched solve_at",
                    )
                )
    return mismatches


def _check_transfer(
    case: VerifyCase,
    dataset: DetectabilityDataset,
    tol: Tolerances,
) -> List[Mismatch]:
    """AC sweep vs the rational transfer-function fit, per configuration."""
    mismatches: List[Mismatch] = []
    mcc = case.mcc()
    for config in dataset.configs:
        emulated = mcc.emulate(config)
        output = case.setup.output or emulated.output or mcc.base.output
        ref = dataset.nominal[config.index]
        peak = float(np.max(ref.magnitude))
        scale = peak if peak > 0 else 1.0
        try:
            tf = extract_transfer_function(
                emulated, output=output, grid=case.setup.grid
            )
        except ReproError as exc:
            mismatches.append(
                Mismatch(
                    check="transfer-fit",
                    circuit=case.name,
                    config=config.label,
                    fault=None,
                    frequency_hz=None,
                    error=float("inf"),
                    tolerance=tol.transfer_rtol,
                    seed=case.seed,
                    detail=f"fit failed: {exc}",
                )
            )
            continue
        indices = np.unique(
            np.linspace(
                0, ref.frequencies_hz.size - 1, tol.mna_points, dtype=int
            )
        )
        for index in indices:
            frequency = float(ref.frequencies_hz[index])
            fitted = tf.at_frequency(frequency)
            error = abs(fitted - ref.values[index]) / scale
            if error > tol.transfer_rtol:
                mismatches.append(
                    Mismatch(
                        check="transfer-eval",
                        circuit=case.name,
                        config=config.label,
                        fault=None,
                        frequency_hz=frequency,
                        error=float(error),
                        tolerance=tol.transfer_rtol,
                        seed=case.seed,
                        detail="AC sweep vs rational-fit evaluation",
                    )
                )
    return mismatches


def check_case(
    case: VerifyCase,
    tolerances: Optional[Tolerances] = None,
    invariants: bool = True,
) -> CaseOutcome:
    """Run the full differential oracle on one case."""
    from .invariants import check_assembly

    tol = tolerances or Tolerances()
    mcc = case.mcc()
    production = simulate_faults(mcc, list(case.faults), case.setup)

    mismatches = check_assembly(case, production, tol)
    mismatches += _check_mna(case, production, tol)
    mismatches += _check_transfer(case, production, tol)

    n_configs = len(production.configs)
    n_pairs = n_configs * len(production.fault_labels)
    n_checks = n_configs + 3 * n_pairs + 2 * n_configs * tol.mna_points

    skipped: List[Skipped] = []
    if invariants:
        from .invariants import run_invariants

        invariant_mismatches, invariant_checks, skipped = run_invariants(
            case, production, tolerances=tol
        )
        mismatches += invariant_mismatches
        n_checks += invariant_checks

    return CaseOutcome(
        case=case, n_checks=n_checks, mismatches=mismatches, skipped=skipped
    )


def run_verification(
    circuits: Optional[Sequence[str]] = None,
    n_random: int = 0,
    seed: Optional[int] = None,
    case_seeds: Optional[Sequence[int]] = None,
    epsilon: float = 0.10,
    points_per_decade: int = 20,
    tolerances: Optional[Tolerances] = None,
    invariants: bool = True,
    progress=None,
) -> OracleReport:
    """Oracle sweep over the catalog plus ``n_random`` randomized cases.

    Parameters
    ----------
    circuits:
        Catalog names for the deterministic pass; ``None`` means the
        whole catalog, ``[]`` skips it.
    n_random:
        Number of randomized perturbed-circuit cases to append.
    seed:
        Master seed for the random cases; ``None`` draws fresh entropy
        (the per-case seeds in the report still allow exact replay).
    case_seeds:
        Explicit case seeds to replay (the ``seed=`` values printed in
        mismatch reports), appended after the random cases.
    progress:
        Optional callable invoked with each case before it runs.
    """
    cases: List[VerifyCase] = []
    if circuits is None or circuits:
        cases.extend(
            catalog_cases(
                epsilon=epsilon,
                points_per_decade=points_per_decade,
                names=circuits,
            )
        )
    cases.extend(random_cases(n_random, seed=seed, epsilon=epsilon))
    from .generators import build_random_case

    for case_seed in case_seeds or ():
        cases.append(build_random_case(int(case_seed), epsilon=epsilon))

    report = OracleReport(master_seed=seed)
    for case in cases:
        if progress is not None:
            progress(case)
        report.outcomes.append(
            check_case(case, tolerances=tolerances, invariants=invariants)
        )
    return report
