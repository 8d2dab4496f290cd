"""Metamorphic invariants of the DFT simulation stack.

Each check takes a :class:`~repro.verify.generators.VerifyCase` (and,
where useful, an already-simulated dataset) and returns a list of
:class:`~repro.verify.oracle.Mismatch` records — empty means the
invariant holds.  The invariants come straight from the paper's
definitions and from physics:

* **C_0 ≡ functional** — emulating the functional configuration of an
  ideal (parasitic-free) DFT reproduces the unmodified circuit exactly.
* **C_{2^n−1} is transparent** — with every opamp in follower mode the
  chain performs the identity function: the last chain output equals
  the primary input.
* **ε-monotonicity** — Definition 1/2 are threshold tests, so raising ε
  can only shrink the detection region: the mask at a larger ε is a
  subset of the mask at a smaller ε, and ω-detectability is monotone
  non-increasing in ε.
* **impedance-scaling invariance** — a voltage transfer function is
  invariant under uniform impedance scaling (R→kR, L→kL, C→C/k), so the
  whole ω-detectability table is too (fault replacement resistances are
  scaled along).
* **grid-refinement stability** — ω-detectability is a measure; refining
  Ω_reference may move each detection-interval boundary by at most one
  coarse cell.
* **matrix/table consistency** — the boolean Definition 1 matrix is
  exactly the support of the Definition 2 table, and both re-derive
  from the stored masks.
* **cover-strategy ordering** — the exact branch-and-bound cover is
  never larger than the greedy one and both reach maximum coverage.
* **exact covers ≡ MILP optimum** — every exact cover (branch and
  bound at each feasible n ≤ 3, the diagnosability cover and the n=1
  Petrick minimum) has the size :func:`reference_min_cover` proves
  minimal.  The Petrick expansion is capped at :data:`PETRICK_TERMS`;
  an instance beyond the cap is reported as a skipped comparison.
* **n-detection** — the n-detection branch and bound at n=1 returns the
  historical cover, and n-covers are (n−1)-covers.
* **production ≡ scalar reference** — the production dataset (plane-by-
  plane pencil fill, certified Sherman–Morrison) equals a scalar
  reference that re-stamps every faulty circuit, assembles ``G + jωC``
  with the historical complex expression and solves each sweep with one
  ``numpy.linalg.solve``: verdicts, masks, ω and nominal sweeps exactly,
  peak deviations of Sherman–Morrison pairs within ``deviation_rtol``.
  :func:`~repro.verify.oracle.check_case` runs it on every case.
* **tolerance ≡ per-sample oracle** — the ε-calibration analyses obey
  the same contract: Monte Carlo deviations
  (:func:`~repro.analysis.montecarlo.monte_carlo_tolerance`) and corner
  envelopes (:func:`~repro.analysis.corners.corner_analysis`) equal
  :func:`reference_scaled_responses`, which rebuilds and sweeps every
  sample circuit, bit for bit for the same seed.
* **trajectory ≡ fault simulator** — a trajectory-dictionary point at a
  fault-universe deviation (:mod:`repro.diagnosis`) is exactly the
  response the fault simulator computes for that
  :class:`~repro.faults.model.DeviationFault`.
* **matcher ≡ per-point reference** — the vectorised nearest-trajectory
  matcher returns exactly the diagnosis of :func:`reference_match`,
  which scores the dictionary one point at a time.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from ..analysis.ac import FrequencyResponse, ac_analysis
from ..analysis.kernel import KernelStats
from ..analysis.mna import MnaSystem
from ..analysis.sweep import FrequencyGrid
from ..core.baselines import exact_minimum_strategy, greedy_strategy
from ..core.boolean_alg import ProductTerm
from ..core.covering import verify_cover
from ..core.detectability import (
    Detections,
    detection_intervals,
    evaluate_detectability,
)
from ..dft.configuration import Configuration
from ..errors import (
    InfeasibleCoverError,
    OptimizationError,
    SingularCircuitError,
)
from ..faults.model import DeviationFault, Fault, OpenFault, ShortFault
from ..faults.simulator import (
    Basis,
    DetectabilityDataset,
    _fault_label,
    functional_circuit,
    rank1_update,
    simulate_configuration,
    simulate_faults,
)

if TYPE_CHECKING:  # pragma: no cover
    from .generators import VerifyCase
    from .oracle import Tolerances

#: Petrick term cap of the exact-cover invariant: every catalog
#: instance within it expands in seconds; beyond it the Petrick
#: comparison is reported as skipped (branch and bound still runs)
PETRICK_TERMS = 20_000


def _mismatch(**kwargs):
    from .oracle import Mismatch

    return Mismatch(**kwargs)


def _skipped(case: "VerifyCase", check: str, config: str, error):
    from .oracle import Skipped

    return Skipped(
        check=check,
        circuit=case.name,
        config=config,
        detail=f"Petrick comparison over its term cap: {error}",
    )


def _default_tolerances():
    from .oracle import Tolerances

    return Tolerances()


def _cell_fraction(grid: FrequencyGrid) -> float:
    """Log-measure fraction of one grid cell (ω-detectability quantum)."""
    return 1.0 / max(grid.decades * grid.points_per_decade, 1.0)


# ----------------------------------------------------------------------
# configuration-semantics invariants
# ----------------------------------------------------------------------

def check_functional_configuration(
    case: "VerifyCase", tol: Optional["Tolerances"] = None
) -> List:
    """Emulated C_0 must equal the unmodified circuit sample-for-sample."""
    tol = tol or _default_tolerances()
    mcc = case.mcc()
    functional = Configuration(0, mcc.n_opamps)
    emulated = mcc.emulate(functional)
    output = case.setup.output or case.circuit.output
    reference = ac_analysis(case.circuit, case.setup.grid, output=output)
    response = ac_analysis(emulated, case.setup.grid, output=output)
    peak = float(np.max(reference.magnitude))
    scale = peak if peak > 0 else 1.0
    errors = np.abs(response.values - reference.values) / scale
    worst = int(np.argmax(errors))
    if errors[worst] > tol.engine_rtol:
        return [
            _mismatch(
                check="invariant-functional",
                circuit=case.name,
                config=functional.label,
                fault=None,
                frequency_hz=float(reference.frequencies_hz[worst]),
                error=float(errors[worst]),
                tolerance=tol.engine_rtol,
                seed=case.seed,
                detail="C0 emulation deviates from the base circuit",
            )
        ]
    return []


def check_transparent_configuration(
    case: "VerifyCase", tol: Optional["Tolerances"] = None
) -> List:
    """The all-follower configuration performs the identity function.

    The last chain opamp's output must equal the primary input node's
    voltage at every frequency of Ω_reference.
    """
    tol = tol or _default_tolerances()
    mcc = case.mcc()
    if mcc.is_partial:
        return []  # a partial DFT cannot emulate the transparent config
    transparent = Configuration(2**mcc.n_opamps - 1, mcc.n_opamps)
    emulated = mcc.emulate(transparent)
    last_output = mcc.base[mcc.chain[-1]].out
    chain_tail = ac_analysis(
        emulated, case.setup.grid, output=last_output
    )
    primary = ac_analysis(
        emulated, case.setup.grid, output=mcc.input_node
    )
    scale = max(float(np.max(np.abs(primary.values))), 1e-30)
    errors = np.abs(chain_tail.values - primary.values) / scale
    worst = int(np.argmax(errors))
    if errors[worst] > tol.engine_rtol:
        return [
            _mismatch(
                check="invariant-transparent",
                circuit=case.name,
                config=transparent.label,
                fault=None,
                frequency_hz=float(chain_tail.frequencies_hz[worst]),
                error=float(errors[worst]),
                tolerance=tol.engine_rtol,
                seed=case.seed,
                detail=(
                    f"V({last_output}) != V({mcc.input_node}) in the "
                    "transparent configuration"
                ),
            )
        ]
    return []


# ----------------------------------------------------------------------
# detectability-definition invariants
# ----------------------------------------------------------------------

def check_epsilon_monotonicity(
    case: "VerifyCase",
    max_faults: int = 3,
    factors: Tuple[float, ...] = (0.5, 1.0, 2.0),
    tol: Optional["Tolerances"] = None,
) -> List:
    """Detection shrinks as ε grows: masks nest, ω is non-increasing."""
    tol = tol or _default_tolerances()
    mcc = case.mcc()
    config = mcc.configurations()[0]
    emulated = mcc.emulate(config)
    output = case.setup.output or emulated.output or mcc.base.output
    nominal = ac_analysis(emulated, case.setup.grid, output=output)
    mismatches: List = []
    epsilons = sorted(case.setup.epsilon * f for f in factors)
    for fault in case.faults[:max_faults]:
        faulty = ac_analysis(
            fault.apply(emulated), case.setup.grid, output=output
        )
        ladder = [
            evaluate_detectability(
                nominal, faulty, eps, case.setup.criterion
            )
            for eps in epsilons
        ]
        for (eps_lo, lo), (eps_hi, hi) in zip(
            zip(epsilons, ladder), zip(epsilons[1:], ladder[1:])
        ):
            nested = bool(np.all(lo.mask | ~hi.mask))
            monotone = (
                hi.omega_detectability <= lo.omega_detectability + 1e-12
            )
            if nested and monotone:
                continue
            mismatches.append(
                _mismatch(
                    check="invariant-epsilon-monotone",
                    circuit=case.name,
                    config=config.label,
                    fault=getattr(fault, "short_name", fault.name),
                    frequency_hz=hi.f_max_deviation_hz,
                    error=max(
                        0.0,
                        hi.omega_detectability - lo.omega_detectability,
                    ),
                    tolerance=0.0,
                    seed=case.seed,
                    detail=(
                        f"omega({eps_hi:g})="
                        f"{hi.omega_detectability:.6g} > "
                        f"omega({eps_lo:g})="
                        f"{lo.omega_detectability:.6g}"
                        if not monotone
                        else "detection mask not nested in epsilon"
                    ),
                )
            )
    return mismatches


def _scale_impedances(circuit, k: float):
    """R→kR, L→kL, C→C/k on every passive (transfer-invariant)."""
    from ..circuit.components import Capacitor, Inductor, Resistor

    scaled = circuit.clone(f"{circuit.title} (xZ {k:g})")
    for element in circuit.passives():
        if isinstance(element, Resistor):
            scaled.replace(element.name, element.scaled(k))
        elif isinstance(element, Inductor):
            scaled.replace(element.name, element.scaled(k))
        elif isinstance(element, Capacitor):
            scaled.replace(element.name, element.scaled(1.0 / k))
    return scaled


def _scale_fault(fault: Fault, k: float) -> Fault:
    """Impedance-scaled twin of a fault (replacement resistors scale)."""
    if isinstance(fault, OpenFault):
        return OpenFault(fault.target, r_open=fault.r_open * k)
    if isinstance(fault, ShortFault):
        return ShortFault(fault.target, r_short=fault.r_short * k)
    return fault  # relative deviations are scale-free


def check_impedance_scaling(
    case: "VerifyCase",
    dataset: Optional[DetectabilityDataset] = None,
    k: float = 10.0,
    tol: Optional["Tolerances"] = None,
) -> List:
    """ω-detectability is invariant under uniform impedance scaling."""
    from .generators import VerifyCase as _Case

    tol = tol or _default_tolerances()
    if dataset is None:
        dataset = simulate_faults(
            case.mcc(), list(case.faults), case.setup
        )
    scaled_case = _Case(
        name=case.name,
        bench=case.bench,
        circuit=_scale_impedances(case.circuit, k),
        faults=tuple(_scale_fault(f, k) for f in case.faults),
        setup=case.setup,
        seed=case.seed,
    )
    scaled = simulate_faults(
        scaled_case.mcc(), list(scaled_case.faults), case.setup
    )
    slack = 1.5 * _cell_fraction(case.setup.grid) + 1e-9
    mismatches: List = []
    for config in dataset.configs:
        for label in dataset.fault_labels:
            reference = dataset.result(config, label)
            image = scaled.result(config, label)
            error = abs(
                reference.omega_detectability - image.omega_detectability
            )
            if error > slack:
                mismatches.append(
                    _mismatch(
                        check="invariant-impedance-scaling",
                        circuit=case.name,
                        config=config.label,
                        fault=label,
                        frequency_hz=reference.f_max_deviation_hz,
                        error=float(error),
                        tolerance=slack,
                        seed=case.seed,
                        detail=(
                            f"omega changed under xZ {k:g} scaling: "
                            f"{reference.omega_detectability:.6g} -> "
                            f"{image.omega_detectability:.6g}"
                        ),
                    )
                )
    return mismatches


def check_grid_refinement(
    case: "VerifyCase",
    max_faults: int = 2,
    factor: int = 2,
    tol: Optional["Tolerances"] = None,
) -> List:
    """ω-detectability converges under grid refinement.

    Each boundary of each detection interval may move by at most one
    coarse cell, so the allowed drift is ``(2·intervals + 2)`` coarse
    cells of log-measure.
    """
    tol = tol or _default_tolerances()
    mcc = case.mcc()
    config = mcc.configurations()[0]
    emulated = mcc.emulate(config)
    output = case.setup.output or emulated.output or mcc.base.output
    coarse_grid = case.setup.grid
    fine_grid = FrequencyGrid(
        f_start=coarse_grid.f_start,
        f_stop=coarse_grid.f_stop,
        points_per_decade=coarse_grid.points_per_decade * factor,
    )
    mismatches: List = []
    nominal_coarse = ac_analysis(emulated, coarse_grid, output=output)
    nominal_fine = ac_analysis(emulated, fine_grid, output=output)
    for fault in case.faults[:max_faults]:
        faulty = fault.apply(emulated)
        coarse = evaluate_detectability(
            nominal_coarse,
            ac_analysis(faulty, coarse_grid, output=output),
            case.setup.epsilon,
            case.setup.criterion,
        )
        fine = evaluate_detectability(
            nominal_fine,
            ac_analysis(faulty, fine_grid, output=output),
            case.setup.epsilon,
            case.setup.criterion,
        )
        intervals = detection_intervals(
            nominal_coarse,
            ac_analysis(faulty, coarse_grid, output=output),
            case.setup.epsilon,
            case.setup.criterion,
        )
        allowed = (2 * len(intervals) + 2) * _cell_fraction(coarse_grid)
        error = abs(
            coarse.omega_detectability - fine.omega_detectability
        )
        if error > allowed:
            mismatches.append(
                _mismatch(
                    check="invariant-grid-refinement",
                    circuit=case.name,
                    config=config.label,
                    fault=getattr(fault, "short_name", fault.name),
                    frequency_hz=coarse.f_max_deviation_hz,
                    error=float(error),
                    tolerance=allowed,
                    seed=case.seed,
                    detail=(
                        f"omega {coarse.omega_detectability:.6g} @ "
                        f"{coarse_grid.points_per_decade} ppd vs "
                        f"{fine.omega_detectability:.6g} @ "
                        f"{fine_grid.points_per_decade} ppd"
                    ),
                )
            )
    return mismatches


# ----------------------------------------------------------------------
# dataset / matrix consistency
# ----------------------------------------------------------------------

def check_matrix_table_consistency(
    case: "VerifyCase",
    dataset: DetectabilityDataset,
    tol: Optional["Tolerances"] = None,
) -> List:
    """Matrix == support(table) and both re-derive from the raw masks."""
    matrix = dataset.detectability_matrix()
    table = dataset.omega_table()
    mismatches: List = []
    for i, config in enumerate(dataset.configs):
        for j, label in enumerate(dataset.fault_labels):
            result = dataset.result(config, label)
            omega = float(table.data[i, j])
            flags = {
                "matrix vs omega support": bool(matrix.data[i, j])
                == (omega > 0.0),
                "matrix vs Definition 1": bool(matrix.data[i, j])
                == bool(result.detectable),
                "Definition 1 vs mask": bool(result.detectable)
                == bool(np.any(result.mask)),
                "omega vs mask measure": abs(
                    omega - dataset.setup.grid.fraction(result.mask)
                )
                < 1e-12,
                "omega within [0,1]": -1e-12 <= omega <= 1.0 + 1e-12,
            }
            failed = [name for name, ok in flags.items() if not ok]
            if failed:
                mismatches.append(
                    _mismatch(
                        check="invariant-matrix-consistency",
                        circuit=case.name,
                        config=config.label,
                        fault=label,
                        frequency_hz=result.f_max_deviation_hz,
                        error=float("nan"),
                        tolerance=0.0,
                        seed=case.seed,
                        detail="; ".join(failed),
                    )
                )
    return mismatches


def check_cover_strategies(
    case: "VerifyCase",
    dataset: DetectabilityDataset,
    tol: Optional["Tolerances"] = None,
) -> List:
    """Exact minimum cover ≤ greedy cover; both reach maximum coverage."""
    matrix = dataset.detectability_matrix()
    n_opamps = case.bench.n_opamps
    exact = exact_minimum_strategy(matrix, n_opamps)
    greedy = greedy_strategy(matrix, n_opamps)
    mismatches: List = []
    if exact.n_configurations > greedy.n_configurations:
        mismatches.append(
            _mismatch(
                check="invariant-cover-minimality",
                circuit=case.name,
                config=f"|exact|={exact.n_configurations}",
                fault=None,
                frequency_hz=None,
                error=float(
                    exact.n_configurations - greedy.n_configurations
                ),
                tolerance=0.0,
                seed=case.seed,
                detail=(
                    "exact branch-and-bound returned a larger cover "
                    f"({sorted(exact.configs)}) than greedy "
                    f"({sorted(greedy.configs)})"
                ),
            )
        )
    for outcome in (exact, greedy):
        if not verify_cover(matrix, sorted(outcome.configs)):
            mismatches.append(
                _mismatch(
                    check="invariant-cover-coverage",
                    circuit=case.name,
                    config=outcome.strategy,
                    fault=None,
                    frequency_hz=None,
                    error=1.0 - matrix.fault_coverage(
                        sorted(outcome.configs)
                    ),
                    tolerance=0.0,
                    seed=case.seed,
                    detail=(
                        f"{outcome.strategy} cover "
                        f"{sorted(outcome.configs)} loses coverage"
                    ),
                )
            )
    return mismatches


def check_exact_covers(
    case: "VerifyCase",
    dataset: DetectabilityDataset,
    tol: Optional["Tolerances"] = None,
) -> List:
    """Every exact cover has the size of the MILP optimum.

    The requirement rows are read from ``matrix.data`` itself, so
    :func:`reference_min_cover` shares no code with the solvers it
    checks:

    * at each feasible ``n ≤ 3`` the ``branch_and_bound_cover`` result
      passes ``verify_cover`` and has the optimum's size;
    * ``optimize_for_diagnosis(method="exact")`` has the optimum's size
      over its rows (each distinguishable fault pair and each
      detectable fault), and covers them;
    * the n=1 Petrick minimal covers have the optimum's size.  An
      expansion beyond :data:`PETRICK_TERMS` yields a
      :class:`~repro.verify.oracle.Skipped` record in its place.
    """
    from ..core.covering import (
        branch_and_bound_cover,
        build_coverage_problem,
        solve_covering,
        verify_cover,
    )
    from ..core.diagnosis import optimize_for_diagnosis

    matrix = dataset.detectability_matrix()
    data = matrix.data  # (configuration, fault)
    rows = data.T[data.any(axis=0)]
    mismatches: List = []

    def report(config: str, size: int, optimum: int, detail: str) -> None:
        mismatches.append(
            _mismatch(
                check="invariant-exact-cover",
                circuit=case.name,
                config=config,
                fault=None,
                frequency_hz=None,
                error=float(size - optimum),
                tolerance=0.0,
                seed=case.seed,
                detail=f"{detail}: {size} configuration(s), "
                f"MILP optimum {optimum}",
            )
        )

    optimum = {}
    for n in range(1, 4):
        if not (rows.sum(axis=1) >= n).all():
            break
        optimum[n] = reference_min_cover(rows, n)
        cover = branch_and_bound_cover(
            build_coverage_problem(matrix, n_detect=n)
        )
        valid = verify_cover(matrix, sorted(cover), n_detect=n)
        if not valid or len(cover) != optimum[n]:
            report(
                f"n={n}", len(cover), optimum[n],
                f"branch-and-bound {n}-detection cover {sorted(cover)}"
                + ("" if valid else " is not a valid cover"),
            )

    first, second = np.triu_indices(data.shape[1], k=1)
    pairs = np.concatenate([(data[:, first] != data[:, second]).T, data.T])
    pairs = pairs[pairs.any(axis=1)]
    chosen = optimize_for_diagnosis(matrix, method="exact")
    picked = np.isin(matrix.config_indices, sorted(chosen))
    best = reference_min_cover(pairs, 1)
    if len(chosen) != best or not pairs[:, picked].any(axis=1).all():
        report(
            "diagnosis", len(chosen), best,
            f"exact diagnosability cover {sorted(chosen)}",
        )

    try:
        solution = solve_covering(matrix, max_terms=PETRICK_TERMS)
    except OptimizationError as exc:
        mismatches.append(
            _skipped(case, "invariant-exact-cover", "n=1", exc)
        )
    else:
        sizes = sorted({len(term) for term in solution.minimal_covers})
        if sizes != [optimum[1]]:
            report(
                "Petrick n=1", sizes[0] if sizes else 0, optimum[1],
                f"Petrick minimal covers of sizes {sizes}",
            )
    return mismatches


def check_ndetect_reduction(
    case: "VerifyCase",
    dataset: DetectabilityDataset,
    tol: Optional["Tolerances"] = None,
) -> List:
    """The n-detection branch and bound at n=1 ≡ the historical one.

    ``branch_and_bound_cover`` runs its historical single-detection
    code for ``n_detect=1``; forcing its n-detection path with an
    equivalent requirement (``n_detect=1, saturate=True`` — every
    non-empty clause needs exactly one hit either way) must return the
    same cover.
    """
    from ..core.covering import (
        branch_and_bound_cover,
        build_coverage_problem,
    )

    matrix = dataset.detectability_matrix()
    legacy = branch_and_bound_cover(build_coverage_problem(matrix))
    general = branch_and_bound_cover(
        build_coverage_problem(matrix, n_detect=1, saturate=True)
    )
    if legacy == general:
        return []
    return [
        _mismatch(
            check="invariant-ndetect-reduction",
            circuit=case.name,
            config=None,
            fault=None,
            frequency_hz=None,
            error=1.0,
            tolerance=0.0,
            seed=case.seed,
            detail=(
                "n_detect=1 does not reduce to the legacy covering: "
                f"exact covers {sorted(legacy)} and {sorted(general)}"
            ),
        )
    ]


def check_ndetect_supersets(
    case: "VerifyCase",
    dataset: DetectabilityDataset,
    tol: Optional["Tolerances"] = None,
) -> List:
    """Minimum n-detect covers are (n−1)-detect covers.

    Any set detecting every fault at least ``n`` times trivially detects
    it ``n−1`` times, so each minimum n-cover must verify at ``n−1``;
    checked for each feasible ``n`` up to 3.
    """
    from ..core.covering import (
        build_coverage_problem,
        branch_and_bound_cover,
        verify_cover,
    )
    from ..core.ndetect import max_feasible_n

    matrix = dataset.detectability_matrix()
    mismatches: List = []
    top = min(3, max_feasible_n(matrix))
    for n in range(2, top + 1):
        cover = branch_and_bound_cover(
            build_coverage_problem(matrix, n_detect=n)
        )
        if not verify_cover(matrix, sorted(cover), n_detect=n - 1):
            mismatches.append(
                _mismatch(
                    check="invariant-ndetect-superset",
                    circuit=case.name,
                    config=f"n={n}",
                    fault=None,
                    frequency_hz=None,
                    error=float(len(cover)),
                    tolerance=0.0,
                    seed=case.seed,
                    detail=(
                        f"minimum {n}-detect cover {sorted(cover)} is "
                        f"not a valid {n - 1}-detect cover"
                    ),
                )
            )
    return mismatches


def reference_min_cover(rows, need) -> int:
    """Minimum number of literals ``x`` with ``rows @ x >= need``.

    ``rows`` is a boolean ``(K, L)`` incidence (requirement × literal)
    and ``need`` an int or a length-``K`` sequence.  The minimum is
    solved as a binary MILP by HiGHS (``scipy.optimize.milp``), an
    algorithm the covering layer's branch and bound and Petrick
    expansion share nothing with.  Returns 0 when there are no rows;
    raises :class:`~repro.errors.InfeasibleCoverError` when a row has
    fewer literals than it needs, and :class:`OptimizationError` when
    the solver reports no proven optimum — an oracle failure is never a
    pass.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    rows = np.asarray(rows, dtype=bool)
    need = np.broadcast_to(need, rows.shape[:1])
    if not rows.shape[0]:
        return 0
    available = rows.sum(axis=1)
    short = np.flatnonzero(available < need)
    if short.size:
        k = int(short[0])
        raise InfeasibleCoverError(
            f"requirement {k} has {available[k]} literal(s) but needs "
            f"{need[k]}"
        )
    result = milp(
        np.ones(rows.shape[1]),
        constraints=LinearConstraint(rows.astype(float), lb=need),
        integrality=np.ones(rows.shape[1]),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0},
    )
    if result.status != 0:
        raise OptimizationError(
            f"MILP oracle found no optimum: {result.message}"
        )
    x = np.round(result.x).astype(int)
    if not (rows @ x >= need).all():
        raise OptimizationError("MILP oracle returned an infeasible cover")
    return int(x.sum())


def reference_absorb(terms: Iterable[ProductTerm]) -> FrozenSet[ProductTerm]:
    """All-pairs oracle of the absorption law ``X + X·Y = X``.

    Visits the distinct terms smallest first and keeps each one that no
    kept term absorbs, testing it against every kept term by frozenset
    inclusion — the quadratic pass the production algebra of
    :mod:`repro.core.boolean_alg` avoids.  Tests hold
    :func:`~repro.core.boolean_alg.expand_product_of_sums` and
    ``SumOfProducts.map_literals`` to
    "multiply every pair, then absorb with this", term for term.
    """
    kept: List[ProductTerm] = []
    for term in sorted(set(terms), key=len):
        if not any(existing.absorbs(term) for existing in kept):
            kept.append(term)
    return frozenset(kept)


def reference_match(
    dictionary,
    observed,
    metric: str = "relative",
    ambiguity_tolerance: float = 0.02,
    epsilon: float = 0.10,
):
    """Per-point reference of :func:`~repro.diagnosis.match_response`.

    Scores the observation with one
    :meth:`~repro.analysis.ac.FrequencyResponse.relative_deviation` (or
    ``band_deviation``) call per configuration and per (configuration,
    component, deviation) point, takes each point's worst case over
    the configurations with Python's ``max`` and keeps a component's
    first strict minimum in grid order.  Production scores each
    configuration's block at once and must return an equal
    :class:`~repro.diagnosis.TrajectoryDiagnosis` in every field.  The
    arguments are taken as valid: production checks them.
    """
    from ..diagnosis import TrajectoryDiagnosis, TrajectoryMatch

    def distance_fn(reference, response):
        if metric == "band":
            return reference.band_deviation(response)
        return reference.relative_deviation(response)

    signature = []
    for index in dictionary.config_indices:
        deviation = distance_fn(dictionary.nominal[index], observed[index])
        signature.append(int(bool(np.max(deviation) > epsilon)))

    best = {}
    for component in dictionary.components:
        for deviation in dictionary.deviations:
            distance = max(
                float(
                    np.max(
                        distance_fn(
                            dictionary.response(
                                index, component, deviation
                            ),
                            observed[index],
                        )
                    )
                )
                for index in dictionary.config_indices
            )
            current = best.get(component)
            if current is None or distance < current.distance:
                best[component] = TrajectoryMatch(
                    component=component,
                    deviation=deviation,
                    distance=distance,
                )

    matches = tuple(
        sorted(best.values(), key=lambda m: (m.distance, m.component))
    )
    threshold = matches[0].distance + ambiguity_tolerance
    return TrajectoryDiagnosis(
        matches=matches,
        ambiguity=tuple(
            m.component for m in matches if m.distance <= threshold
        ),
        ambiguity_tolerance=ambiguity_tolerance,
        metric=metric,
        epsilon=epsilon,
        signature=tuple(signature),
        config_labels=dictionary.config_labels,
        fault_free=not any(signature),
    )


def reference_dataset(
    mcc, faults, setup, configs
) -> DetectabilityDataset:
    """Scalar reference of :func:`~repro.faults.simulator.simulate_faults`.

    Re-stamps every variant as ``MnaSystem(fault.apply(emulated))``,
    assembles its sweep with the historical complex expression
    ``G[None] + (2jπf)[:, None, None] · C[None]`` and solves it with one
    ``numpy.linalg.solve`` — none of the production path's plane fill,
    Sherman–Morrison updates or frequency chunking — and evaluates
    each pair alone with
    :func:`~repro.core.detectability.evaluate_detectability`, where the
    production path evaluates a configuration's faults as one block.
    A singular or non-finite sweep raises
    :class:`~repro.errors.SingularCircuitError` naming the circuit, as
    the production path does (without its frequency chunk).
    """
    grid = setup.grid
    frequencies = grid.frequencies_hz
    labels = [_fault_label(f, setup.fault_name_style) for f in faults]

    def sweep(circuit, probe):
        system = MnaSystem(circuit)
        matrices = (
            system.G[np.newaxis]
            + (2j * np.pi * frequencies)[:, np.newaxis, np.newaxis]
            * system.C[np.newaxis]
        )
        rhs = np.broadcast_to(
            system.z[:, np.newaxis], (frequencies.size, system.size, 1)
        )
        index = system.index_of(probe)
        if index < 0:
            return FrequencyResponse(
                grid=grid, values=np.zeros(frequencies.shape, dtype=complex)
            )
        try:
            values = np.linalg.solve(matrices, rhs)[:, index, 0]
        except np.linalg.LinAlgError:
            raise SingularCircuitError(
                f"{circuit.title}: MNA matrix singular"
            ) from None
        if not np.all(np.isfinite(values)):
            raise SingularCircuitError(
                f"{circuit.title}: non-finite response in sweep"
            )
        return FrequencyResponse(grid=grid, values=values)

    nominal, blocks = {}, []
    for config in configs:
        emulated = mcc.emulate(config)
        probe = setup.output or emulated.output or mcc.base.output
        nominal[config.index] = sweep(emulated, probe)
        results = [
            evaluate_detectability(
                nominal[config.index],
                sweep(fault.apply(emulated), probe),
                setup.epsilon,
                setup.criterion,
            )
            for fault in faults
        ]
        blocks.append(
            Detections(
                masks=np.array(
                    [r.mask for r in results], dtype=bool
                ).reshape(len(results), grid.n_points),
                omega_detectability=np.array(
                    [r.omega_detectability for r in results], dtype=float
                ),
                max_deviation=np.array(
                    [r.max_deviation for r in results], dtype=float
                ),
                f_max_deviation_hz=np.array(
                    [r.f_max_deviation_hz for r in results], dtype=float
                ),
            )
        )
    return DetectabilityDataset(
        configs=tuple(configs),
        fault_labels=tuple(labels),
        setup=setup,
        nominal=nominal,
        **Detections.stack(blocks)._asdict(),
    )


def _exact_pairs(case: "VerifyCase", dataset: DetectabilityDataset):
    """(configuration, label) pairs the production engine swept exactly.

    A fault outside the rank-1 class always takes the per-fault sweep.
    When the dataset counts fallbacks, each rank-1 fault is re-simulated
    alone against the campaign's basis — a pair's result does not depend
    on the other faults of its configuration — and a pair whose every
    grid point fell back was re-swept by the certificate.
    """
    mcc = case.mcc()
    n_points = case.setup.grid.n_points
    basis = Basis(functional_circuit(mcc), case.setup.grid)
    pairs = set()
    for config in dataset.configs:
        emulated = mcc.emulate(config)
        probe = case.setup.output or emulated.output or mcc.base.output
        for fault, label in zip(case.faults, dataset.fault_labels):
            if rank1_update(fault, emulated) is None:
                pairs.add((config.index, label))
            elif dataset.sm_fallbacks:
                stats = KernelStats()
                simulate_configuration(
                    emulated, probe, [fault], [label], case.setup, stats,
                    basis,
                )
                if stats.sm_fallbacks == n_points:
                    pairs.add((config.index, label))
    return pairs


def check_assembly(
    case: "VerifyCase",
    dataset: DetectabilityDataset,
    tol: Optional["Tolerances"] = None,
) -> List:
    """The production engine reproduces :func:`reference_dataset`.

    Every nominal sweep, Definition 1 verdict, mask and ω-detectability
    of the supplied dataset must equal the scalar reference's bit for
    bit.  Peak deviations must too for pairs on the exact per-fault
    sweep; a Sherman–Morrison pair's peak may differ by rounding, up to
    ``deviation_rtol · max(peak, 1)``.
    """
    tol = tol or _default_tolerances()
    reference = reference_dataset(
        case.mcc(), list(case.faults), case.setup, dataset.configs
    )
    exact = _exact_pairs(case, dataset)
    frequencies = case.setup.grid.frequencies_hz
    mismatches: List = []

    def report(config, fault, index, error, tolerance, detail):
        mismatches.append(
            _mismatch(
                check="invariant-assembly",
                circuit=case.name,
                config=config.label,
                fault=fault,
                frequency_hz=float(frequencies[index]),
                error=float(error),
                tolerance=tolerance,
                seed=case.seed,
                detail=detail,
            )
        )

    for config in dataset.configs:
        expected = reference.nominal[config.index].values
        delta = np.abs(dataset.nominal[config.index].values - expected)
        if not np.array_equal(dataset.nominal[config.index].values, expected):
            report(
                config, None, int(np.argmax(delta)), np.max(delta), 0.0,
                "nominal sweep differs from the scalar reference",
            )
        for label in dataset.fault_labels:
            want = reference.result(config, label)
            got = dataset.result(config, label)
            if not (
                np.array_equal(got.mask, want.mask)
                and got.detectable == want.detectable
                and got.omega_detectability == want.omega_detectability
            ):
                differs = np.flatnonzero(got.mask != want.mask)
                report(
                    config, label, int(differs[0]) if differs.size else 0,
                    differs.size, 0.0,
                    f"verdict/mask differs: production "
                    f"{got.omega_detectability:.6g}, reference "
                    f"{want.omega_detectability:.6g}",
                )
            tolerance = (
                0.0
                if (config.index, label) in exact
                else tol.deviation_rtol * max(want.max_deviation, 1.0)
            )
            error = abs(got.max_deviation - want.max_deviation)
            same = got.max_deviation == want.max_deviation or (
                np.isnan(got.max_deviation) and np.isnan(want.max_deviation)
            )
            if not same and not error <= tolerance:
                at = np.abs(frequencies - want.f_max_deviation_hz).argmin()
                report(
                    config, label, int(at), error, tolerance,
                    f"peak deviation: production {got.max_deviation:.17g}, "
                    f"reference {want.max_deviation:.17g}",
                )
    return mismatches


def reference_scaled_responses(
    circuit, grid: FrequencyGrid, components, factors, output=None
) -> List[FrequencyResponse]:
    """Scalar oracle of :func:`~repro.analysis.batched.scaled_values`.

    Rebuilds every sample as repeated
    :meth:`~repro.circuit.netlist.Circuit.with_scaled` calls — row
    ``s`` scales ``components[k]`` by ``factors[s, k]`` — and sweeps it
    with :func:`~repro.analysis.ac.ac_analysis`: the per-sample loop
    Monte Carlo, corner analysis and trajectory builds ran before the
    stamp-program assembly replaced it.
    """
    responses = []
    for row in np.asarray(factors, dtype=float):
        sample = circuit
        for name, factor in zip(components, row):
            sample = sample.with_scaled(name, float(factor))
        responses.append(ac_analysis(sample, grid, output=output))
    return responses


def check_tolerance_kernel(
    case: "VerifyCase", tol: Optional["Tolerances"] = None
) -> List:
    """ε-calibration analyses equal the per-sample oracle bit-for-bit.

    Monte Carlo tolerance deviations and the corner-analysis envelopes /
    per-corner deviation maps, both assembled by stamp-program replay,
    must be *exactly* equal to the same quantities derived from
    :func:`reference_scaled_responses` for the same sample family
    (same seed, same vertices) — any nonzero difference is a mismatch
    with tolerance 0.
    """
    from ..analysis.corners import corner_analysis
    from ..analysis.montecarlo import monte_carlo_tolerance, sample_factors

    mismatches: List = []
    grid = case.setup.grid
    output = case.setup.output or case.circuit.output
    # catalog cases carry seed=None, which would draw a fresh PRNG
    # stream per call — pin one so production and oracle sample the
    # same family
    seed = case.seed if case.seed is not None else 2026
    nominal = ac_analysis(case.circuit, grid, output=output)

    def deviation_rows(components, factors, *measures):
        responses = reference_scaled_responses(
            case.circuit, grid, components, factors, output=output
        )
        return [
            np.vstack([measure(response) for response in responses])
            for measure in measures
        ]

    tolerance = 0.05
    components = [e.name for e in case.circuit.passives()]
    production = monte_carlo_tolerance(
        case.circuit, grid, tolerance=tolerance, n_samples=16,
        output=output, seed=seed,
    )
    factors = sample_factors(
        np.random.default_rng(seed), 16, len(components), tolerance,
        "uniform",
    )
    (expected,) = deviation_rows(
        components, factors, nominal.relative_deviation
    )
    if not np.array_equal(production.deviations, expected):
        mismatches.append(
            _mismatch(
                check="invariant-tolerance-kernel",
                circuit=case.name,
                config="monte-carlo",
                fault=None,
                frequency_hz=None,
                error=float(
                    np.count_nonzero(production.deviations != expected)
                ),
                tolerance=0.0,
                seed=case.seed,
                detail=(
                    "Monte Carlo deviations deviate from the per-sample "
                    "oracle for the same seed"
                ),
            )
        )

    names = components[:6]
    corners = corner_analysis(
        case.circuit, grid, tolerance=tolerance, components=names,
        output=output,
    )
    patterns = list(product((-1, +1), repeat=len(names)))
    factors = 1.0 + np.asarray(patterns, dtype=float) * tolerance
    relative, band = deviation_rows(
        names, factors, nominal.relative_deviation, nominal.band_deviation
    )
    equal = (
        np.array_equal(corners.envelope, np.max(relative, axis=0))
        and np.array_equal(corners.band_envelope, np.max(band, axis=0))
        and corners.corner_deviation
        == {s: float(np.max(row)) for s, row in zip(patterns, relative)}
        and corners.band_corner_deviation
        == {s: float(np.max(row)) for s, row in zip(patterns, band)}
    )
    if not equal:
        mismatches.append(
            _mismatch(
                check="invariant-tolerance-kernel",
                circuit=case.name,
                config="corners",
                fault=None,
                frequency_hz=None,
                error=float(
                    np.max(
                        np.abs(corners.envelope - np.max(relative, axis=0))
                    )
                ),
                tolerance=0.0,
                seed=case.seed,
                detail="corner analysis deviates from the per-corner oracle",
            )
        )
    return mismatches


def check_trajectory_oracle(
    case: "VerifyCase", tol: Optional["Tolerances"] = None
) -> List:
    """Trajectory dictionaries reproduce the fault simulator bit-for-bit,
    and the matcher reproduces :func:`reference_match`.

    A dictionary built over the deviations of the case's parametric
    faults must hold, at every (configuration, component, deviation)
    point, exactly the response ``ac_analysis(fault.apply(...))``
    computes for that :class:`~repro.faults.model.DeviationFault`, by
    the batched-assembly contract.  Each of those responses, and the
    fault-free nominals, is then located under both distances:
    :func:`~repro.diagnosis.match_response` must equal
    :func:`reference_match` in every field.  Zero tolerance.
    """
    from ..diagnosis import (
        DISTANCES,
        build_trajectory_dictionary,
        match_response,
    )

    parametric = [
        f for f in case.faults if isinstance(f, DeviationFault)
    ]
    if not parametric:
        return []
    mcc = case.mcc()
    configs = mcc.configurations(
        include_functional=True, include_transparent=False
    )[:2]
    components: List[str] = []
    for fault in parametric:
        if fault.target not in components:
            components.append(fault.target)
    components = components[:3]
    deviations = sorted({f.deviation for f in parametric})
    grid = case.setup.grid
    dictionary = build_trajectory_dictionary(
        mcc,
        grid,
        components=components,
        deviations=deviations,
        configs=configs,
        output=case.setup.output,
    )
    mismatches: List = []
    observations = {None: dict(dictionary.nominal)}
    for config in configs:
        emulated = mcc.emulate(config)
        probe = case.setup.output or emulated.output or mcc.base.output
        for component in components:
            for deviation in deviations:
                fault = DeviationFault(component, deviation)
                reference = ac_analysis(
                    fault.apply(emulated), grid, output=probe
                )
                observations.setdefault(fault, {})[
                    config.index
                ] = reference
                stored = dictionary.response(
                    config.index, component, deviation
                )
                delta = np.abs(stored.values - reference.values)
                if np.any(delta != 0.0):
                    worst = int(np.argmax(delta))
                    mismatches.append(
                        _mismatch(
                            check="invariant-trajectory-oracle",
                            circuit=case.name,
                            config=config.label,
                            fault=fault.name,
                            frequency_hz=float(
                                grid.frequencies_hz[worst]
                            ),
                            error=float(delta[worst]),
                            tolerance=0.0,
                            seed=case.seed,
                            detail=(
                                "trajectory point deviates from the "
                                "fault simulator's response"
                            ),
                        )
                    )

    for fault, observed in observations.items():
        name = "the nominals" if fault is None else fault.name
        for metric in DISTANCES:
            production = match_response(dictionary, observed, metric=metric)
            expected = reference_match(dictionary, observed, metric=metric)
            if production != expected:
                mismatches.append(
                    _mismatch(
                        check="invariant-trajectory-matcher",
                        circuit=case.name,
                        config=None,
                        fault=None if fault is None else fault.name,
                        frequency_hz=None,
                        error=1.0,
                        tolerance=0.0,
                        seed=case.seed,
                        detail=(
                            f"{metric} match of {name} differs from "
                            "reference_match"
                        ),
                    )
                )
    return mismatches


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def run_invariants(
    case: "VerifyCase",
    dataset: Optional[DetectabilityDataset] = None,
    tolerances: Optional["Tolerances"] = None,
) -> Tuple[List, int, List]:
    """Run every metamorphic invariant on one case.

    Returns ``(mismatches, n_checks, skipped)``: the
    :class:`~repro.verify.oracle.Skipped` records are comparisons that
    could not run and count neither as passed nor as mismatched.
    ``dataset`` is simulated with :func:`simulate_faults` when not
    supplied.
    """
    tol = tolerances or _default_tolerances()
    if dataset is None:
        dataset = simulate_faults(
            case.mcc(), list(case.faults), case.setup
        )
    from .oracle import Skipped

    mismatches: List = []
    mismatches += check_functional_configuration(case, tol)
    mismatches += check_transparent_configuration(case, tol)
    mismatches += check_epsilon_monotonicity(case, tol=tol)
    mismatches += check_impedance_scaling(case, dataset, tol=tol)
    mismatches += check_grid_refinement(case, tol=tol)
    mismatches += check_matrix_table_consistency(case, dataset, tol)
    mismatches += check_cover_strategies(case, dataset, tol)
    mismatches += check_exact_covers(case, dataset, tol)
    mismatches += check_ndetect_reduction(case, dataset, tol)
    mismatches += check_ndetect_supersets(case, dataset, tol)
    mismatches += check_tolerance_kernel(case, tol)
    mismatches += check_trajectory_oracle(case, tol)
    n_checks = (
        2  # functional + transparent
        + 3  # epsilon ladder
        + len(dataset.configs) * len(dataset.fault_labels)  # scaling
        + 2  # grid refinement
        + len(dataset.configs) * len(dataset.fault_labels)  # consistency
        + 2  # cover strategies
        + 1  # exact covers == MILP optimum
        + 2  # n-detect: n=1 reduction + superset ladder
        + 2  # tolerance == per-sample oracle, Monte Carlo + corners
        + 1  # trajectory == fault simulator
        + 1  # trajectory matcher == reference_match
    )
    skipped = [m for m in mismatches if isinstance(m, Skipped)]
    mismatches = [m for m in mismatches if not isinstance(m, Skipped)]
    return mismatches, n_checks, skipped
