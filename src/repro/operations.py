"""The four operations the CLI and the job service share, declared once.

Each entry of :data:`OPERATIONS` is one operation of the paper's flow
that both surfaces offer: ``faultsim`` (the CLI's ``repro campaign``),
``tolerance``, ``diagnose`` and ``verify``.  A declaration lists the
operation's params — type, default, help, check, and whether the param
is part of the job's identity — and names the one ``run(params, ctx)``
that computes it.  Everything else is derived:

* the job service (:mod:`repro.service.jobs`) derives ``PARAM_SPECS``,
  ``normalize_params``, the ``job_key`` input and ``RUNNERS``;
* the CLI (:mod:`repro.cli`) generates the flags of ``campaign``,
  ``tolerance``, ``diagnose`` and ``verify`` and runs them through the
  same ``normalize_params`` and ``run``.

So both surfaces validate, key and compute alike, and a bad value is
refused before anything is queued or solved.  A ``check`` mirrors the
precondition of the library function its param feeds (``decade_grid``,
``plan_tolerance_campaign``, ``DeviationFault``, ``ndetect_cover``,
...); the library keeps its own checks.

The module imports only the standard library and :mod:`repro.errors`;
the runners import the numerical stack when they run.
"""

from __future__ import annotations

import json
import operator
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from .errors import JobValidationError, ReproError


class Param(NamedTuple):
    """One declared parameter of an operation."""

    name: str
    type: type
    default: Any
    help: str
    #: comma-separated rules the value must meet: comparisons such as
    #: ``"> 0"`` or ``">= 2"``, ``"catalog"`` (catalog circuit names)
    #: and ``"nonempty"``; ``None`` values are never checked
    check: str = ""
    choices: Tuple[str, ...] = ()
    #: whether the value enters the job's content key
    identity: bool = True


class Operation(NamedTuple):
    """One operation: its params, in order, and its runner."""

    params: Tuple[Param, ...]
    #: ``run(params, ctx) -> (result, detail)``: ``result`` is the
    #: JSON-able answer the service serves; ``detail`` holds the objects
    #: the CLI renders as text
    run: Callable
    #: checks spanning several params: ``(holds(params), reason)`` pairs
    rules: Tuple[Tuple[Callable, str], ...] = ()


class Context(NamedTuple):
    """What a surface lends a run; none of it changes the result."""

    executor: Any = None
    cache: Any = None
    #: a :class:`~repro.campaign.telemetry.CampaignTelemetry`; the
    #: service's raises at ``checkpoint()`` on cancel or deadline
    telemetry: Any = None
    #: verify: called with each case before it runs
    progress: Optional[Callable] = None
    #: verify: random cases to replay by their printed seeds
    case_seeds: Tuple[int, ...] = ()


_COMPARE = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "!=": operator.ne,
}


def violation(param: Param, value) -> Optional[str]:
    """Why ``value`` breaks ``param``'s check, or ``None`` if it holds."""
    if value is None:
        return None
    if param.choices and value not in param.choices:
        return (
            f"must be one of {', '.join(map(repr, param.choices))}, "
            f"got {value!r}"
        )
    for rule in filter(None, param.check.split(", ")):
        if rule == "nonempty":
            if not value:
                return "must name at least one circuit (omit it for all)"
        elif rule == "catalog":
            from .circuits import catalog

            names = [value] if isinstance(value, str) else value
            unknown = [name for name in names if name not in catalog()]
            if unknown and isinstance(value, str):
                return (
                    f"{value!r} is neither a netlist nor a catalog "
                    "circuit (see 'repro catalog')"
                )
            if unknown:
                return (
                    f"{unknown[0]!r} is not a catalog circuit "
                    "(see 'repro catalog')"
                )
        else:
            symbol, bound = rule.split(" ")
            if not _COMPARE[symbol](value, float(bound)):
                return f"must be {param.check}, got {value!r}"
    return None


# ----------------------------------------------------------------------
# shared params

TARGET = Param(
    "target", str, None, "catalog circuit name (or give netlist)",
    check="catalog",
)
NETLIST = Param("netlist", str, None, "inline netlist text (or give target)")
F0 = Param(
    "f0", float, None, "reference-region centre in Hz (default: from poles)",
    check="> 0",
)
DECADES = Param("decades", float, 2.0, "decades each side of f0", check="> 0")
PPD = Param("ppd", int, 50, "grid points per decade", check=">= 2")
CIRCUITS = Param(
    "circuits", list, None,
    "comma-separated catalog names (default: whole catalog)",
    check="catalog",
)

#: a deviation fault's bound: ``DeviationFault`` needs -1 < d != 0
DEVIATION_BOUND = "> -1, != 0"

ONE_CIRCUIT = (
    lambda p: (p["target"] is None) != (p["netlist"] is None),
    "exactly one of 'target' (catalog name) or 'netlist' (inline netlist "
    "text) is required",
)


# ----------------------------------------------------------------------
# runners


def center_frequency(circuit, override: Optional[float] = None) -> float:
    """Reference-region centre: ``override`` or the geometric pole mean."""
    if override is not None:
        return override
    import math

    from .analysis import circuit_poles

    poles = [p for p in circuit_poles(circuit) if abs(p) > 0]
    if not poles:
        raise ReproError(
            "circuit has no poles; pass f0 to place the reference region"
        )
    magnitudes = [abs(p) for p in poles]
    geometric = math.sqrt(min(magnitudes) * max(magnitudes))
    return geometric / (2.0 * math.pi)


def resolve_circuit(params: dict):
    """(circuit, f0_hz, label) for ``netlist`` text or a ``target`` name."""
    if params.get("netlist") is not None:
        from .circuit import parse_netlist, validate_circuit

        circuit = parse_netlist(params["netlist"])
        validate_circuit(circuit)
        f0 = center_frequency(circuit, params.get("f0"))
        return circuit, f0, circuit.title or "netlist"
    reason = violation(TARGET, params["target"])
    if reason is not None:
        raise JobValidationError(reason)
    from .circuits import build

    bench = build(params["target"])
    f0 = params["f0"] if params.get("f0") is not None else bench.f0_hz
    return bench.circuit, f0, params["target"]


def _grid(f0: float, params: dict):
    from .analysis import decade_grid

    return decade_grid(
        f0,
        decades_below=params["decades"],
        decades_above=params["decades"],
        points_per_decade=params["ppd"],
    )


def run_faultsim(params: dict, ctx: Context):
    """Fault x configuration campaign plus its greedy n-detect cover."""
    from .campaign import execute_plan, plan_campaign
    from .core.ndetect import evaluate_cover, ndetect_cover
    from .dft import apply_multiconfiguration
    from .faults import SimulationSetup, deviation_faults
    from .reporting.export import dataset_to_json

    circuit, f0, label = resolve_circuit(params)
    ctx.telemetry.checkpoint()
    mcc = apply_multiconfiguration(circuit)
    faults = deviation_faults(circuit, deviation=params["deviation"])
    setup = SimulationSetup(grid=_grid(f0, params), epsilon=params["epsilon"])
    plan = plan_campaign(mcc, faults, setup)
    dataset = execute_plan(
        plan, executor=ctx.executor, cache=ctx.cache, telemetry=ctx.telemetry
    )
    matrix = dataset.detectability_matrix()
    n_detect = params["n_detect"]
    cover = ndetect_cover(
        matrix, n_detect=n_detect, solver="greedy", saturate=params["saturate"]
    )
    robustness = evaluate_cover(dataset, sorted(cover), n_detect=n_detect)
    result = {
        "target": label,
        "f0_hz": f0,
        "n_configs": plan.n_configs,
        "n_faults": plan.n_faults,
        "n_units": plan.n_units,
        "n_solves": dataset.n_solves,
        "n_factorizations": dataset.n_factorizations,
        "sm_fallbacks": dataset.sm_fallbacks,
        "fault_coverage": matrix.fault_coverage(),
        "undetectable_faults": list(matrix.undetectable_faults()),
        "n_detect": n_detect,
        "saturate": params["saturate"],
        "cover": [
            matrix.config_labels[matrix.row_of(i)] for i in sorted(cover)
        ],
        "cover_size": len(cover),
        "worst_case_margin": robustness.worst_case_margin,
        "fragile_faults": list(robustness.fragile_faults),
        "dataset": json.loads(dataset_to_json(dataset)),
    }
    return result, {"plan": plan, "matrix": matrix, "robustness": robustness}


def run_tolerance(params: dict, ctx: Context):
    """Catalog epsilon-calibration campaign."""
    from .campaign import execute_tolerance_plan, plan_tolerance_campaign

    plan = plan_tolerance_campaign(
        names=params["circuits"],
        tolerance=params["tolerance"],
        n_samples=params["samples"],
        distribution=params["distribution"],
        seed=params["seed"],
        percentile=params["percentile"],
        decades=params["decades"],
        points_per_decade=params["ppd"],
        corners=params["corners"],
        max_corner_components=params["max_corner_components"],
    )
    ctx.telemetry.checkpoint()
    report = execute_tolerance_plan(
        plan, executor=ctx.executor, cache=ctx.cache, telemetry=ctx.telemetry
    )
    return report.to_json(), {"report": report}


def run_diagnose(params: dict, ctx: Context):
    """Trajectory-dictionary build, then the seeded fault's location.

    An unknown ``component`` is refused before the dictionary is
    planned, so it costs no solve.
    """
    from .dft import apply_multiconfiguration
    from .diagnosis import (
        deviation_grid,
        execute_diagnosis_plan,
        locate_fault,
        plan_diagnosis_campaign,
    )
    from .faults.model import DeviationFault

    circuit, f0, label = resolve_circuit(params)
    component = params["component"]
    passives = [element.name for element in circuit.passives()]
    if component is not None and component not in passives:
        raise JobValidationError(
            f"diagnose: component {component!r} is not a passive of "
            f"{label!r} (have {passives})"
        )
    ctx.telemetry.checkpoint()
    mcc = apply_multiconfiguration(circuit)
    deviations = deviation_grid(span=params["span"], steps=params["steps"])
    plan = plan_diagnosis_campaign(
        mcc, _grid(f0, params), deviations=deviations
    )
    dictionary = execute_diagnosis_plan(
        plan, executor=ctx.executor, cache=ctx.cache, telemetry=ctx.telemetry
    )
    result = {
        "target": label,
        "f0_hz": f0,
        "distance": params["distance"],
        "n_configs": dictionary.n_configs,
        "n_components": len(dictionary.components),
        "n_deviations": len(dictionary.deviations),
        "n_trajectory_points": dictionary.n_points,
        "deviation_step": dictionary.deviation_step,
        "n_solves": dictionary.n_solves,
        "n_factorizations": dictionary.n_factorizations,
        "diagnosis": None,
    }
    diagnosis = None
    if component is not None:
        diagnosis = locate_fault(
            dictionary,
            mcc,
            DeviationFault(component, params["fault_deviation"]),
            metric=params["distance"],
            ambiguity_tolerance=params["ambiguity"],
            epsilon=params["epsilon"],
        )
        result["diagnosis"] = diagnosis.to_json()
        result["diagnosis"]["injected"] = diagnosis.evaluate(
            component, params["fault_deviation"]
        )
    return result, {
        "plan": plan, "dictionary": dictionary, "diagnosis": diagnosis
    }


def run_verify(params: dict, ctx: Context):
    """Differential-oracle sweep; checkpoints between cases."""
    from .verify import run_verification

    def progress(case) -> None:
        ctx.telemetry.checkpoint()
        if ctx.progress is not None:
            ctx.progress(case)

    report = run_verification(
        circuits=params["circuits"],
        n_random=params["random"],
        seed=params["seed"],
        case_seeds=ctx.case_seeds,
        epsilon=params["epsilon"],
        points_per_decade=params["ppd"],
        invariants=params["invariants"],
        progress=progress,
    )
    result = json.loads(report.to_json())
    result["passed"] = report.passed
    result["summary"] = report.summary()
    return result, {}


# ----------------------------------------------------------------------
# the declarations

OPERATIONS: Dict[str, Operation] = {
    "faultsim": Operation(
        params=(
            TARGET,
            NETLIST,
            Param("epsilon", float, 0.10, "detection tolerance", check="> 0"),
            Param(
                "deviation", float, 0.20, "fault deviation",
                check=DEVIATION_BOUND,
            ),
            F0,
            DECADES,
            PPD,
            Param(
                "n_detect", int, 1,
                "require every fault to be detected by at least this many "
                "retained configurations; see docs/ndetection.md",
                check=">= 1",
            ),
            Param(
                "saturate", bool, False,
                "best-effort n-detection: clamp a fault's requirement to "
                "its detecting-configuration count instead of failing",
            ),
        ),
        run=run_faultsim,
        rules=(ONE_CIRCUIT,),
    ),
    "tolerance": Operation(
        params=(
            CIRCUITS._replace(check="nonempty, catalog"),
            Param(
                "tolerance", float, 0.05, "component tolerance to sample",
                check="> 0",
            ),
            Param(
                "samples", int, 200, "Monte Carlo samples per circuit",
                check=">= 1",
            ),
            Param(
                "distribution", str, "uniform", "sampling distribution",
                choices=("uniform", "normal"),
            ),
            Param(
                "seed", int, 2026,
                "PRNG seed, fixed by default so cached units resume",
            ),
            Param(
                "percentile", float, 95.0,
                "percentile of per-sample maxima for the suggested epsilon",
                check="> 0, <= 100",
            ),
            DECADES._replace(
                default=1.0, help="decades each side of each circuit's f0"
            ),
            PPD._replace(default=10),
            Param("corners", bool, True, "the 2^n corner-analysis pass"),
            Param(
                "max_corner_components", int, 10,
                "skip corners for circuits with more passives",
            ),
        ),
        run=run_tolerance,
        rules=(
            (
                lambda p: p["distribution"] != "uniform"
                or p["tolerance"] < 1,
                "tolerance must be < 1 under the uniform distribution",
            ),
        ),
    ),
    "diagnose": Operation(
        params=(
            TARGET,
            NETLIST,
            Param(
                "component", str, None,
                "seed a fault on this component and locate it",
            ),
            Param(
                "fault_deviation", float, None,
                "relative deviation of the seeded fault (e.g. 0.33)",
                check=DEVIATION_BOUND,
            ),
            Param(
                "epsilon", float, 0.10,
                "detection tolerance for the fault-free test", check="> 0",
            ),
            Param(
                "span", float, 0.5, "deviation-grid half-width",
                check="> 0, < 1",
            ),
            Param(
                "steps", int, 4, "deviation-grid points per side",
                check=">= 1",
            ),
            Param(
                "distance", str, "relative",
                "trajectory distance metric; relative is the paper's "
                "point-wise |dT/T|",
                choices=("relative", "band"),
            ),
            Param(
                "ambiguity", float, 0.02, "ambiguity-set tolerance band",
                check=">= 0",
            ),
            F0,
            DECADES,
            PPD,
        ),
        run=run_diagnose,
        rules=(
            ONE_CIRCUIT,
            (
                lambda p: (p["component"] is None)
                == (p["fault_deviation"] is None),
                "'component' (--component) and 'fault_deviation' "
                "(--fault-deviation) describe one seeded fault and must "
                "be given together",
            ),
        ),
    ),
    "verify": Operation(
        params=(
            CIRCUITS,
            Param(
                "random", int, 0,
                "randomized perturbed-circuit cases to append",
                check=">= 0",
            ),
            Param(
                "seed", int, None,
                "PRNG seed for exact reproducibility (default: fresh "
                "entropy)",
            ),
            Param("epsilon", float, 0.10, "detection tolerance", check="> 0"),
            PPD._replace(
                default=20, help="grid points per decade for catalog cases"
            ),
            Param(
                "invariants", bool, True,
                "the metamorphic invariants on top of the differential "
                "checks",
            ),
        ),
        run=run_verify,
    ),
}

