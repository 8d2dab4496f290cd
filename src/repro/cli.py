"""Command-line interface: the DFT flow on netlists from the shell.

.. code-block:: bash

    python -m repro analyze  filter.sp            # AC / poles / TF summary
    python -m repro faultsim filter.sp            # detectability matrices
    python -m repro faultsim filter.sp --jobs 4 --cache-dir .cache
    python -m repro optimize filter.sp --json p.json   # flow + test program
    python -m repro campaign biquad --jobs 2 --trace trace.jsonl
    python -m repro verify --random 25 --seed 0   # differential oracle
    python -m repro escape filter.sp --seed 7     # escape / yield-loss MC
    python -m repro montecarlo filter.sp          # process-tolerance MC
    python -m repro tolerance                     # catalog eps-calibration
    python -m repro diagnose sallen_key --component R1a --fault-deviation 0.3
    python -m repro catalog                       # library circuits
    python -m repro demo biquad                   # flow on a library circuit

``campaign``, ``tolerance``, ``diagnose`` and ``verify`` are generated
from the declarations in :mod:`repro.operations` and run through the
job service's ``normalize_params`` and the operation's ``run``, so they
refuse, key and compute exactly as a submitted job does.

Netlists use the dialect of :mod:`repro.circuit.netlist_io`; the DFT
chain is discovered automatically (every opamp, in card order) and the
reference region is centred on the dominant pole pair unless ``--f0``
overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .analysis import ac_analysis, circuit_poles, decade_grid
from .analysis.noise import noise_analysis
from .analysis.transfer import extract_transfer_function
from .campaign import CampaignTelemetry
from .circuit import Circuit, parse_netlist, validate_circuit
from .core import (
    AverageOmegaDetectability,
    ConfigurationCount,
    DftOptimizer,
    select_test_frequencies,
)
from .core.testprogram import generate_test_program
from .dft import apply_multiconfiguration
from .errors import JobValidationError, ReproError
from .faults import SimulationSetup, deviation_faults, simulate_faults
from .operations import (
    OPERATIONS,
    Context,
    center_frequency,
    resolve_circuit,
    violation,
)
from .reporting import render_detectability_matrix, render_omega_table


def _load_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as handle:
        circuit = parse_netlist(handle.read())
    validate_circuit(circuit)
    return circuit


def _grid(circuit: Circuit, args) -> object:
    return decade_grid(
        center_frequency(circuit, args.f0),
        decades_below=args.decades,
        decades_above=args.decades,
        points_per_decade=args.ppd,
    )


def cmd_analyze(args) -> int:
    circuit = _load_circuit(args.netlist)
    print(f"{circuit.title}: {len(circuit)} elements, "
          f"{len(circuit.opamps())} opamp(s)")
    grid = _grid(circuit, args)
    response = ac_analysis(circuit, grid)
    f_peak, magnitude = response.peak()
    print(
        f"AC sweep {grid.f_start:.4g}..{grid.f_stop:.4g} Hz: "
        f"peak |T| = {magnitude:.4g} at {f_peak:.4g} Hz"
    )
    poles = circuit_poles(circuit)
    print("poles (rad/s):")
    for pole in poles:
        print(f"  {pole:.6g}")
    tf = extract_transfer_function(circuit, grid=grid)
    print(tf.describe())
    return 0


#: default cache location used by ``--resume`` without ``--cache-dir``
DEFAULT_CACHE_DIR = ".repro-campaign-cache"


def _resolve_cache_dir(args) -> Optional[str]:
    """The cache directory the campaign flags ask for (or ``None``).

    ``--resume`` without an explicit ``--cache-dir`` falls back to
    :data:`DEFAULT_CACHE_DIR`.
    """
    cache_dir = getattr(args, "cache_dir", None)
    if getattr(args, "resume", False) and cache_dir is None:
        cache_dir = DEFAULT_CACHE_DIR
    return cache_dir


def _make_executor(args, persistent=False):
    """The campaign executor ``--jobs``/``--timeout`` ask for, or ``None``.

    Parameters
    ----------
    persistent:
        Build a parallel executor whose process pool survives across
        runs (the job server's mode); call ``executor.close()`` when
        done.
    """
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        return None
    from .campaign import make_executor

    return make_executor(
        jobs=jobs,
        timeout=getattr(args, "timeout", None),
        persistent=persistent,
    )


def _campaign_parts(args):
    """(executor, cache, telemetry) from the campaign CLI flags.

    The one shared interpretation of ``campaign_flags`` — ``faultsim``,
    ``campaign``, ``tolerance`` and ``diagnose`` build their runtime
    pieces here, and ``serve`` its executor through
    :func:`_make_executor`, so the flags cannot drift between
    subcommands.  Each is ``None`` when its flags were not given: the
    units then run serially in-process, uncached and unobserved.
    """
    cache_dir = _resolve_cache_dir(args)
    trace = getattr(args, "trace", None)
    progress = bool(getattr(args, "progress", False))

    cache = telemetry = None
    if cache_dir is not None:
        from .campaign import ResultCache

        cache = ResultCache(cache_dir)
    if trace is not None or progress:
        telemetry = CampaignTelemetry(trace_path=trace, progress=progress)
    return _make_executor(args), cache, telemetry


def campaign_flags(p, progress=True):
    """Attach the shared campaign flags (interpreted by
    :func:`_campaign_parts`) to a subparser; ``progress=False`` leaves
    out ``--progress``, which only a batch run can paint."""
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (>=2 enables the parallel executor)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="content-addressed result cache directory",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume from the cache "
        f"(defaults --cache-dir to {DEFAULT_CACHE_DIR})",
    )
    p.add_argument(
        "--trace", default=None,
        help="append JSONL campaign telemetry to this file",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-work-unit timeout in seconds (parallel executor)",
    )
    if progress:
        p.add_argument(
            "--progress", action="store_true",
            help="paint a live progress line on stderr",
        )


def _campaign(circuit: Circuit, args):
    mcc = apply_multiconfiguration(circuit)
    faults = deviation_faults(circuit, deviation=args.deviation)
    setup = SimulationSetup(grid=_grid(circuit, args), epsilon=args.epsilon)
    executor, cache, telemetry = _campaign_parts(args)
    try:
        dataset = simulate_faults(
            mcc,
            faults,
            setup,
            executor=executor,
            cache=cache,
            telemetry=telemetry,
        )
    finally:
        if telemetry is not None:
            telemetry.close()
    return mcc, dataset


def cmd_faultsim(args) -> int:
    circuit = _load_circuit(args.netlist)
    mcc, dataset = _campaign(circuit, args)
    print(mcc.describe())
    print()
    matrix = dataset.detectability_matrix()
    print(render_detectability_matrix(matrix))
    print()
    print(render_omega_table(dataset.omega_table()))
    undetectable = matrix.undetectable_faults()
    if undetectable:
        print()
        print(
            "faults detectable in no configuration: "
            + ", ".join(undetectable)
        )
    _print_ndetect_cover(dataset, matrix, args)
    return 0


def _print_ndetect_cover(dataset, matrix, args) -> None:
    """Append the n-detection cover summary when ``--n-detect`` > 1.

    The default (n=1) output stays byte-identical to the historical
    single-detection report.
    """
    n_detect = getattr(args, "n_detect", 1)
    if n_detect <= 1:
        return
    from .core.ndetect import evaluate_cover, ndetect_cover

    cover = ndetect_cover(
        matrix,
        n_detect=n_detect,
        solver="greedy",
        saturate=getattr(args, "saturate", False),
    )
    report = evaluate_cover(dataset, sorted(cover), n_detect=n_detect)
    print()
    print(report.render())


def cmd_optimize(args) -> int:
    circuit = _load_circuit(args.netlist)
    mcc, dataset = _campaign(circuit, args)
    matrix = dataset.detectability_matrix()
    table = dataset.omega_table()
    optimizer = DftOptimizer(
        matrix,
        table,
        n_detect=getattr(args, "n_detect", 1),
        saturate=getattr(args, "saturate", False),
    )
    result = optimizer.optimize(
        [ConfigurationCount(), AverageOmegaDetectability(table=table)]
    )
    print(result.render())
    print()
    chosen = [
        c for c in dataset.configs if c.index in result.selected
    ]
    schedule = select_test_frequencies(dataset, configs=chosen)
    program = generate_test_program(
        mcc, dataset, configs=chosen, schedule=schedule
    )
    print(program.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(program.to_json())
        print(f"\ntest program written to {args.json}")
    return 0


def cmd_ndetect(args) -> int:
    """n-Detection sweep: covers, robustness margins, Pareto front."""
    from .core.ndetect import (
        calibrate_noise_floor,
        evaluate_cover,
        max_feasible_n,
        ndetect_sweep,
        render_sweep,
    )

    circuit, f0, _ = resolve_circuit(
        dict(_circuit_params(args.target), f0=args.f0)
    )
    mcc = apply_multiconfiguration(circuit)
    faults = deviation_faults(circuit, deviation=args.deviation)
    grid = decade_grid(
        f0,
        decades_below=args.decades,
        decades_above=args.decades,
        points_per_decade=args.ppd,
    )
    setup = SimulationSetup(grid=grid, epsilon=args.epsilon)
    dataset = simulate_faults(mcc, faults, setup)
    matrix = dataset.detectability_matrix()

    floor = 0.0
    if args.calibrate != "none":
        floor = calibrate_noise_floor(
            circuit,
            grid,
            tolerance=args.tolerance,
            method=args.calibrate,
            criterion=setup.criterion,
        )
        print(
            f"noise floor ({args.calibrate}, "
            f"{100 * args.tolerance:g}% tolerance): {floor:.6g}"
        )

    top = max_feasible_n(matrix)
    print(f"max feasible n_detect: {top}")
    if args.max_n is not None:
        n_values = list(range(1, args.max_n + 1))
    else:
        n_values = list(range(1, top + 1))
    points = ndetect_sweep(
        dataset,
        n_values=n_values,
        solver=args.solver,
        saturate=args.saturate,
        noise_floor=floor,
    )
    print()
    print(render_sweep(points))
    if args.report:
        for point in points:
            report = evaluate_cover(
                dataset,
                point.configs,
                n_detect=point.n_detect,
                noise_floor=floor,
            )
            print()
            print(report.render())
    if args.json:
        from .reporting.export import pareto_to_json

        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(pareto_to_json(points))
        print(f"\nsweep written to {args.json}")
    return 0


def cmd_noise(args) -> int:
    circuit = _load_circuit(args.netlist)
    grid = _grid(circuit, args)
    result = noise_analysis(
        circuit, grid, en_v_per_rt_hz=args.en
    )
    import numpy as np

    peak_index = int(np.argmax(result.total_psd))
    print(
        f"output noise of {circuit.title!r} over "
        f"{grid.f_start:.4g}..{grid.f_stop:.4g} Hz:"
    )
    print(
        f"  integrated RMS: {1e6 * result.integrated_rms():.4g} uVrms"
    )
    print(
        f"  peak density:   "
        f"{1e9 * result.total_rms_density[peak_index]:.4g} nV/rtHz at "
        f"{grid.frequencies_hz[peak_index]:.4g} Hz"
    )
    shares = sorted(
        (
            (result.fraction_of(name), name)
            for name in result.contributions
        ),
        reverse=True,
    )
    print("  top contributors:")
    for share, name in shares[:5]:
        print(f"    {name:12s} {100 * share:5.1f}%")
    return 0


def cmd_escape(args) -> int:
    """Monte Carlo test-escape / yield-loss estimation."""
    from .faults import deviation_faults, escape_analysis

    circuit = _load_circuit(args.netlist)
    faults = deviation_faults(circuit, deviation=args.deviation)
    result = escape_analysis(
        circuit,
        faults,
        _grid(circuit, args),
        epsilon=args.epsilon,
        tolerance=args.tolerance,
        n_samples=args.samples,
        seed=args.seed,
    )
    if args.seed is None:
        print("seed: fresh (pass --seed N for a reproducible run)")
    else:
        print(f"seed: {args.seed}")
    print(result.render())
    return 0


def cmd_montecarlo(args) -> int:
    """Monte Carlo process-tolerance analysis: the ε floor."""
    from .analysis.montecarlo import epsilon_headroom, monte_carlo_tolerance

    circuit = _load_circuit(args.netlist)
    analysis = monte_carlo_tolerance(
        circuit,
        _grid(circuit, args),
        tolerance=args.tolerance,
        n_samples=args.samples,
        distribution=args.distribution,
        seed=args.seed,
    )
    if args.seed is None:
        print("seed: fresh (pass --seed N for a reproducible run)")
    else:
        print(f"seed: {args.seed}")
    suggested = analysis.suggested_epsilon()
    headroom = epsilon_headroom(analysis, args.epsilon)
    print(
        f"{circuit.title}: {analysis.n_samples} samples at "
        f"{100 * analysis.tolerance:.1f}% component tolerance"
    )
    print(f"  suggested epsilon (95th pct): {suggested:.4g}")
    print(
        f"  headroom of eps={args.epsilon:g}: {headroom:+.4g} "
        f"({'ok' if headroom >= 0 else 'yield loss likely'})"
    )
    return 0


def _circuit_params(target: str) -> dict:
    """A positional ``target``: a netlist file's text, else a catalog name."""
    if os.path.exists(target):
        with open(target, "r", encoding="utf-8") as handle:
            return {"netlist": handle.read()}
    return {"target": target}


def cmd_operation(args) -> int:
    """Run a declared operation (:mod:`repro.operations`) and show it.

    ``campaign``, ``tolerance``, ``diagnose`` and ``verify`` go through
    the job service's ``normalize_params`` and the operation's ``run``,
    so they validate and compute exactly as a submitted job does; the
    campaign flags only lend an executor, a cache and a trace.
    """
    from .service.jobs import normalize_params

    params = {param.name: getattr(args, param.name) for param in args.declared}
    if "target" in args:
        params.update(_circuit_params(args.target))
    params = normalize_params(args.kind, params)
    executor, cache, telemetry = _campaign_parts(args)
    context = Context(
        executor=executor,
        cache=cache,
        telemetry=telemetry or CampaignTelemetry(),
        progress=_print_case if getattr(args, "print_cases", False) else None,
        case_seeds=tuple(getattr(args, "case_seed", None) or ()),
    )
    try:
        result, detail = OPERATIONS[args.kind].run(params, context)
    finally:
        context.telemetry.close()
    return args.show(args, result, detail, context)


def _print_case(case) -> None:
    print(f"checking {case.describe()}")


def _write_json(path: Optional[str], result: dict, what: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
        print(f"{what} written to {path}")


def _show_campaign(args, result, detail, context) -> int:
    print(detail["plan"].describe())
    summary = context.telemetry.summary()
    print(
        f"done: {summary['units_done']}/{summary['units_total']} units, "
        f"{summary['cache_hits']} cache hit(s), {summary['solves']} AC "
        f"solve(s), {summary['retries']} retry(ies) in "
        f"{summary['wall_s']:.2f}s wall / {summary['cpu_s']:.2f}s cpu"
    )
    if context.cache is not None:
        print(f"cache: {context.cache!r}")
    matrix = detail["matrix"]
    print(
        f"fault coverage (all configurations): "
        f"{100 * result['fault_coverage']:.0f}% "
        f"({matrix.n_faults - len(result['undetectable_faults'])}"
        f"/{matrix.n_faults} faults)"
    )
    if args.matrix:
        print()
        print(render_detectability_matrix(matrix))
    if result["n_detect"] > 1:
        print()
        print(detail["robustness"].render())
    return 0


def _show_tolerance(args, result, detail, context) -> int:
    print(detail["report"].render())
    if context.cache is not None:
        print(f"cache: {context.cache!r}")
    _write_json(args.json, result, "tolerance report")
    return 0


def _show_diagnose(args, result, detail, context) -> int:
    print(detail["plan"].describe())
    print(
        f"{detail['dictionary'].describe()}; {result['n_solves']} AC "
        f"solve(s), {result['n_factorizations']} factorization(s), "
        f"deviation step {result['deviation_step']:g}"
    )
    if context.cache is not None:
        print(f"cache: {context.cache!r}")
    if detail["diagnosis"] is not None:
        print()
        print(
            f"injected {args.component} {args.fault_deviation:+.1%}; "
            "located:"
        )
        print(detail["diagnosis"].render())
    _write_json(args.json, result, "diagnosis report")
    return 0


def _show_verify(args, result, detail, context) -> int:
    _write_json(args.json, result, "verification report")
    print(result["summary"])
    return 0 if result["passed"] else 1


def cmd_serve(args) -> int:
    """Run the long-running job server over the campaign stack."""
    from .service import ReproService, ServiceRuntime

    # the executor comes from the same campaign flags the batch
    # subcommands use; the runtime keeps its own caches below
    # --cache-dir, so no batch cache is built here
    executor = _make_executor(args, persistent=True)
    telemetry = CampaignTelemetry(trace_path=args.trace)
    runtime = ServiceRuntime(
        executor=executor,
        cache_dir=_resolve_cache_dir(args),
        telemetry=telemetry,
    )
    service = ReproService(
        host=args.host,
        port=args.port,
        runtime=runtime,
        queue_limit=args.queue_limit,
        job_timeout=args.job_timeout,
        retry_after_s=args.retry_after,
        workers=args.workers,
        keep_jobs=args.keep_jobs,
        tombstone_ttl=args.tombstone_ttl,
        access_log=args.access_log,
    )
    pools = 0 if executor is None else 1
    print(
        f"repro service listening on {service.url} "
        f"({args.workers} worker(s), {pools} executor pool(s), "
        f"queue limit {args.queue_limit}, "
        f"cache {_resolve_cache_dir(args) or 'disabled'})"
    )
    print("endpoints: /healthz /metrics /catalog /jobs (see docs/service.md)")
    service.serve_forever()
    print("service stopped")
    return 0


def cmd_route(args) -> int:
    """Run the consistent-hashing balancer in front of replicas."""
    from .service.router import RouterService

    router = RouterService(
        args.replica,
        host=args.host,
        port=args.port,
        probe_interval=args.probe_interval,
        probe_timeout=args.probe_timeout,
        proxy_timeout=args.proxy_timeout,
        vnodes=args.vnodes,
        access_log=args.access_log,
    )
    alive = router.registry.probe_all()
    print(
        f"repro router listening on {router.url} "
        f"({alive}/{len(router.registry.urls)} replica(s) alive, "
        f"{args.vnodes} vnodes/replica)"
    )
    for url in router.registry.urls:
        state = "alive" if router.registry.is_alive(url) else "DEAD"
        print(f"  replica {url}: {state}")
    print("endpoints: /healthz /metrics /jobs (proxied; see docs/service.md)")
    router.serve_forever()
    print("router stopped")
    return 0


def cmd_catalog(args) -> int:
    from .circuits import build, catalog

    for name in catalog():
        bench = build(name)
        print(
            f"{name:16s} {bench.n_opamps} opamp(s), f0 ~ "
            f"{bench.f0_hz:,.0f} Hz - {bench.description}"
        )
    return 0


def cmd_demo(args) -> int:
    from .circuits import build

    bench = build(args.name)
    print(f"running the full flow on {bench.name!r}")
    from .experiments.exp_scaling import analyze_circuit

    outcome = analyze_circuit(
        bench, epsilon=args.epsilon, deviation=args.deviation
    )
    matrix = outcome["matrix"]
    print(render_detectability_matrix(matrix))
    print()
    print(outcome["optimized"].render())
    return 0


def _names(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def declared_flags(p, kind: str, names: Sequence[str]) -> None:
    """Add flags for the params ``names`` of operation ``kind``.

    Type, default, help and choices come from the declaration in
    :mod:`repro.operations`; :func:`main` applies its check to the
    parsed value, on every subcommand that carries the flag.  A boolean
    that defaults to true becomes a ``--no-...`` flag.
    """
    params = {param.name: param for param in OPERATIONS[kind].params}
    for name in names:
        param = params[name]
        flag = "--" + name.replace("_", "-")
        if param.type is bool and param.default:
            p.add_argument(
                "--no-" + flag[2:], dest=name, action="store_false",
                help=f"skip {param.help}",
            )
        elif param.type is bool:
            p.add_argument(flag, action="store_true", help=param.help)
        else:
            shown = param.default
            if isinstance(shown, float):
                shown = f"{shown:g}"
            p.add_argument(
                flag,
                type=_names if param.type is list else param.type,
                default=param.default,
                choices=param.choices or None,
                help=param.help
                + ("" if shown is None else f" (default {shown})"),
            )
    p.set_defaults(
        declared=(p.get_default("declared") or ())
        + tuple(params[name] for name in names)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="multi-configuration DFT optimization for analog "
        "circuits (DATE 1998 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, netlist=True):
        if netlist:
            p.add_argument("netlist", help="netlist file")
        declared_flags(
            p, "faultsim", ("epsilon", "deviation", "f0", "decades", "ppd")
        )

    p_analyze = sub.add_parser("analyze", help="AC / pole / TF summary")
    common(p_analyze)
    p_analyze.set_defaults(handler=cmd_analyze)

    def seed_flag(p):
        p.add_argument(
            "--seed", type=int, default=None,
            help="PRNG seed for exact reproducibility (default: fresh "
            "entropy)",
        )

    p_faultsim = sub.add_parser(
        "faultsim", help="fault x configuration campaign"
    )
    common(p_faultsim)
    campaign_flags(p_faultsim)
    declared_flags(p_faultsim, "faultsim", ("n_detect", "saturate"))
    p_faultsim.set_defaults(handler=cmd_faultsim)

    def operation(name, kind, show, **kwargs):
        """The subcommand of one declared operation: its flags come
        from the declaration, and ``cmd_operation`` runs it."""
        p = sub.add_parser(name, **kwargs)
        names = [param.name for param in OPERATIONS[kind].params]
        if "target" in names:
            p.add_argument(
                "target", help="netlist file or catalog circuit name"
            )
        declared_flags(
            p, kind, [n for n in names if n not in ("target", "netlist")]
        )
        p.set_defaults(handler=cmd_operation, kind=kind, show=show)
        return p

    p_campaign = operation(
        "campaign", "faultsim", _show_campaign,
        help="planned / parallel / resumable fault-simulation campaign",
    )
    campaign_flags(p_campaign)
    p_campaign.add_argument(
        "--matrix", action="store_true",
        help="also print the detectability matrix",
    )

    p_ndetect = sub.add_parser(
        "ndetect",
        help="n-detection sweep: covers, robustness margins, Pareto "
        "front (docs/ndetection.md)",
    )
    p_ndetect.add_argument(
        "target", help="netlist file or catalog circuit name"
    )
    common(p_ndetect, netlist=False)
    p_ndetect.add_argument(
        "--max-n", dest="max_n", type=int, default=None, metavar="N",
        help="sweep n_detect = 1..N (default: up to the largest "
        "feasible n)",
    )
    p_ndetect.add_argument(
        "--solver", choices=["exact", "greedy"], default="exact",
        help="cover solver per swept n (default exact)",
    )
    declared_flags(p_ndetect, "faultsim", ("saturate",))
    p_ndetect.add_argument(
        "--calibrate", choices=["none", "corners", "montecarlo"],
        default="none",
        help="derive the robustness noise floor from the tolerance "
        "engine (default none: floor 0)",
    )
    declared_flags(p_ndetect, "tolerance", ("tolerance",))
    p_ndetect.add_argument(
        "--report", action="store_true",
        help="also print the per-fault robustness report of each cover",
    )
    p_ndetect.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the sweep (ndetect-sweep-v1) to PATH as JSON",
    )
    p_ndetect.set_defaults(handler=cmd_ndetect)

    p_verify = operation(
        "verify", "verify", _show_verify,
        help="differential oracle: production engine vs scalar reference "
        "vs MNA vs transfer fit + metamorphic invariants",
    )
    p_verify.add_argument(
        "--case-seed", type=int, action="append", default=None,
        metavar="S",
        help="replay the exact case a mismatch report printed as "
        "seed=S (repeatable)",
    )
    p_verify.add_argument(
        "--json", default=None,
        help="write the report, with its mismatches, as JSON to this file",
    )
    p_verify.add_argument(
        "--progress", dest="print_cases", action="store_true",
        help="print each case before it runs",
    )

    p_escape = sub.add_parser(
        "escape", help="Monte Carlo test-escape / yield-loss estimation"
    )
    common(p_escape)
    p_escape.add_argument(
        "--tolerance", type=float, default=0.02,
        help="good-component process tolerance (default 0.02)",
    )
    p_escape.add_argument(
        "--samples", type=int, default=50,
        help="Monte Carlo samples per fault (default 50)",
    )
    seed_flag(p_escape)
    p_escape.set_defaults(handler=cmd_escape)

    p_montecarlo = sub.add_parser(
        "montecarlo",
        help="Monte Carlo process-tolerance analysis (the epsilon floor)",
    )
    common(p_montecarlo)
    declared_flags(
        p_montecarlo, "tolerance", ("tolerance", "samples", "distribution")
    )
    seed_flag(p_montecarlo)
    p_montecarlo.set_defaults(handler=cmd_montecarlo)

    p_tolerance = operation(
        "tolerance", "tolerance", _show_tolerance,
        help="catalog-scale epsilon-calibration campaign (batched "
        "tolerance engine)",
    )
    p_tolerance.add_argument(
        "--json", default=None,
        help="write the calibration report as JSON to this file",
    )
    campaign_flags(p_tolerance)

    p_diagnose = operation(
        "diagnose", "diagnose", _show_diagnose,
        help="parametric fault location: trajectory dictionary + "
        "nearest-trajectory matcher (see docs/diagnosis.md)",
    )
    p_diagnose.add_argument(
        "--json", default=None,
        help="write the dictionary summary + diagnosis as JSON",
    )
    campaign_flags(p_diagnose)

    p_optimize = sub.add_parser(
        "optimize", help="full optimization flow + test program"
    )
    common(p_optimize)
    p_optimize.add_argument(
        "--json", default=None, help="write the test program as JSON"
    )
    p_optimize.set_defaults(handler=cmd_optimize)

    p_noise = sub.add_parser(
        "noise", help="output noise spectrum and contributors"
    )
    common(p_noise)
    p_noise.add_argument(
        "--en", type=float, default=0.0,
        help="opamp input noise density in V/rtHz (default 0)",
    )
    p_noise.set_defaults(handler=cmd_noise)

    p_serve = sub.add_parser(
        "serve",
        help="long-running job server (faultsim / tolerance / verify "
        "jobs over HTTP; see docs/service.md)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8321,
        help="TCP port (0 picks an ephemeral port; default 8321)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=16,
        help="queued jobs before submissions get 429 (default 16)",
    )
    p_serve.add_argument(
        "--job-timeout", type=float, default=None,
        help="default per-job time budget in seconds (cooperative; "
        "a job's timeout_s param overrides it)",
    )
    p_serve.add_argument(
        "--retry-after", type=float, default=1.0,
        help="Retry-After hint on 429 responses in seconds (default 1)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="scheduler worker threads executing jobs concurrently "
        "(default 1)",
    )
    p_serve.add_argument(
        "--keep-jobs", type=int, default=256,
        help="full terminal job records kept in memory before the "
        "oldest collapse to tombstones (default 256)",
    )
    p_serve.add_argument(
        "--tombstone-ttl", type=float, default=900.0,
        help="seconds a pruned job's terminal state stays resolvable "
        "through its tombstone (default 900; 0 disables)",
    )
    p_serve.add_argument(
        "--access-log", default=None,
        help="append structured JSON access logs to this file",
    )
    campaign_flags(p_serve, progress=False)
    p_serve.set_defaults(handler=cmd_serve)

    p_route = sub.add_parser(
        "route",
        help="consistent-hashing balancer in front of serve replicas "
        "(see docs/service.md)",
    )
    p_route.add_argument(
        "--replica", action="append", required=True, metavar="URL",
        help="base URL of a repro serve replica (repeatable)",
    )
    p_route.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p_route.add_argument(
        "--port", type=int, default=8320,
        help="TCP port (0 picks an ephemeral port; default 8320)",
    )
    p_route.add_argument(
        "--probe-interval", type=float, default=5.0,
        help="seconds between background /healthz liveness sweeps "
        "(default 5; 0 disables)",
    )
    p_route.add_argument(
        "--probe-timeout", type=float, default=2.0,
        help="per-probe socket timeout in seconds (default 2)",
    )
    p_route.add_argument(
        "--proxy-timeout", type=float, default=30.0,
        help="proxied-request socket timeout in seconds (default 30)",
    )
    p_route.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual ring points per replica (default 64)",
    )
    p_route.add_argument(
        "--access-log", default=None,
        help="append structured JSON access logs to this file",
    )
    p_route.set_defaults(handler=cmd_route)

    p_catalog = sub.add_parser("catalog", help="list library circuits")
    p_catalog.set_defaults(handler=cmd_catalog)

    p_demo = sub.add_parser("demo", help="flow on a library circuit")
    p_demo.add_argument("name", help="catalog name (see 'catalog')")
    common(p_demo, netlist=False)
    p_demo.set_defaults(handler=cmd_demo)

    return parser


def main(argv=None) -> int:
    """Parse and dispatch; typed failures exit 1 with one line on stderr.

    Every library error derives from :class:`~repro.errors.ReproError`
    (:class:`~repro.errors.AnalysisError`,
    :class:`~repro.errors.SingularCircuitError`, campaign, service and
    netlist errors included), so no subcommand ever surfaces a
    traceback for a malformed or unsolvable input — the error class
    name prefixes the message so the failure mode stays identifiable.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for param in getattr(args, "declared", ()):
            reason = violation(param, getattr(args, param.name))
            if reason is not None:
                raise JobValidationError(
                    f"{args.command}: {param.name} {reason}"
                )
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # unreadable netlists, unwritable reports, ports in use, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
