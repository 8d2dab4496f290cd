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
    python -m repro catalog                       # library circuits
    python -m repro demo biquad                   # flow on a library circuit

Netlists use the dialect of :mod:`repro.circuit.netlist_io`; the DFT
chain is discovered automatically (every opamp, in card order) and the
reference region is centred on the dominant pole pair unless ``--f0``
overrides it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .analysis import ac_analysis, circuit_poles, decade_grid
from .analysis.noise import noise_analysis
from .analysis.transfer import extract_transfer_function
from .circuit import Circuit, parse_netlist, validate_circuit
from .core import (
    AverageOmegaDetectability,
    ConfigurationCount,
    DftOptimizer,
    select_test_frequencies,
)
from .core.testprogram import generate_test_program
from .dft import apply_multiconfiguration
from .errors import ReproError
from .faults import SimulationSetup, deviation_faults, simulate_faults
from .reporting import render_detectability_matrix, render_omega_table


def _load_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as handle:
        circuit = parse_netlist(handle.read())
    validate_circuit(circuit)
    return circuit


def _center_frequency(circuit: Circuit, override: Optional[float]) -> float:
    from .service.jobs import center_frequency

    return center_frequency(circuit, override)


def _grid(circuit: Circuit, args) -> object:
    return decade_grid(
        _center_frequency(circuit, args.f0),
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


def _campaign_parts(args, cache_factory=None, persistent=False):
    """(executor, cache, telemetry) from the campaign CLI flags.

    The one shared interpretation of ``campaign_flags`` — ``faultsim``,
    ``optimize``, ``campaign``, ``tolerance`` and ``serve`` all build
    their runtime pieces here, so the flags cannot drift between
    subcommands.  All three are ``None`` when no campaign flag was
    given, keeping the historical in-process path.

    Parameters
    ----------
    cache_factory:
        ``directory -> cache`` constructor (default
        :class:`~repro.campaign.ResultCache`); the tolerance campaign
        passes :func:`~repro.campaign.tolerance_cache` because its
        payloads are not UnitResults.
    persistent:
        Build a parallel executor whose process pool survives across
        runs (the job server's mode); call ``executor.close()`` when
        done.
    """
    jobs = getattr(args, "jobs", None)
    cache_dir = _resolve_cache_dir(args)
    trace = getattr(args, "trace", None)
    progress = bool(getattr(args, "progress", False))

    executor = cache = telemetry = None
    if jobs is not None:
        from .campaign import make_executor

        executor = make_executor(
            jobs=jobs,
            timeout=getattr(args, "timeout", None),
            persistent=persistent,
        )
    if cache_dir is not None:
        if cache_factory is None:
            from .campaign import ResultCache as cache_factory

        cache = cache_factory(cache_dir)
    if trace is not None or progress:
        from .campaign import CampaignTelemetry

        telemetry = CampaignTelemetry(trace_path=trace, progress=progress)
    return executor, cache, telemetry


def campaign_flags(p):
    """Attach the shared campaign flags (interpreted by
    :func:`_campaign_parts`) to a subparser."""
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


def _resolve_target(target: str, f0_override: Optional[float]):
    """(circuit, f0) for a netlist path or catalog circuit name."""
    import os.path

    from .circuits import catalog

    if os.path.exists(target):
        circuit = _load_circuit(target)
        return circuit, _center_frequency(circuit, f0_override)
    if target in catalog():
        from .circuits import build

        bench = build(target)
        f0 = f0_override if f0_override is not None else bench.f0_hz
        return bench.circuit, f0
    raise ReproError(
        f"{target!r} is neither a netlist file nor a catalog "
        f"circuit (see 'python -m repro catalog')"
    )


def cmd_campaign(args) -> int:
    """Run a fault-simulation campaign through the campaign engine."""
    from .campaign import CampaignTelemetry, plan_campaign, execute_plan

    circuit, f0 = _resolve_target(args.target, args.f0)

    mcc = apply_multiconfiguration(circuit)
    faults = deviation_faults(circuit, deviation=args.deviation)
    grid = decade_grid(
        f0,
        decades_below=args.decades,
        decades_above=args.decades,
        points_per_decade=args.ppd,
    )
    setup = SimulationSetup(grid=grid, epsilon=args.epsilon)

    plan = plan_campaign(mcc, faults, setup, chunk_size=args.chunk)
    executor, cache, telemetry = _campaign_parts(args)
    if telemetry is None:
        telemetry = CampaignTelemetry()
    try:
        dataset = execute_plan(
            plan, executor=executor, cache=cache, telemetry=telemetry
        )
    finally:
        telemetry.close()

    print(plan.describe())
    summary = telemetry.summary()
    print(
        f"done: {summary['units_done']}/{summary['units_total']} units, "
        f"{summary['cache_hits']} cache hit(s), {summary['solves']} AC "
        f"solve(s), {summary['retries']} retry(ies) in "
        f"{summary['wall_s']:.2f}s wall / {summary['cpu_s']:.2f}s cpu"
    )
    if cache is not None:
        print(f"cache: {cache!r}")
    matrix = dataset.detectability_matrix()
    coverage = matrix.fault_coverage()
    print(
        f"fault coverage (all configurations): {100 * coverage:.0f}% "
        f"({matrix.n_faults - len(matrix.undetectable_faults())}"
        f"/{matrix.n_faults} faults)"
    )
    if args.matrix:
        print()
        print(render_detectability_matrix(matrix))
    _print_ndetect_cover(dataset, matrix, args)
    return 0


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

    circuit, f0 = _resolve_target(args.target, args.f0)
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


def cmd_verify(args) -> int:
    """Differential-oracle sweep: production vs reference vs MNA vs fit."""
    from .verify import Tolerances, run_verification

    circuits = (
        [name.strip() for name in args.circuits.split(",") if name.strip()]
        if args.circuits is not None
        else None
    )
    tolerances = Tolerances()

    def progress(case):
        print(f"checking {case.describe()}")

    report = run_verification(
        circuits=circuits,
        n_random=args.random,
        seed=args.seed,
        case_seeds=args.case_seed,
        epsilon=args.epsilon,
        points_per_decade=args.ppd,
        tolerances=tolerances,
        invariants=not args.no_invariants,
        progress=progress if args.progress else None,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"verification report written to {args.json}")
    print(report.summary())
    return 0 if report.passed else 1


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


def cmd_tolerance(args) -> int:
    """Catalog-scale ε-calibration campaign (suggested ε per circuit)."""
    from .campaign import (
        CampaignTelemetry,
        execute_tolerance_plan,
        plan_tolerance_campaign,
        tolerance_cache,
    )

    names = (
        [n.strip() for n in args.circuits.split(",") if n.strip()]
        if args.circuits is not None
        else None
    )
    plan = plan_tolerance_campaign(
        names=names,
        tolerance=args.tolerance,
        n_samples=args.samples,
        distribution=args.distribution,
        seed=args.seed,
        percentile=args.percentile,
        decades=args.decades,
        points_per_decade=args.ppd,
        corners=not args.no_corners,
        max_corner_components=args.max_corner_components,
    )
    # a dedicated cache factory: tolerance payloads are not UnitResults
    executor, cache, telemetry = _campaign_parts(
        args, cache_factory=tolerance_cache
    )
    if telemetry is None:
        telemetry = CampaignTelemetry()
    try:
        report = execute_tolerance_plan(
            plan, executor=executor, cache=cache, telemetry=telemetry
        )
    finally:
        telemetry.close()
    print(report.render())
    if cache is not None:
        print(f"cache: {cache!r}")
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
        print(f"tolerance report written to {args.json}")
    return 0


def cmd_diagnose(args) -> int:
    """Build a trajectory dictionary; optionally locate a seeded fault."""
    from .campaign import CampaignTelemetry
    from .diagnosis import (
        deviation_grid,
        diagnosis_cache,
        execute_diagnosis_plan,
        locate_fault,
        plan_diagnosis_campaign,
    )
    from .faults.model import DeviationFault

    if (args.component is None) != (args.fault_deviation is None):
        raise ReproError(
            "--component and --fault-deviation describe one seeded "
            "fault and must be given together"
        )

    circuit, f0 = _resolve_target(args.target, args.f0)
    mcc = apply_multiconfiguration(circuit)
    grid = decade_grid(
        f0,
        decades_below=args.decades,
        decades_above=args.decades,
        points_per_decade=args.ppd,
    )
    deviations = deviation_grid(span=args.span, steps=args.steps)
    plan = plan_diagnosis_campaign(mcc, grid, deviations=deviations)
    # diagnosis payloads are not UnitResults: dedicated cache factory
    executor, cache, telemetry = _campaign_parts(
        args, cache_factory=diagnosis_cache
    )
    if telemetry is None:
        telemetry = CampaignTelemetry()
    try:
        dictionary = execute_diagnosis_plan(
            plan, executor=executor, cache=cache, telemetry=telemetry
        )
    finally:
        telemetry.close()

    print(plan.describe())
    print(
        f"{dictionary.describe()}; {dictionary.n_solves} AC solve(s), "
        f"{dictionary.n_factorizations} factorization(s), deviation "
        f"step {dictionary.deviation_step:g}"
    )
    if cache is not None:
        print(f"cache: {cache!r}")

    payload = {
        "f0_hz": f0,
        "distance": args.distance,
        "n_configs": dictionary.n_configs,
        "n_components": len(dictionary.components),
        "n_deviations": len(dictionary.deviations),
        "n_trajectory_points": dictionary.n_points,
        "deviation_step": dictionary.deviation_step,
        "n_solves": dictionary.n_solves,
        "n_factorizations": dictionary.n_factorizations,
        "diagnosis": None,
    }
    if args.component is not None:
        if args.component not in dictionary.components:
            raise ReproError(
                f"component {args.component!r} is not a passive of the "
                f"circuit (have {list(dictionary.components)})"
            )
        fault = DeviationFault(args.component, args.fault_deviation)
        diagnosis = locate_fault(
            dictionary,
            mcc,
            fault,
            metric=args.distance,
            ambiguity_tolerance=args.ambiguity,
            epsilon=args.epsilon,
        )
        print()
        print(
            f"injected {args.component} {args.fault_deviation:+.1%}; "
            "located:"
        )
        print(diagnosis.render())
        report = diagnosis.to_json()
        report["injected"] = diagnosis.evaluate(
            args.component, args.fault_deviation
        )
        payload["diagnosis"] = report
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"diagnosis report written to {args.json}")
    return 0


def cmd_serve(args) -> int:
    """Run the long-running job server over the campaign stack."""
    from .campaign import CampaignTelemetry
    from .service import ReproService, ServiceRuntime

    # the serve runtime is built from the exact same campaign flags the
    # batch subcommands use, via the same helper — no drift possible
    executor, _, _ = _campaign_parts(args, persistent=True)
    if args.pool_per_worker and args.workers > 1 and executor is not None:
        from .campaign import make_executor

        executor = [executor] + [
            make_executor(
                jobs=args.jobs,
                timeout=getattr(args, "timeout", None),
                persistent=True,
            )
            for _ in range(args.workers - 1)
        ]
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
    pools = len(runtime.executors)
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


def _cmd_loadtest_replicated(args) -> int:
    """The ``--replicas N`` path: self-hosted servers behind a router."""
    import json
    import time as time_module

    from .service.loadtest import loadtest_document, run_replicated_loadtest

    started_at = time_module.time()
    replicated = run_replicated_loadtest(
        replicas=args.replicas,
        mix=args.mix,
        n_jobs=args.count,
        concurrency=args.concurrency,
        seed=args.seed,
        workers=args.workers,
        job_timeout=args.job_timeout,
        request_timeout=args.request_timeout,
        baseline=not args.no_baseline,
    )
    report = replicated.report
    latency = report.latency_ms
    print(
        f"{args.replicas} replica(s) x {args.workers} worker(s): "
        f"{report.jobs_per_s:.3f} jobs/s, "
        f"p50 {latency['p50']:.0f}ms p95 {latency['p95']:.0f}ms, "
        f"states {report.states}"
    )
    hit = replicated.routing_hit_ratio
    print(
        "routing hit ratio: "
        + (f"{hit:.3f}" if hit is not None else "n/a")
    )
    stats = replicated.router_stats
    print(
        f"  {stats.get('jobs_routed', 0):.0f} routed, "
        f"{stats.get('ring_hits', 0):.0f} ring hits, "
        f"{stats.get('failovers', 0):.0f} failovers, "
        f"{stats.get('cross_lookups', 0):.0f} cross-replica lookups"
    )
    for url, jps in sorted(replicated.per_replica_jobs_per_s.items()):
        routed = replicated.routed_by_replica.get(url, 0)
        print(f"  {url}: {routed} job(s), {jps:.3f} jobs/s")
    if replicated.scale_out_efficiency is not None:
        print(
            f"scale-out: baseline {replicated.baseline_jobs_per_s:.3f} "
            f"jobs/s x1, efficiency "
            f"{replicated.scale_out_efficiency:.3f}"
        )
    document = loadtest_document("replicated", [report], started_at)
    document["replication"] = replicated.to_json()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2)
        print(f"loadtest report written to {args.out}")
    return 0 if report.ok else 1


def cmd_loadtest(args) -> int:
    """Replay a deterministic job mix against a running server."""
    import json
    import time as time_module

    from .service.loadtest import loadtest_document, run_loadtest

    if args.replicas is not None:
        if args.url is not None:
            from .errors import ServiceError

            raise ServiceError(
                "--replicas spawns its own servers; drop the url "
                "argument (or drop --replicas to target a running "
                "server)"
            )
        return _cmd_loadtest_replicated(args)
    if args.url is None:
        from .errors import ServiceError

        raise ServiceError(
            "a server url is required (or pass --replicas N for a "
            "self-hosted replicated run)"
        )

    steps = (
        [int(part) for part in args.ramp.split(",") if part.strip()]
        if args.ramp
        else [args.concurrency]
    )
    if not steps or any(step < 1 for step in steps):
        from .errors import ServiceError

        raise ServiceError(
            f"--ramp must list concurrency steps >= 1, got {args.ramp!r}"
        )
    started_at = time_module.time()
    runs = []
    for step in steps:
        report = run_loadtest(
            args.url,
            mix=args.mix,
            n_jobs=args.count,
            concurrency=step,
            rps=args.rps,
            seed=args.seed,
            job_timeout=args.job_timeout,
            request_timeout=args.request_timeout,
        )
        runs.append(report)
        latency = report.latency_ms
        print(
            f"concurrency {step}: {report.jobs_per_s:.3f} jobs/s, "
            f"p50 {latency['p50']:.0f}ms p95 {latency['p95']:.0f}ms "
            f"p99 {latency['p99']:.0f}ms, "
            f"{report.rejected_429} rejections, "
            f"states {report.states}"
        )
    document = loadtest_document(args.url, runs, started_at)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2)
        print(f"loadtest report written to {args.out}")
    print(
        f"saturation: {document['saturation_jobs_per_s']:.3f} jobs/s; "
        f"unit cache hit ratio: {document['unit_cache_hit_ratio']}"
    )
    return 0 if all(run.ok for run in runs) else 1


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="multi-configuration DFT optimization for analog "
        "circuits (DATE 1998 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag defaults come from the service job specs, so a `faultsim`
    # shell run and a submitted faultsim job can never disagree
    from .service.jobs import FAULTSIM_PARAMS

    def job_default(name):
        return FAULTSIM_PARAMS[name][1]

    def common(p, netlist=True):
        if netlist:
            p.add_argument("netlist", help="netlist file")
        p.add_argument(
            "--epsilon", type=float, default=job_default("epsilon"),
            help=f"detection tolerance (default {job_default('epsilon')})",
        )
        p.add_argument(
            "--deviation", type=float, default=job_default("deviation"),
            help=f"fault deviation (default +{job_default('deviation')})",
        )
        p.add_argument(
            "--f0", type=float, default=None,
            help="reference-region centre in Hz (default: from poles)",
        )
        p.add_argument(
            "--decades", type=float, default=job_default("decades"),
            help=f"decades each side of f0 "
            f"(default {job_default('decades'):g})",
        )
        p.add_argument(
            "--ppd", type=int, default=job_default("ppd"),
            help=f"grid points per decade (default {job_default('ppd')})",
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

    def ndetect_flags(p):
        p.add_argument(
            "--n-detect", dest="n_detect", type=int,
            default=job_default("n_detect"), metavar="N",
            help="require every fault to be detected by >= N retained "
            f"configurations (default {job_default('n_detect')}; see "
            "docs/ndetection.md)",
        )
        p.add_argument(
            "--saturate", action="store_true",
            help="best-effort n-detection: clamp a fault's requirement "
            "to its detecting-configuration count instead of failing",
        )

    p_faultsim = sub.add_parser(
        "faultsim", help="fault x configuration campaign"
    )
    common(p_faultsim)
    campaign_flags(p_faultsim)
    ndetect_flags(p_faultsim)
    p_faultsim.set_defaults(handler=cmd_faultsim)

    p_campaign = sub.add_parser(
        "campaign",
        help="planned / parallel / resumable fault-simulation campaign",
    )
    p_campaign.add_argument(
        "target", help="netlist file or catalog circuit name"
    )
    common(p_campaign, netlist=False)
    campaign_flags(p_campaign)
    p_campaign.add_argument(
        "--chunk", type=int, default=None,
        help="faults per work unit (default: whole configuration)",
    )
    p_campaign.add_argument(
        "--matrix", action="store_true",
        help="also print the detectability matrix",
    )
    ndetect_flags(p_campaign)
    p_campaign.set_defaults(handler=cmd_campaign)

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
    p_ndetect.add_argument(
        "--saturate", action="store_true",
        help="best-effort n-detection: clamp a fault's requirement to "
        "its detecting-configuration count instead of failing",
    )
    p_ndetect.add_argument(
        "--calibrate", choices=["none", "corners", "montecarlo"],
        default="none",
        help="derive the robustness noise floor from the tolerance "
        "engine (default none: floor 0)",
    )
    p_ndetect.add_argument(
        "--tolerance", type=float, default=0.05,
        help="component tolerance for --calibrate (default 0.05)",
    )
    p_ndetect.add_argument(
        "--report", action="store_true",
        help="also print the per-fault robustness report of each cover",
    )
    p_ndetect.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the sweep (ndetect-sweep-v1) to PATH as JSON",
    )
    p_ndetect.set_defaults(handler=cmd_ndetect)

    p_verify = sub.add_parser(
        "verify",
        help="differential oracle: production engine vs scalar reference "
        "vs MNA vs transfer fit + metamorphic invariants",
    )
    p_verify.add_argument(
        "--circuits", default=None,
        help="comma-separated catalog names (default: whole catalog)",
    )
    p_verify.add_argument(
        "--random", type=int, default=0, metavar="N",
        help="append N randomized perturbed-circuit cases",
    )
    seed_flag(p_verify)
    p_verify.add_argument(
        "--case-seed", type=int, action="append", default=None,
        metavar="S",
        help="replay the exact case a mismatch report printed as "
        "seed=S (repeatable)",
    )
    p_verify.add_argument(
        "--epsilon", type=float, default=0.10,
        help="detection tolerance (default 0.10)",
    )
    p_verify.add_argument(
        "--ppd", type=int, default=20,
        help="grid points per decade for catalog cases (default 20)",
    )
    p_verify.add_argument(
        "--json", default=None,
        help="write the structured mismatch report to this file",
    )
    p_verify.add_argument(
        "--no-invariants", action="store_true",
        help="skip the metamorphic invariants (differential checks only)",
    )
    p_verify.add_argument(
        "--progress", action="store_true",
        help="print each case before it runs",
    )
    p_verify.set_defaults(handler=cmd_verify)

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
    p_montecarlo.add_argument(
        "--tolerance", type=float, default=0.05,
        help="component tolerance to sample (default 0.05)",
    )
    p_montecarlo.add_argument(
        "--samples", type=int, default=200,
        help="Monte Carlo samples (default 200)",
    )
    p_montecarlo.add_argument(
        "--distribution", choices=["uniform", "normal"],
        default="uniform", help="sampling distribution (default uniform)",
    )
    seed_flag(p_montecarlo)
    p_montecarlo.set_defaults(handler=cmd_montecarlo)

    p_tolerance = sub.add_parser(
        "tolerance",
        help="catalog-scale epsilon-calibration campaign (batched "
        "tolerance engine)",
    )
    p_tolerance.add_argument(
        "--circuits", default=None,
        help="comma-separated catalog names (default: whole catalog)",
    )
    p_tolerance.add_argument(
        "--tolerance", type=float, default=0.05,
        help="component tolerance to sample (default 0.05)",
    )
    p_tolerance.add_argument(
        "--samples", type=int, default=200,
        help="Monte Carlo samples per circuit (default 200)",
    )
    p_tolerance.add_argument(
        "--distribution", choices=["uniform", "normal"],
        default="uniform", help="sampling distribution (default uniform)",
    )
    p_tolerance.add_argument(
        "--percentile", type=float, default=95.0,
        help="percentile of per-sample maxima for the suggested epsilon "
        "(default 95)",
    )
    p_tolerance.add_argument(
        "--seed", type=int, default=2026,
        help="PRNG seed (fixed by default so cached units resume)",
    )
    p_tolerance.add_argument(
        "--decades", type=float, default=1.0,
        help="decades each side of each circuit's f0 (default 1)",
    )
    p_tolerance.add_argument(
        "--ppd", type=int, default=10,
        help="grid points per decade (default 10)",
    )
    p_tolerance.add_argument(
        "--no-corners", action="store_true",
        help="skip the 2^n corner-analysis pass",
    )
    p_tolerance.add_argument(
        "--max-corner-components", type=int, default=10,
        help="skip corners for circuits with more passives (default 10)",
    )
    p_tolerance.add_argument(
        "--json", default=None,
        help="write the calibration report as JSON to this file",
    )
    campaign_flags(p_tolerance)
    p_tolerance.set_defaults(handler=cmd_tolerance)

    # flag defaults come from the diagnose job spec, mirroring faultsim
    from .service.jobs import DIAGNOSE_PARAMS

    def diagnose_default(name):
        return DIAGNOSE_PARAMS[name][1]

    p_diagnose = sub.add_parser(
        "diagnose",
        help="parametric fault location: trajectory dictionary + "
        "nearest-trajectory matcher (see docs/diagnosis.md)",
    )
    p_diagnose.add_argument(
        "target", help="netlist file or catalog circuit name"
    )
    p_diagnose.add_argument(
        "--component", default=None,
        help="seed a fault on this component and locate it",
    )
    p_diagnose.add_argument(
        "--fault-deviation", type=float, default=None,
        help="relative deviation of the seeded fault (e.g. 0.33)",
    )
    p_diagnose.add_argument(
        "--epsilon", type=float, default=diagnose_default("epsilon"),
        help=f"detection tolerance for the fault-free test "
        f"(default {diagnose_default('epsilon')})",
    )
    p_diagnose.add_argument(
        "--span", type=float, default=diagnose_default("span"),
        help=f"deviation-grid half-width "
        f"(default {diagnose_default('span')})",
    )
    p_diagnose.add_argument(
        "--steps", type=int, default=diagnose_default("steps"),
        help=f"deviation-grid points per side "
        f"(default {diagnose_default('steps')})",
    )
    p_diagnose.add_argument(
        "--distance", choices=["relative", "band"],
        default=diagnose_default("distance"),
        help="trajectory distance metric (default relative, the "
        "paper's point-wise |dT/T|)",
    )
    p_diagnose.add_argument(
        "--ambiguity", type=float, default=diagnose_default("ambiguity"),
        help=f"ambiguity-set tolerance band "
        f"(default {diagnose_default('ambiguity')})",
    )
    p_diagnose.add_argument(
        "--f0", type=float, default=None,
        help="reference-region centre in Hz (default: from poles)",
    )
    p_diagnose.add_argument(
        "--decades", type=float, default=diagnose_default("decades"),
        help=f"decades each side of f0 "
        f"(default {diagnose_default('decades'):g})",
    )
    p_diagnose.add_argument(
        "--ppd", type=int, default=diagnose_default("ppd"),
        help=f"grid points per decade "
        f"(default {diagnose_default('ppd')})",
    )
    p_diagnose.add_argument(
        "--json", default=None,
        help="write the dictionary summary + diagnosis as JSON",
    )
    campaign_flags(p_diagnose)
    p_diagnose.set_defaults(handler=cmd_diagnose)

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
        "--pool-per-worker", action="store_true",
        help="give every worker its own persistent process pool of "
        "--jobs workers (default: one shared pool, leased to one "
        "job at a time)",
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
    campaign_flags(p_serve)
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

    p_loadtest = sub.add_parser(
        "loadtest",
        help="replay a job mix against a running server and measure "
        "tail latency / throughput (see docs/performance.md)",
    )
    p_loadtest.add_argument(
        "url", nargs="?", default=None,
        help="base URL of a running server (http://host:port); "
        "omit with --replicas",
    )
    p_loadtest.add_argument(
        "--replicas", type=int, default=None, metavar="N",
        help="spawn N in-process servers behind a router and measure "
        "routing hit ratio + scale-out efficiency (no url needed)",
    )
    p_loadtest.add_argument(
        "--workers", type=int, default=2,
        help="scheduler workers per spawned replica with --replicas "
        "(default 2)",
    )
    p_loadtest.add_argument(
        "--no-baseline", action="store_true",
        help="with --replicas: skip the 1-replica baseline run used "
        "for scale-out efficiency",
    )
    p_loadtest.add_argument(
        "--mix", default="smoke", choices=("smoke", "standard"),
        help="job mix to replay (default smoke)",
    )
    p_loadtest.add_argument(
        "--count", type=int, default=10,
        help="total jobs per concurrency step (default 10)",
    )
    p_loadtest.add_argument(
        "--concurrency", type=int, default=2,
        help="closed-loop clients keeping one job in flight (default 2)",
    )
    p_loadtest.add_argument(
        "--ramp", default=None,
        help="comma-separated concurrency steps (e.g. 1,2,4); "
        "overrides --concurrency, saturation is the best step",
    )
    p_loadtest.add_argument(
        "--rps", type=float, default=None,
        help="cap global submission rate (default: unpaced closed loop)",
    )
    p_loadtest.add_argument(
        "--seed", type=int, default=0,
        help="mix shuffle seed (default 0; same seed = same job list)",
    )
    p_loadtest.add_argument(
        "--job-timeout", type=float, default=300.0,
        help="per-job wait budget in seconds (default 300)",
    )
    p_loadtest.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="HTTP socket timeout in seconds (default 30)",
    )
    p_loadtest.add_argument(
        "--out", default=None,
        help="write the BENCH_service.json report here",
    )
    p_loadtest.set_defaults(handler=cmd_loadtest)

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
