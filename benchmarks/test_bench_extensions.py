"""Extension benches: the substrate capabilities beyond the paper.

These don't regenerate paper artefacts; they time and sanity-check the
extension engines on the paper's biquad — noise analysis (validated
against kT/C physics), the ε escape/yield trade-off, transient
steady-state agreement with AC, and transfer-function extraction.
"""

import numpy as np
import pytest

from repro.analysis import (
    decade_grid,
    extract_transfer_function,
    noise_analysis,
    sine,
    transfer_at,
    transient_analysis,
)
from repro.circuits import benchmark_biquad
from repro.faults import deviation_faults, escape_analysis


def test_bench_noise_analysis(benchmark):
    bench = benchmark_biquad()
    grid = decade_grid(bench.f0_hz, 2, 2, points_per_decade=20)
    result = benchmark(
        noise_analysis, bench.circuit, grid, en_v_per_rt_hz=10e-9
    )
    print()
    print(
        f"biquad output noise: "
        f"{1e6 * result.integrated_rms():.3g} uVrms; dominant at f0: "
        f"{result.dominant_contributor(bench.f0_hz)}"
    )
    # All contributor fractions sum to 1.
    total = sum(
        result.fraction_of(name) for name in result.contributions
    )
    assert total == pytest.approx(1.0)


def test_bench_escape_tradeoff(benchmark):
    bench = benchmark_biquad()
    grid = decade_grid(bench.f0_hz, 2, 2, points_per_decade=10)
    faults = deviation_faults(
        bench.circuit, 0.20, components=["R1", "R4"]
    )

    def run():
        return escape_analysis(
            bench.circuit,
            faults,
            grid,
            epsilon=0.10,
            tolerance=0.02,
            n_samples=20,
        )

    analysis = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(analysis.render())
    # At the paper's operating point with 2% parts: no yield loss and
    # the strong gain faults rarely escape.
    assert analysis.yield_loss == 0.0
    assert analysis.average_escape < 0.2


def test_bench_transient_vs_ac(benchmark):
    """Steady-state tone amplitude through C2 matches the AC engine."""
    bench = benchmark_biquad()
    mcc = bench.dft()
    from repro.dft import Configuration

    emulated = mcc.emulate(Configuration(2, 3))
    f = bench.f0_hz

    def run():
        return transient_analysis(
            emulated,
            {"Vin": sine(1.0, f)},
            t_stop=25.0 / f,
            dt=1.0 / (250.0 * f),
            outputs=["v3"],
        )

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    expected = abs(transfer_at(emulated, f))
    measured = result.amplitude("v3")
    print()
    print(
        f"transient amplitude {measured:.5f} V vs AC {expected:.5f} V"
    )
    assert measured == pytest.approx(expected, rel=0.02)


def test_bench_transfer_extraction(benchmark):
    bench = benchmark_biquad()
    tf = benchmark(extract_transfer_function, bench.circuit)
    print()
    print(tf.describe())
    assert tf.order == 2
    assert tf.dc_gain() == pytest.approx(-1.0, rel=1e-6)


def test_bench_noise_across_configurations(benchmark):
    """Noise spectra of all 7 configurations (the tester's view)."""
    bench = benchmark_biquad()
    mcc = bench.dft()
    grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=10)

    def run():
        return {
            config.label: noise_analysis(
                mcc.emulate(config), grid
            ).integrated_rms()
            for config in mcc.configurations()
        }

    noise_by_config = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for label, rms in noise_by_config.items():
        print(f"  {label}: {1e6 * rms:.3g} uVrms")
    assert len(noise_by_config) == 7
    assert all(v > 0 for v in noise_by_config.values())


def test_bench_fast_vs_standard_fault_simulation(benchmark):
    """The certified Sherman-Morrison engine against the paper's named
    bottleneck: the same matrix as the scalar reference's 63 per-fault
    sweeps, from one multi-RHS sweep per configuration."""
    import time

    from repro.faults import SimulationSetup, simulate_faults
    from repro.verify import reference_dataset

    bench = benchmark_biquad()
    mcc = bench.dft()
    faults = deviation_faults(bench.circuit, 0.20)
    setup = SimulationSetup(
        grid=decade_grid(bench.f0_hz, 2, 2, points_per_decade=100)
    )
    configs = mcc.configurations(
        include_functional=True, include_transparent=False
    )

    t0 = time.perf_counter()
    standard = reference_dataset(mcc, faults, setup, configs)
    t_standard = time.perf_counter() - t0

    fast = benchmark.pedantic(
        lambda: simulate_faults(mcc, faults, setup),
        rounds=3,
        iterations=1,
    )
    print()
    print(
        f"per-fault reference: {1e3 * t_standard:.0f} ms "
        f"({len(configs) * (1 + len(faults))} sweeps); production: "
        f"{fast.n_factorizations} factorizations, "
        f"{fast.sm_fallbacks} fallback(s)"
    )
    assert fast.n_factorizations == len(configs) * setup.grid.n_points
    assert fast.sm_fallbacks == 0
    assert np.array_equal(
        standard.detectability_matrix().data,
        fast.detectability_matrix().data,
    )
