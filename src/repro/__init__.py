"""repro — the multi-configuration DFT optimization technique, rebuilt.

A full-stack Python reproduction of *"Optimized Implementations of the
Multi-Configuration DFT Technique for Analog Circuits"* (M. Renovell,
F. Azaïs, Y. Bertrand — DATE 1998):

* :mod:`repro.circuit` — analog circuit representation (elements,
  netlists, opamp models, validation, SPICE-flavoured I/O);
* :mod:`repro.analysis` — the MNA-based AC simulation engine replacing
  the paper's HSPICE runs (sweeps, poles, sensitivities, Monte Carlo);
* :mod:`repro.faults` — fault models, fault universes and the
  fault × configuration simulation engine;
* :mod:`repro.dft` — the multi-configuration DFT transformation
  (configurable opamps, configuration vectors, emulation);
* :mod:`repro.core` — the paper's contribution: testability metrics
  (fault detectability, ω-detectability), the covering formulation,
  Petrick's method, cost functions, and the ordered-requirement
  optimization pipeline, plus extensions (test-frequency selection,
  structural configuration pre-selection);
* :mod:`repro.diagnosis` — parametric fault location: trajectory
  dictionaries and nearest-trajectory matching with ambiguity sets;
* :mod:`repro.circuits` — a library of opamp-based benchmark circuits;
* :mod:`repro.data` — the paper's published matrices for exact replays;
* :mod:`repro.experiments` — one driver per paper table and figure.

Quickstart::

    from repro import quick_optimize
    from repro.circuits import benchmark_biquad

    outcome = quick_optimize(benchmark_biquad())
    print(outcome.render())
"""

from __future__ import annotations

from . import (
    analysis,
    campaign,
    circuit,
    circuits,
    core,
    data,
    dft,
    diagnosis,
    experiments,
    faults,
)
from .analysis import FrequencyGrid, ac_analysis, decade_grid
from .campaign import (
    CampaignTelemetry,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
)
from .circuit import Circuit, OpAmp, OpAmpModel, parse_netlist
from .circuits import BenchmarkCircuit
from .core import (
    AverageOmegaDetectability,
    ConfigurationCount,
    ConfigurableOpampCount,
    DftOptimizer,
    FaultDetectabilityMatrix,
    OmegaDetectabilityTable,
    solve_covering,
)
from .dft import Configuration, apply_multiconfiguration
from .errors import ReproError
from .faults import SimulationSetup, deviation_faults, simulate_faults

__version__ = "1.0.0"

__all__ = [
    "AverageOmegaDetectability",
    "BenchmarkCircuit",
    "CampaignTelemetry",
    "Circuit",
    "Configuration",
    "ConfigurableOpampCount",
    "ConfigurationCount",
    "DftOptimizer",
    "FaultDetectabilityMatrix",
    "FrequencyGrid",
    "OmegaDetectabilityTable",
    "OpAmp",
    "OpAmpModel",
    "ParallelExecutor",
    "ReproError",
    "ResultCache",
    "SerialExecutor",
    "SimulationSetup",
    "ac_analysis",
    "analysis",
    "apply_multiconfiguration",
    "campaign",
    "circuit",
    "circuits",
    "core",
    "data",
    "decade_grid",
    "deviation_faults",
    "dft",
    "experiments",
    "faults",
    "parse_netlist",
    "quick_optimize",
    "simulate_faults",
    "solve_covering",
]


def quick_optimize(
    bench: "BenchmarkCircuit",
    epsilon: float = 0.10,
    deviation: float = 0.20,
    points_per_decade: int = 40,
):
    """One-call DFT optimization of a benchmark circuit.

    Runs the complete flow — DFT instrumentation, fault simulation over
    all configurations, covering, configuration-count optimization with
    the ω-detectability tie-breaker — and returns the
    :class:`~repro.core.optimizer.OptimizationResult`.
    """
    from .experiments.exp_scaling import analyze_circuit

    outcome = analyze_circuit(
        bench,
        epsilon=epsilon,
        deviation=deviation,
        points_per_decade=points_per_decade,
    )
    return outcome["optimized"]
