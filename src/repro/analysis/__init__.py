"""Linear AC analysis engine (the HSPICE replacement)."""

from .ac import FrequencyResponse, ac_analysis, dc_gain, transfer_at
from .batched import (
    StampProgram,
    band_deviation_rows,
    relative_deviation_rows,
    scaled_values,
)
from .corners import CornerAnalysis, corner_analysis
from .kernel import KernelStats, SweepRequest, solve_sweep
from .mna import MnaSystem, Solution
from .montecarlo import (
    DISTRIBUTIONS,
    ToleranceAnalysis,
    epsilon_headroom,
    monte_carlo_tolerance,
    sample_factors,
)
from .noise import (
    BOLTZMANN,
    NoiseResult,
    kt_over_c,
    noise_analysis,
)
from .poles import (
    BiquadParameters,
    biquad_parameters,
    circuit_poles,
    dominant_pair,
    is_stable,
)
from .sensitivity import (
    SensitivityCurve,
    aggregate_sensitivity,
    component_sensitivity,
    rank_components,
    sensitivity_map,
)
from .sweep import FrequencyGrid, decade_grid
from .transfer import RationalTransferFunction, extract_transfer_function
from .transient import (
    TransientResult,
    multitone,
    pulse,
    sine,
    step,
    step_response,
    transient_analysis,
)

__all__ = [
    "BOLTZMANN",
    "BiquadParameters",
    "CornerAnalysis",
    "DISTRIBUTIONS",
    "FrequencyGrid",
    "FrequencyResponse",
    "KernelStats",
    "MnaSystem",
    "StampProgram",
    "SweepRequest",
    "NoiseResult",
    "RationalTransferFunction",
    "SensitivityCurve",
    "Solution",
    "ToleranceAnalysis",
    "TransientResult",
    "ac_analysis",
    "aggregate_sensitivity",
    "band_deviation_rows",
    "biquad_parameters",
    "circuit_poles",
    "component_sensitivity",
    "corner_analysis",
    "dc_gain",
    "decade_grid",
    "dominant_pair",
    "epsilon_headroom",
    "extract_transfer_function",
    "is_stable",
    "kt_over_c",
    "monte_carlo_tolerance",
    "noise_analysis",
    "multitone",
    "pulse",
    "rank_components",
    "relative_deviation_rows",
    "sample_factors",
    "scaled_values",
    "sensitivity_map",
    "sine",
    "solve_sweep",
    "step",
    "step_response",
    "transfer_at",
    "transient_analysis",
]
