"""Fault modelling, fault universes and the fault-simulation engine."""

from .escape import EscapeAnalysis, escape_analysis, escape_tradeoff_curve
from .model import (
    DeviationFault,
    Fault,
    MultipleFault,
    OpenFault,
    ShortFault,
)
from .simulator import (
    DetectabilityDataset,
    SimulationSetup,
    simulate_faults,
)
from .universe import (
    bidirectional_deviation_faults,
    catastrophic_faults,
    check_unique_names,
    combined_universe,
    deviation_faults,
    double_deviation_faults,
)

__all__ = [
    "DetectabilityDataset",
    "EscapeAnalysis",
    "DeviationFault",
    "Fault",
    "MultipleFault",
    "OpenFault",
    "ShortFault",
    "SimulationSetup",
    "bidirectional_deviation_faults",
    "catastrophic_faults",
    "check_unique_names",
    "combined_universe",
    "deviation_faults",
    "double_deviation_faults",
    "escape_analysis",
    "escape_tradeoff_curve",
    "simulate_faults",
]
