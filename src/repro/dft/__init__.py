"""Multi-configuration DFT: configurable opamps and circuit emulation."""

from .configuration import (
    Configuration,
    configuration_from_bits,
    configuration_from_vector_string,
    configuration_table,
    enumerate_configurations,
)
from .transform import (
    FollowerRow,
    MultiConfigurationCircuit,
    SwitchParasitics,
    apply_multiconfiguration,
)

__all__ = [
    "Configuration",
    "FollowerRow",
    "MultiConfigurationCircuit",
    "SwitchParasitics",
    "apply_multiconfiguration",
    "configuration_from_bits",
    "configuration_from_vector_string",
    "configuration_table",
    "enumerate_configurations",
]
