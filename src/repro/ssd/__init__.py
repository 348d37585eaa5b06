"""The integrated SSD virtual platform: architecture configuration, the
device model wiring every subsystem together, measurement scenarios and
workload-run metrics."""

from .architecture import (CachePolicy, CpuMode, SsdArchitecture,
                           from_config, parse_geometry_label)
from .fidelity import Fidelity, FidelityConfig, fidelity_from_spec
from .device import DataPathMode, SsdDevice
from .energy import DEFAULT_ENERGY, EnergyModel
from .ftl_device import FtlSsdDevice
from .metrics import (RunResult, collect_reliability, collect_utilizations,
                      run_workload)
from .scenarios import (BreakdownRow, Scenario, ScenarioRun, breakdown,
                        host_ideal_mbps, measure, run_scenario)

__all__ = [
    "BreakdownRow", "CachePolicy", "CpuMode", "DEFAULT_ENERGY",
    "DataPathMode", "EnergyModel", "Fidelity", "FidelityConfig",
    "FtlSsdDevice", "RunResult", "Scenario", "ScenarioRun",
    "SsdArchitecture", "SsdDevice",
    "breakdown", "collect_reliability", "collect_utilizations",
    "fidelity_from_spec", "from_config", "host_ideal_mbps",
    "measure", "parse_geometry_label", "run_scenario", "run_workload",
]
