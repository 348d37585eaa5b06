"""Table I: feature comparison of SSD exploration frameworks.

The paper positions SSDExplorer against emulation platforms (VSSIM-like),
trace-driven simulators (DiskSim/FlashSim-like) and hardware platforms
(OpenSSD/BlueSSD-like).  This module encodes that matrix and — for the
SSDExplorer column — cross-checks each claimed feature against the
capability actually implemented in this reproduction, so the table stays
honest as the code evolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from .report import render_columns

PLATFORMS = ["SSDExplorer", "Emulation", "Trace-driven", "Hardware"]

#: Rows of Table I: feature -> support per platform column.
FEATURE_MATRIX: Dict[str, Dict[str, bool]] = {
    "Actual FTL (WL, GC, TRIM)": {
        "SSDExplorer": True, "Emulation": True,
        "Trace-driven": True, "Hardware": True},
    "WAF FTL": {
        "SSDExplorer": True, "Emulation": False,
        "Trace-driven": False, "Hardware": False},
    "Host IF performance": {
        "SSDExplorer": True, "Emulation": True,
        "Trace-driven": False, "Hardware": True},
    "Real workload": {
        "SSDExplorer": False, "Emulation": True,
        "Trace-driven": False, "Hardware": True},
    "Different Host IF": {
        "SSDExplorer": True, "Emulation": False,
        "Trace-driven": True, "Hardware": False},
    "DDR timings": {
        "SSDExplorer": True, "Emulation": False,
        "Trace-driven": False, "Hardware": False},
    "Multi DDR buffer": {
        "SSDExplorer": True, "Emulation": False,
        "Trace-driven": False, "Hardware": False},
    "Way: Shared bus": {
        "SSDExplorer": True, "Emulation": True,
        "Trace-driven": True, "Hardware": True},
    "Way: Shared control": {
        "SSDExplorer": True, "Emulation": False,
        "Trace-driven": True, "Hardware": False},
    "NAND architecture": {
        "SSDExplorer": True, "Emulation": True,
        "Trace-driven": True, "Hardware": False},
    "NAND timings": {
        "SSDExplorer": True, "Emulation": True,
        "Trace-driven": True, "Hardware": True},
    "NAND latency aware": {
        "SSDExplorer": True, "Emulation": False,
        "Trace-driven": False, "Hardware": True},
    "ECC timings": {
        "SSDExplorer": True, "Emulation": False,
        "Trace-driven": False, "Hardware": True},
    "Compression": {
        "SSDExplorer": True, "Emulation": False,
        "Trace-driven": False, "Hardware": False},
    "Interconnect model": {
        "SSDExplorer": True, "Emulation": False,
        "Trace-driven": False, "Hardware": True},
    "Core model": {
        "SSDExplorer": True, "Emulation": False,
        "Trace-driven": False, "Hardware": True},
    "Real firmware exec": {
        "SSDExplorer": True, "Emulation": False,
        "Trace-driven": False, "Hardware": True},
    "Multi Core": {
        "SSDExplorer": True, "Emulation": False,
        "Trace-driven": False, "Hardware": False},
    "Model refinement": {
        "SSDExplorer": True, "Emulation": False,
        "Trace-driven": False, "Hardware": False},
}

#: Simulation speed row (qualitative, as in the paper).
SIMULATION_SPEED = {
    "SSDExplorer": "Variable", "Emulation": "High",
    "Trace-driven": "High", "Hardware": "Fixed",
}


def _check_waf_ftl() -> bool:
    from ..ftl import WafModel
    return WafModel().waf_for("random") > 1.0


def _check_actual_ftl() -> bool:
    from ..ftl import FlashBackend, PageMapFtl
    ftl = PageMapFtl(FlashBackend(1, 1, 8, 8), logical_pages=32)
    ftl.write(0)
    ftl.trim(0)
    return ftl.trims == 1


def _check_host_interfaces() -> bool:
    from ..host import pcie_nvme_spec, sata2_spec
    return (sata2_spec().queue_depth == 32
            and pcie_nvme_spec().queue_depth == 65536)


def _check_ddr() -> bool:
    from ..dram import Ddr2Timing
    return Ddr2Timing().peak_bandwidth_mbps() > 0


def _check_multi_buffer() -> bool:
    from ..ssd import SsdArchitecture
    return SsdArchitecture(n_ddr_buffers=8, n_channels=8).n_ddr_buffers == 8


def _check_gangs() -> bool:
    from ..controller import GangScheme
    return {GangScheme.SHARED_BUS, GangScheme.SHARED_CONTROL} \
        == set(GangScheme)


def _check_nand_latency_aware() -> bool:
    from ..nand import MlcTimingModel
    timing = MlcTimingModel()
    return timing.program_time(0, 0) != timing.program_time(1, 0)


def _check_ecc_timings() -> bool:
    from ..ecc import BchLatencyModel
    model = BchLatencyModel()
    return model.decode_cycles(8192, 40) > model.decode_cycles(8192, 4)


def _check_compression() -> bool:
    from ..compression import compress, decompress
    payload = b"abc" * 100
    return decompress(compress(payload)) == payload


def _check_interconnect() -> bool:
    from ..interconnect import AhbBus
    from ..kernel import Simulator
    return AhbBus(Simulator()).clock.frequency_hz == 200e6


def _check_core_model() -> bool:
    from ..cpu import assemble
    return len(assemble("nop\nhalt\n")) == 2


def _check_firmware_exec() -> bool:
    from ..cpu.firmware import DISPATCH_FIRMWARE, assemble as __
    from ..cpu import assemble
    return len(assemble(DISPATCH_FIRMWARE)) > 10


def _check_multicore() -> bool:
    from ..cpu import AbstractCpu
    from ..kernel import Simulator
    return AbstractCpu(Simulator(), n_cores=4).n_cores == 4


def _check_refinement() -> bool:
    from ..ssd import CpuMode
    return {CpuMode.ABSTRACT, CpuMode.FIRMWARE} == set(CpuMode)


#: Feature name -> executable capability check for this reproduction.
CAPABILITY_CHECKS: Dict[str, Callable[[], bool]] = {
    "Actual FTL (WL, GC, TRIM)": _check_actual_ftl,
    "WAF FTL": _check_waf_ftl,
    "Host IF performance": _check_host_interfaces,
    "Different Host IF": _check_host_interfaces,
    "DDR timings": _check_ddr,
    "Multi DDR buffer": _check_multi_buffer,
    "Way: Shared bus": _check_gangs,
    "Way: Shared control": _check_gangs,
    "NAND architecture": _check_nand_latency_aware,
    "NAND timings": _check_nand_latency_aware,
    "NAND latency aware": _check_nand_latency_aware,
    "ECC timings": _check_ecc_timings,
    "Compression": _check_compression,
    "Interconnect model": _check_interconnect,
    "Core model": _check_core_model,
    "Real firmware exec": _check_firmware_exec,
    "Multi Core": _check_multicore,
    "Model refinement": _check_refinement,
}


def verify_ssdexplorer_column() -> Dict[str, bool]:
    """Execute every capability check; returns feature -> implemented."""
    return {feature: check() for feature, check in CAPABILITY_CHECKS.items()}


def render_table() -> str:
    """Render Table I as fixed-width text."""
    width = max(len(feature) for feature in FEATURE_MATRIX) + 2
    rows = [[feature] + ["yes" if support[p] else "no" for p in PLATFORMS]
            for feature, support in FEATURE_MATRIX.items()]
    rows.append(["Simulation speed"]
                + [SIMULATION_SPEED[p] for p in PLATFORMS])
    return render_columns(
        [("Feature", f"<{width}")] + [(p, "<14") for p in PLATFORMS],
        rows, sep="")
