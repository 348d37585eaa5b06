"""Fig. 2 validation against the OCZ Vertex 120 GB reference.

The paper validates SSDExplorer against a physical OCZ Vertex 120 GB with
IOZone (4 KiB blocks) and reports error margins of **8 %** (sequential
write), **0.1 %** (sequential read), **6 %** (random write) and **2 %**
(random read) — without tabulating the raw device numbers.

We cannot measure a 2009 SATA drive here, so the reference values below
are *synthesized*: the simulated barefoot-like configuration is taken as
ground truth and the "device" numbers are offset by exactly the error
margins the paper reports (documented substitution — see DESIGN.md).  The
validation harness then demonstrates the same comparison machinery a user
with real hardware would run, and the regression tests pin the simulator
to those reference values so accuracy drift is caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..host.workload import (random_read, random_write, sequential_read,
                             sequential_write)
from ..ssd.architecture import SsdArchitecture
from .experiments import validation_config
from .sweep import SweepPoint, SweepRunner

#: Paper-reported relative error of SSDExplorer vs the OCZ Vertex.
PAPER_ERROR_MARGINS = {
    "SW": 0.08,
    "SR": 0.001,
    "RW": 0.06,
    "RR": 0.02,
}

#: Reference throughputs (MB/s) standing in for the OCZ Vertex 120 GB.
#: Derived from the simulated barefoot-like configuration offset by the
#: paper's error margins (sign chosen so the simulator over-reports
#: writes and under-reports reads, as WAF-theory approximations do).
REFERENCE_MBPS = {
    "SW": 57.0,
    "SR": 124.0,
    "RW": 21.3,
    "RR": 121.7,
}


@dataclass
class ValidationPoint:
    """One workload's simulator-vs-device comparison."""

    workload: str
    simulated_mbps: float
    reference_mbps: float

    @property
    def relative_error(self) -> float:
        return abs(self.simulated_mbps - self.reference_mbps) \
            / self.reference_mbps


def run_validation(n_commands: int = 1600,
                   arch: SsdArchitecture = None,
                   runner: Optional[SweepRunner] = None
                   ) -> Dict[str, ValidationPoint]:
    """Run the four IOZone workloads and compare against the reference.

    Each workload is one ``measure`` sweep point, evaluated by
    ``runner`` (default: a serial :class:`SweepRunner`).
    """
    arch = arch or validation_config()
    total = 4096 * n_commands
    workloads = {
        "SW": (sequential_write(total), True),
        "SR": (sequential_read(total), False),
        "RW": (random_write(total, span_bytes=64 << 20), True),
        "RR": (random_read(total, span_bytes=64 << 20), False),
    }
    points = [SweepPoint(name=f"fig2/{name}", arch=arch, workload=workload,
                         evaluator="measure",
                         params={"warm_start": warm,
                                 "label": f"fig2/{name}"})
              for name, (workload, warm) in workloads.items()]
    runner = runner or SweepRunner(workers=1)
    payloads = runner.run(points).checked_payloads("validation")
    return {name: ValidationPoint(
                workload=name,
                simulated_mbps=payloads[f"fig2/{name}"]["sustained_mbps"],
                reference_mbps=REFERENCE_MBPS[name])
            for name in workloads}
