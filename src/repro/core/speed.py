"""Fig. 6: simulation speed in kilo-cycles per second (KCPS).

The paper measures how many kilo-cycles of the simulated 200 MHz platform
clock the simulator advances per wall-clock second, across the Table III
configurations, and shows the speed scaling inversely with the number of
instantiated resources.  We measure exactly the same quantity for this
kernel; absolute values are host- and implementation-dependent (theirs:
a 2.27 GHz Xeon running SystemC), the inverse scaling is the claim.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Dict

from ..host.workload import sequential_write
from ..kernel.simtime import period_from_hz
from ..ssd.architecture import SsdArchitecture
from ..ssd.scenarios import Scenario, run_scenario

#: The platform reference clock whose cycles KCPS counts (the CPU/AHB
#: clock of the modeled controller).
PLATFORM_CLOCK_HZ = 200e6


@dataclass
class SpeedSample:
    """One configuration's simulation-speed measurement."""

    label: str
    simulated_cycles: float
    wall_seconds: float
    events: int

    @property
    def kcps(self) -> float:
        """Kilo-cycles of simulated platform clock per wall second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.simulated_cycles / 1e3 / self.wall_seconds

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds


def measure_speed(arch: SsdArchitecture, n_commands: int = 400,
                  label: str = "") -> SpeedSample:
    """Run a sequential-write burst and report KCPS.

    Wall time is the simulator's own run loop (``RunResult.wall_seconds``):
    building the device and the host driver processes is not counted.
    Garbage left by earlier work is collected first: otherwise a full
    collection of it can land inside a short run and cost more host
    time than the run itself.
    """
    gc.collect()
    result = run_scenario(Scenario(
        arch, sequential_write(4096 * n_commands))).result
    return SpeedSample(label=label or arch.label,
                       simulated_cycles=(result.sim_time_ps
                                         / period_from_hz(PLATFORM_CLOCK_HZ)),
                       wall_seconds=result.wall_seconds,
                       events=result.events)


def speed_sweep(configs: Dict[str, SsdArchitecture],
                n_commands: int = 400) -> Dict[str, SpeedSample]:
    """Fig. 6 over a set of configurations (typically Table III)."""
    return {name: measure_speed(arch, n_commands=n_commands, label=name)
            for name, arch in configs.items()}
