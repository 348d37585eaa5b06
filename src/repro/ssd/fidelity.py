"""The fidelity dial: per-subsystem abstraction-level selection.

SSDExplorer's value is fine-grained exploration, but campaign-scale
sweeps cannot afford a uniformly cycle-accurate stack.  Following the
SimpleSSD/Amber split, every design point carries a
:class:`FidelityConfig` that selects, per subsystem, between

* ``cycle`` — the detailed golden models (ONFI phase chains, per-beat
  DRAM events, firmware dispatch), and
* ``fast``  — closed-form service models: a single bus tenure per NAND
  op (exact when the op is uncontended), a linear DRAM service time
  and a fixed per-command CPU cost.

The config is part of :class:`~repro.ssd.architecture.SsdArchitecture`
and therefore of every sweep fingerprint: cycle and fast runs of the
same point can never collide in the result cache.

Each fast model takes its parameters from its own cycle model, measured
when the first fast device is built (the SimpleSSD recipe):
:func:`dram_fit` least-squares fits the cycle DRAM controller, refresh
running, per timing set, and :func:`cpu_fit` runs the real firmware
dispatch loop.  Both are memoized per process, cost 5–9 ms together
and write no file; they run with observability suspended, so a fit
inside a profiled run records no span.  Fast NAND has no parameter: it
is built from the same ONFI, array and ECC timing as the cycle model.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from ..cpu.firmware import FirmwareCpu
from ..dram.controller import DramController
from ..dram.timing import Ddr2Timing
from ..kernel import Simulator
from ..obs import spans as _obs


class Fidelity(enum.Enum):
    """One subsystem's abstraction level."""

    CYCLE = "cycle"
    FAST = "fast"


#: Subsystems that can be dialed independently.
SUBSYSTEMS = ("nand", "dram", "cpu")


@dataclass(frozen=True)
class FidelityConfig:
    """Per-subsystem fidelity selection.

    ``default`` applies to every subsystem whose own field is left empty
    (the empty string means *inherit*).
    """

    default: str = Fidelity.CYCLE.value
    nand: str = ""      # "" = inherit `default`
    dram: str = ""
    cpu: str = ""

    def __post_init__(self) -> None:
        valid = {f.value for f in Fidelity}
        if self.default not in valid:
            raise ValueError(f"fidelity default must be one of "
                             f"{sorted(valid)}, got {self.default!r}")
        for name in SUBSYSTEMS:
            value = getattr(self, name)
            if value and value not in valid:
                raise ValueError(f"fidelity.{name} must be '' or one of "
                                 f"{sorted(valid)}, got {value!r}")

    # ------------------------------------------------------------------
    def level(self, subsystem: str) -> Fidelity:
        """Resolved fidelity for one subsystem (override or default)."""
        if subsystem not in SUBSYSTEMS:
            raise ValueError(f"unknown subsystem {subsystem!r}; "
                             f"expected one of {SUBSYSTEMS}")
        return Fidelity(getattr(self, subsystem) or self.default)

    @property
    def any_fast(self) -> bool:
        """True if at least one subsystem runs its fast path."""
        return any(self.level(name) is Fidelity.FAST
                   for name in SUBSYSTEMS)


def fidelity_from_spec(spec: str) -> FidelityConfig:
    """Parse a CLI-style fidelity spec.

    ``"cycle"`` / ``"fast"`` set the default for every subsystem;
    ``"fast,dram=cycle"`` style specs override per subsystem.
    """
    parts = [chunk.strip() for chunk in spec.split(",") if chunk.strip()]
    if not parts:
        raise ValueError("empty fidelity spec")
    overrides = {}
    default = None
    for part in parts:
        if "=" in part:
            name, __, value = part.partition("=")
            name = name.strip()
            if name not in SUBSYSTEMS:
                raise ValueError(f"unknown subsystem {name!r} in fidelity "
                                 f"spec {spec!r}")
            overrides[name] = value.strip()
        elif default is None:
            default = part
        else:
            raise ValueError(f"fidelity spec {spec!r} names two defaults")
    return FidelityConfig(default=default or Fidelity.CYCLE.value,
                          **overrides)


# ----------------------------------------------------------------------
# Fitted fast-path parameters


@contextmanager
def _unobserved():
    """Span recording off: a fit is not part of the run that
    triggered it."""
    saved = _obs.enabled
    _obs.enabled = False
    try:
        yield
    finally:
        _obs.enabled = saved


@lru_cache(maxsize=None)
def dram_fit(timing: Ddr2Timing) -> Tuple[int, float]:
    """Fast DRAM service model ``(overhead_ps, ps_per_byte)``: a
    least-squares fit of ``elapsed = overhead + nbytes * ps_per_byte``
    on the cycle :class:`DramController`.

    The probe streams sequential addresses exactly like the buffer
    manager's FIFO pattern, with refresh running, so the fit absorbs
    both the row-hit common case and the refresh bandwidth tax.
    """
    samples: List[Tuple[int, float]] = []
    for nbytes in (512, 2048, 4096, 16384):
        sim = Simulator()
        dram = DramController(sim, "probe", timing, enable_refresh=True)
        elapsed: List[int] = []

        def run(nbytes=nbytes):
            address = 0
            for __ in range(16):
                took = yield sim.process(dram.write(address, nbytes))
                elapsed.append(took)
                address += nbytes

        with _unobserved():
            sim.run(until=sim.process(run()))
        samples.append((nbytes, sum(elapsed) / len(elapsed)))
    n = len(samples)
    mean_x = sum(x for x, __ in samples) / n
    mean_y = sum(y for __, y in samples) / n
    var = sum((x - mean_x) ** 2 for x, __ in samples)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in samples) / var
    intercept = mean_y - slope * mean_x
    return max(0, int(round(intercept))), max(slope, 1e-9)


@lru_cache(maxsize=None)
def cpu_fit() -> int:
    """Fast CPU cost per command (cycles): the real firmware's
    steady-state cycles per command over 32 dispatches, loop overhead
    included (core only, no AHB)."""
    sim = Simulator()
    cpu = FirmwareCpu(sim, "cal")

    def feeder():
        for index in range(32):
            yield sim.process(cpu.process_command(
                1, index * 8, 8, {"channel": index % 4, "way": 0, "die": 0}))

    with _unobserved():
        sim.run(until=sim.process(feeder()))
    return int(round(cpu.cycles_retired / 32))
