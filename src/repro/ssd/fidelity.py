"""The fidelity dial: per-subsystem abstraction-level selection.

SSDExplorer's value is fine-grained exploration, but campaign-scale
sweeps cannot afford a uniformly cycle-accurate stack.  Following the
SimpleSSD/Amber split, every design point carries a
:class:`FidelityConfig` that selects, per subsystem, between

* ``cycle`` — the detailed golden models (ONFI phase chains, per-beat
  DRAM events, firmware dispatch), and
* ``fast``  — closed-form service models: a single bus tenure per NAND
  op (exact when the op is uncontended), a linear DRAM service time
  with an analytic refresh derate, and a fixed per-command CPU cost.

The config is part of :class:`~repro.ssd.architecture.SsdArchitecture`
and therefore of every sweep fingerprint: cycle and fast runs of the
same point can never collide in the result cache.

The calibrated parameters (DRAM service model, CPU cost) are optional:
the analytic defaults derived from the timing dataclasses are good
enough to stay inside the declared error bound, and
:mod:`repro.core.calibrate` refines them from short cycle-accurate
probes.  Fast NAND has no parameter: it is built from the same ONFI,
array and ECC timing as the cycle model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Fidelity(enum.Enum):
    """One subsystem's abstraction level."""

    CYCLE = "cycle"
    FAST = "fast"


#: Subsystems that can be dialed independently.
SUBSYSTEMS = ("nand", "dram", "cpu")


@dataclass(frozen=True)
class FidelityConfig:
    """Per-subsystem fidelity selection plus calibrated fast-path knobs.

    ``default`` applies to every subsystem whose own field is left empty
    (the empty string means *inherit*).  The calibrated parameters are
    ``None`` until :mod:`repro.core.calibrate` fills them in; the fast
    paths then use analytic defaults derived from the cycle-accurate
    timing parameters.
    """

    default: str = Fidelity.CYCLE.value
    nand: str = ""      # "" = inherit `default`
    dram: str = ""
    cpu: str = ""
    #: Calibrated fast-DRAM service model: fixed per-access overhead and
    #: per-byte streaming cost (both picoseconds).
    dram_overhead_ps: Optional[int] = None
    dram_ps_per_byte: Optional[float] = None
    #: Calibrated fixed per-command CPU cost (core cycles).
    cpu_cycles: Optional[int] = None

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
        if self.dram_overhead_ps is not None and self.dram_overhead_ps < 0:
            raise ValueError("dram_overhead_ps must be >= 0")
        if self.dram_ps_per_byte is not None and self.dram_ps_per_byte <= 0:
            raise ValueError("dram_ps_per_byte must be positive")
        if self.cpu_cycles is not None and self.cpu_cycles < 0:
            raise ValueError("cpu_cycles must be >= 0")

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
