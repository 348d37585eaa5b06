"""Fast-path calibration: fit the fidelity dial's closed-form models.

The fast abstraction levels (see :mod:`repro.ssd.fidelity`) ship with
analytic defaults derived from the timing dataclasses, but the honest
way to parameterize a high-level model is to *measure the detailed one*
(the SimpleSSD/Amber recipe).  :func:`calibrate` runs three short
cycle-accurate probes —

* **DRAM**: stream accesses of several sizes through a
  :class:`~repro.dram.controller.DramController` (refresh running) and
  least-squares fit ``elapsed = overhead + nbytes * ps_per_byte``;
* **CPU**: run the real firmware dispatch loop
  (:func:`~repro.cpu.firmware.calibrate_command_cycles`) and take its
  steady-state cycles per command;
* **NAND**: issue uncontended page program/read ops through a
  cycle-accurate channel controller and measure the residual between
  the phase chain and the closed form —

and returns a :class:`CalibrationResult` whose parameters slot straight
into a :class:`~repro.ssd.fidelity.FidelityConfig`.  Results persist in
a content-addressed JSON cache keyed by the timing models and the probe
definition (same scheme as the sweep cache), so re-calibrating is free
until the underlying models change.

:func:`fidelity_error_report` closes the loop: it reruns the checked-in
fig3/fig5 goldens at fast fidelity and reports the relative error per
figure metric against the golden files — the error-bound test tier
asserts the maximum stays within the declared bound (5% by default).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..cpu.firmware import calibrate_command_cycles
from ..dram.controller import DramController
from ..kernel import Simulator
from ..nand.geometry import PageAddress
from ..ssd.architecture import SsdArchitecture
from ..ssd.fidelity import Fidelity, FidelityConfig, fidelity_from_spec
from .sweep import CODE_VERSION, SweepCache, SweepRunner, canonical

#: Bump when the probe definitions change (folded into the cache key).
PROBE_VERSION = "calibrate-1"

#: Declared fast-vs-golden relative error bound (fig3/fig5 metrics).
DEFAULT_ERROR_BOUND = 0.05


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted fast-path parameters (see :class:`FidelityConfig`)."""

    dram_overhead_ps: int
    dram_ps_per_byte: float
    cpu_cycles: int
    nand_overhead_ps: int
    cached: bool = False

    def to_fidelity(self, default: str = Fidelity.FAST.value,
                    **levels: str) -> FidelityConfig:
        """A :class:`FidelityConfig` carrying these parameters.

        ``levels`` may override per-subsystem fidelity (e.g.
        ``dram="cycle"``).
        """
        return FidelityConfig(default=default,
                              dram_overhead_ps=self.dram_overhead_ps,
                              dram_ps_per_byte=self.dram_ps_per_byte,
                              cpu_cycles=self.cpu_cycles,
                              nand_overhead_ps=self.nand_overhead_ps,
                              **levels)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dram_overhead_ps": self.dram_overhead_ps,
            "dram_ps_per_byte": self.dram_ps_per_byte,
            "cpu_cycles": self.cpu_cycles,
            "nand_overhead_ps": self.nand_overhead_ps,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any],
                  cached: bool = False) -> "CalibrationResult":
        return cls(dram_overhead_ps=int(payload["dram_overhead_ps"]),
                   dram_ps_per_byte=float(payload["dram_ps_per_byte"]),
                   cpu_cycles=int(payload["cpu_cycles"]),
                   nand_overhead_ps=int(payload["nand_overhead_ps"]),
                   cached=cached)


# ----------------------------------------------------------------------
# Probes (cycle-accurate, short)


def _probe_dram(arch: SsdArchitecture,
                sizes: Tuple[int, ...] = (512, 2048, 4096, 16384),
                repeats: int = 16) -> Tuple[int, float]:
    """Fit ``elapsed = overhead + nbytes * ps_per_byte`` on one device.

    The probe streams sequential addresses exactly like the buffer
    manager's FIFO pattern, with refresh running, so the fit absorbs
    both the row-hit common case and the refresh bandwidth tax.
    """
    samples: List[Tuple[int, float]] = []
    for nbytes in sizes:
        sim = Simulator()
        dram = DramController(sim, "probe", arch.dram_timing,
                              enable_refresh=True)
        elapsed: List[int] = []
        address = 0

        def run(nbytes=nbytes):
            nonlocal address
            for __ in range(repeats):
                took = yield sim.process(dram.write(address, nbytes))
                elapsed.append(took)
                address += nbytes

        sim.run(until=sim.process(run()))
        samples.append((nbytes, sum(elapsed) / len(elapsed)))
    n = len(samples)
    mean_x = sum(x for x, __ in samples) / n
    mean_y = sum(y for __, y in samples) / n
    var = sum((x - mean_x) ** 2 for x, __ in samples)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in samples) / var
    intercept = mean_y - slope * mean_x
    return max(0, int(round(intercept))), max(slope, 1e-9)


def _nand_op_elapsed(arch: SsdArchitecture, fast: bool,
                     nand_overhead_ps: int = 0) -> Tuple[int, int]:
    """(program_ps, read_ps) of one uncontended page op per fidelity."""
    from ..controller import ChannelWayController
    sim = Simulator()
    controller = ChannelWayController(
        sim, "probe", 1, 1, arch.geometry, arch.nand_timing,
        arch.wear_model, arch.onfi_timing, arch.ecc,
        gang_scheme=arch.gang_scheme, fast=fast,
        fast_overhead_ps=nand_overhead_ps)
    out: Dict[str, int] = {}

    def run():
        address = PageAddress(0, 0, 0)
        out["program"] = yield controller.program(0, 0, address)
        out["read"] = yield controller.read(0, 0, address)

    sim.run(until=sim.process(run()))
    return out["program"], out["read"]


def _probe_nand(arch: SsdArchitecture) -> int:
    """Residual overhead the fast closed form must add per op (ps).

    Deterministic timing jitter (``_block_jitter``) is identical across
    fidelities for the same address, so the uncontended difference is
    exactly the phase-chain residue the single-tenure model folds away.
    """
    cycle_program, cycle_read = _nand_op_elapsed(arch, fast=False)
    fast_program, fast_read = _nand_op_elapsed(arch, fast=True)
    residual = ((cycle_program - fast_program)
                + (cycle_read - fast_read)) / 2
    return max(0, int(round(residual)))


# ----------------------------------------------------------------------
# Cache + entry point


def calibration_key(arch: SsdArchitecture) -> str:
    """Content hash of everything the probe outcomes depend on."""
    document = {
        "salt": f"{CODE_VERSION}/{PROBE_VERSION}",
        "dram_timing": canonical(arch.dram_timing),
        "onfi_timing": canonical(arch.onfi_timing),
        "nand_timing": canonical(arch.nand_timing),
        "wear_model": canonical(arch.wear_model),
        "geometry": canonical(arch.geometry),
        "ecc": canonical(arch.ecc),
        "gang_scheme": canonical(arch.gang_scheme),
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Default on-disk location for calibration entries (repo-relative).
DEFAULT_CACHE_DIR = os.path.join(".sweep-cache", "calibration")


def calibrate(arch: Optional[SsdArchitecture] = None,
              cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
              use_cache: bool = True) -> CalibrationResult:
    """Fit (or load) the fast-path parameters for an architecture.

    Deterministic: two runs against the same timing models produce the
    same parameters, so the content-addressed cache entry is stable.
    ``cache_dir=None`` disables persistence.
    """
    arch = arch or SsdArchitecture()
    cache = SweepCache(cache_dir) if cache_dir else None
    key = calibration_key(arch)
    if cache is not None and use_cache:
        envelope = cache.load(key)
        if envelope is not None:
            try:
                return CalibrationResult.from_dict(envelope["payload"],
                                                   cached=True)
            except (KeyError, TypeError, ValueError):
                pass  # malformed entry: recalibrate and rewrite
    dram_overhead_ps, dram_ps_per_byte = _probe_dram(arch)
    result = CalibrationResult(
        dram_overhead_ps=dram_overhead_ps,
        dram_ps_per_byte=dram_ps_per_byte,
        cpu_cycles=int(round(calibrate_command_cycles())),
        nand_overhead_ps=_probe_nand(arch),
    )
    if cache is not None:
        cache.store(key, {
            "salt": f"{CODE_VERSION}/{PROBE_VERSION}",
            "name": "calibration",
            "evaluator": "calibrate",
            "payload": result.to_dict(),
            "events": 0,
            "elapsed_s": 0.0,
        })
    return result


def calibrated_fidelity(spec: str, arch: Optional[SsdArchitecture] = None
                        ) -> Optional[FidelityConfig]:
    """Resolve a fidelity spec (``"fast"``, ``"fast,dram=cycle"``, ...)
    into a calibrated config; the empty spec means cycle (``None``).

    Any fast level pulls in the calibrated fast-path parameters for
    ``arch`` (fitting them on first use; cached afterwards).
    """
    if not spec:
        return None
    config = fidelity_from_spec(spec)
    if config.any_fast:
        config = replace(config, **calibrate(arch).to_dict())
    return config


# ----------------------------------------------------------------------
# Error report: fast vs the checked-in goldens


def fidelity_error_report(fidelity: Optional[FidelityConfig] = None,
                          bound: float = DEFAULT_ERROR_BOUND,
                          repo_root: str = ".") -> Dict[str, Any]:
    """Relative error of fast-fidelity fig3/fig5 vs the golden files.

    Reruns the exact golden experiment definitions (fig3: C1+C6 at 120
    commands; fig5: endpoint fractions at 80 commands) with ``fidelity``
    applied and compares metric by metric against the checked-in JSON.
    The ``HOST ideal`` bar is analytic (identical by construction) and
    is excluded from the maximum.
    """
    from .experiments import fig3_sweep, fig5_wearout_sweep
    from .goldens import load_golden
    if bound <= 0:
        raise ValueError("bound must be positive")
    fidelity = fidelity or FidelityConfig(default=Fidelity.FAST.value)

    errors: Dict[str, float] = {}

    golden3 = load_golden("fig3", repo_root)
    fast3 = fig3_sweep(n_commands=120, configs=sorted(golden3),
                       runner=SweepRunner(workers=1), fidelity=fidelity)
    for config, bars in sorted(golden3.items()):
        row = fast3[config].as_dict()
        for bar, reference in sorted(bars.items()):
            if bar == "HOST ideal":
                continue
            errors[f"fig3/{config}/{bar}"] = _relative_error(
                row[bar], reference)

    golden5 = load_golden("fig5", repo_root)
    fractions = sorted({fraction for points in golden5.values()
                        for fraction, __ in points})
    fast5 = fig5_wearout_sweep(fractions=fractions, n_commands=80,
                               runner=SweepRunner(workers=1),
                               fidelity=fidelity)
    for key, points in sorted(golden5.items()):
        fast_points = dict(fast5[key])
        for fraction, reference in points:
            errors[f"fig5/{key}/{fraction}"] = _relative_error(
                fast_points[fraction], reference)

    max_metric = max(errors, key=errors.get)
    return {
        "bound": bound,
        "fidelity": canonical(fidelity),
        "errors": errors,
        "max_rel_error": errors[max_metric],
        "max_metric": max_metric,
        "within_bound": errors[max_metric] <= bound,
    }


def _relative_error(measured: float, reference: float) -> float:
    if reference == 0:
        return abs(measured)
    return abs(measured - reference) / abs(reference)
