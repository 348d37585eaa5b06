"""Fast-path calibration: fit the fidelity dial's closed-form models.

The fast abstraction levels (see :mod:`repro.ssd.fidelity`) ship with
analytic defaults derived from the timing dataclasses, but the honest
way to parameterize a high-level model is to *measure the detailed one*
(the SimpleSSD/Amber recipe).  :func:`calibrate` runs two short
cycle-accurate probes —

* **DRAM**: stream accesses of several sizes through a
  :class:`~repro.dram.controller.DramController` (refresh running) and
  least-squares fit ``elapsed = overhead + nbytes * ps_per_byte``;
* **CPU**: run the real firmware dispatch loop
  (:func:`~repro.cpu.firmware.calibrate_command_cycles`) and take its
  steady-state cycles per command —

and returns a :class:`CalibrationResult` whose parameters slot straight
into a :class:`~repro.ssd.fidelity.FidelityConfig`.  Fast NAND needs no
probe: an uncontended fast page operation takes exactly the cycle
model's time (``tests/controller/test_fast_constants.py`` checks it).
Results persist in a content-addressed JSON cache keyed by the DRAM
timing (the only model input a probe reads) and the probe definition
(same scheme as the sweep cache), so re-calibrating is free until the
underlying models change.

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
from typing import Any, Dict, List, Optional, Tuple, Union

from ..cpu.firmware import calibrate_command_cycles
from ..dram.controller import DramController
from ..kernel import Simulator
from ..ssd.architecture import SsdArchitecture
from ..ssd.fidelity import Fidelity, FidelityConfig, fidelity_from_spec
from .sweep import CODE_VERSION, SweepCache, SweepRunner, canonical

#: Bump when the probe definitions change (folded into the cache key).
PROBE_VERSION = "calibrate-2"

#: Declared fast-vs-golden relative error bound (fig3/fig5 metrics).
DEFAULT_ERROR_BOUND = 0.05


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted fast-path parameters (see :class:`FidelityConfig`)."""

    dram_overhead_ps: int
    dram_ps_per_byte: float
    cpu_cycles: int
    cached: bool = False

    def to_fidelity(self) -> FidelityConfig:
        """An all-fast :class:`FidelityConfig` carrying these parameters
        (mixed levels: :func:`calibrated_fidelity`)."""
        return FidelityConfig(default=Fidelity.FAST.value,
                              **self.to_dict())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dram_overhead_ps": self.dram_overhead_ps,
            "dram_ps_per_byte": self.dram_ps_per_byte,
            "cpu_cycles": self.cpu_cycles,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any],
                  cached: bool = False) -> "CalibrationResult":
        return cls(dram_overhead_ps=int(payload["dram_overhead_ps"]),
                   dram_ps_per_byte=float(payload["dram_ps_per_byte"]),
                   cpu_cycles=int(payload["cpu_cycles"]),
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


# ----------------------------------------------------------------------
# Cache + entry point


def calibration_key(arch: SsdArchitecture) -> str:
    """Content hash of everything the probe outcomes depend on: the
    DRAM timing (the CPU probe reads no part of ``arch``)."""
    document = {
        "salt": f"{CODE_VERSION}/{PROBE_VERSION}",
        "dram_timing": canonical(arch.dram_timing),
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


def calibrated_fidelity(spec: Union[str, FidelityConfig],
                        arch: Optional[SsdArchitecture] = None
                        ) -> Optional[FidelityConfig]:
    """Resolve a fidelity spec (``"fast"``, ``"fast,dram=cycle"``, ...)
    or config into a calibrated config; the empty spec means cycle
    (``None``).

    Any fast level pulls in the calibrated fast-path parameters for
    ``arch`` (fitting them on first use; cached afterwards).
    """
    if not spec:
        return None
    config = fidelity_from_spec(spec) if isinstance(spec, str) else spec
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
