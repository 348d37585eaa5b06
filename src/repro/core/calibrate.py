"""Fast-path calibration: the fidelity dial's fitted parameters.

Every fast model takes its parameters from its own cycle model when a
device is built (:func:`repro.ssd.fidelity.dram_fit` and
:func:`~repro.ssd.fidelity.cpu_fit`, memoized per process, nothing
written to disk).  :func:`calibrate` reports that fit for an
architecture as a :class:`CalibrationResult`.  Fast NAND needs no
probe: an uncontended fast page operation takes exactly the cycle
model's time (``tests/controller/test_fast_constants.py`` checks it).

:func:`fidelity_error_report` closes the loop: it reruns the checked-in
fig3/fig5 goldens at fast fidelity and reports the relative error per
figure metric against the golden files — the error-bound test tier
asserts the maximum stays within the declared bound (5% by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..ssd.architecture import SsdArchitecture
from ..ssd.fidelity import Fidelity, FidelityConfig, cpu_fit, dram_fit
from .sweep import SweepRunner, canonical

#: Declared fast-vs-golden relative error bound (fig3/fig5 metrics).
DEFAULT_ERROR_BOUND = 0.05


@dataclass(frozen=True)
class CalibrationResult:
    """The fitted fast-path parameters of one architecture."""

    dram_overhead_ps: int
    dram_ps_per_byte: float
    cpu_cycles: int

    def to_fidelity(self) -> FidelityConfig:
        """The all-fast dial; a fast device fits these same parameters
        itself."""
        return FidelityConfig(default=Fidelity.FAST.value)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dram_overhead_ps": self.dram_overhead_ps,
            "dram_ps_per_byte": self.dram_ps_per_byte,
            "cpu_cycles": self.cpu_cycles,
        }


def calibrate(arch: Optional[SsdArchitecture] = None,
              cache_dir: Optional[str] = None) -> CalibrationResult:
    """The fast-path parameters a fast build of ``arch`` uses (the
    memoized fit; the first call in a process runs the probes).

    ``cache_dir`` is accepted only as ``None``: fits are no longer
    kept on disk.
    """
    if cache_dir is not None:
        raise ValueError(f"calibrate(cache_dir={cache_dir!r}): the "
                         f"calibration cache was removed; the fit is "
                         f"memoized per process and written nowhere")
    arch = arch or SsdArchitecture()
    overhead_ps, ps_per_byte = dram_fit(arch.dram_timing)
    return CalibrationResult(dram_overhead_ps=overhead_ps,
                             dram_ps_per_byte=ps_per_byte,
                             cpu_cycles=cpu_fit())


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
