"""The fast models' fitted parameters: pinned values, one fast model.

A fast device takes its DRAM service model and CPU cost from
:func:`repro.ssd.fidelity.dram_fit` / :func:`~repro.ssd.fidelity.cpu_fit`
when it is built.  The pins below are the fit the calibration code
produced for the stock DDR2 timing and for one non-default timing
(half the refresh interval); perfbench's fast references depend on
them.  Every way of asking for ``fast`` builds this same model, an
explicit CPU cost wins at every fidelity, and a fit that runs inside a
profiled run leaves no span behind.
"""

from dataclasses import replace

import pytest

from repro.core.calibrate import calibrate
from repro.core.experiments import profile_point
from repro.cpu import AbstractCpu
from repro.dram import Ddr2Timing
from repro.host import sequential_write
from repro.kernel import Simulator
from repro.ssd import SsdArchitecture, SsdDevice
from repro.ssd.fidelity import cpu_fit, dram_fit

STOCK = Ddr2Timing()
HALF_REFI = replace(STOCK, refresh_interval_ps=STOCK.refresh_interval_ps // 2)

#: ``calibrate(arch).to_dict()`` per DRAM timing.
PINNED_FITS = {
    "stock": (STOCK, {"dram_overhead_ps": 8469,
                      "dram_ps_per_byte": 646.4382482222077,
                      "cpu_cycles": 38}),
    "half-refi": (HALF_REFI, {"dram_overhead_ps": 26186,
                              "dram_ps_per_byte": 645.4374755349687,
                              "cpu_cycles": 38}),
}


@pytest.mark.parametrize("case", sorted(PINNED_FITS))
def test_calibrate_reports_the_pinned_fit(case):
    timing, fit = PINNED_FITS[case]
    assert calibrate(SsdArchitecture(dram_timing=timing)).to_dict() == fit


@pytest.mark.parametrize("case", sorted(PINNED_FITS))
def test_fast_device_runs_the_pinned_fit(case):
    timing, fit = PINNED_FITS[case]
    device = SsdDevice(Simulator(), SsdArchitecture(
        dram_timing=timing).with_fidelity("fast"))
    for dram in device.buffers.buffers:
        assert (dram.overhead_ps, dram.ps_per_byte) == (
            fit["dram_overhead_ps"], fit["dram_ps_per_byte"])
    assert device.cpu.cycles_per_command == fit["cpu_cycles"]


@pytest.mark.parametrize("fidelity, expected", [
    ("fast", {None: 38, 0: 0, 120: 120}),
    ("cycle", {None: AbstractCpu.CALIBRATED_CYCLES, 0: 0, 120: 120}),
])
def test_an_explicit_cpu_cost_wins_at_every_fidelity(fidelity, expected):
    for cycles, charged in expected.items():
        arch = SsdArchitecture(cpu_cycles_per_command=cycles)
        device = SsdDevice(Simulator(), arch.with_fidelity(fidelity))
        assert device.cpu.cycles_per_command == charged


def test_a_fit_inside_a_profiled_run_records_no_span():
    arch = SsdArchitecture().with_fidelity("fast")

    def profiled():
        result, recorder, __ = profile_point(
            arch, sequential_write(4096 * 40), n_commands=40)
        return result.to_dict(), recorder

    dram_fit.cache_clear()
    cpu_fit.cache_clear()
    cold, cold_recorder = profiled()
    # The fit ran inside the profiled run ...
    assert dram_fit.cache_info().misses == 1
    assert cpu_fit.cache_info().misses == 1
    warm, warm_recorder = profiled()
    # ... and left no span: every track is the device's own, and the
    # breakdowns equal a run whose fit was already memoized.
    assert {span.track.split(".")[0]
            for span in cold_recorder.component_spans} == {"ssd"}
    assert cold_recorder.track_busy == warm_recorder.track_busy
    assert cold_recorder.breakdown() == warm_recorder.breakdown()
    assert cold_recorder.component_breakdown() \
        == warm_recorder.component_breakdown()
    del cold["wall_seconds"], warm["wall_seconds"]
    assert cold == warm
