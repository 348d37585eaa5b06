"""The fast chains' per-controller constants equal what they replace.

``ChannelWayController`` prices the fixed parts of a fast page
operation once, at construction, and memoises ECC latency per wear.
Each constant is checked here against a direct call to the frozen
``OnfiTiming``, ``Clock`` and ``EccScheme`` it stands for, on every
Table II/III configuration, for both ECC schemes, at every P/E count
from fresh to 1.1x rated endurance and both ``errors_present`` values.

An uncontended fast page operation is exact: its program, read and
erase take the same picoseconds as the cycle-accurate generators on the
same controller, so the fast NAND model has no residual to calibrate.
That equality is checked on every Table II/III configuration, ONFI
asynchronous and source-synchronous 133/200 MT/s, both gang schemes, a
2-plane 8 KiB geometry and both ECC schemes, fresh and at rated P/E.
"""

import warnings

import pytest

from repro.controller import ChannelWayController, GangScheme
from repro.core.experiments import table2_configs, table3_configs
from repro.ecc import AdaptiveBch, FixedBch
from repro.kernel import Simulator
from repro.nand import NandGeometry, OnfiTiming, PageAddress
from repro.nand.wear import EnduranceWarning

CONFIGS = ([(f"table2-{name}", arch)
            for name, arch in table2_configs().items()]
           + [(f"table3-{name}", arch)
              for name, arch in table3_configs().items()])
SCHEMES = [FixedBch(), AdaptiveBch()]


def make_controller(arch, ecc, onfi_timing=None, geometry=None, sim=None,
                    fast=True, **kwargs):
    return ChannelWayController(
        sim or Simulator(), "chn0", arch.n_ways, arch.dies_per_way,
        geometry or arch.geometry, arch.nand_timing, arch.wear_model,
        onfi_timing or arch.onfi_timing, ecc, fast=fast, **kwargs)


@pytest.mark.parametrize("ecc", SCHEMES, ids=lambda ecc: ecc.name)
@pytest.mark.parametrize("label, arch", CONFIGS,
                         ids=[label for label, __ in CONFIGS])
def test_constants_and_memos_match_direct_calls(label, arch, ecc):
    ctrl = make_controller(arch, ecc)
    timing = arch.onfi_timing
    raw = arch.geometry.raw_page_bytes
    assert ctrl._fast == (
        ctrl.clock.cycles(ctrl.translator_cycles),
        timing.command_time() + timing.overhead_ps,
        timing.effective_page_time(raw),
        timing.data_time(raw))

    page_bytes = arch.geometry.page_bytes
    pes = range(int(1.1 * arch.wear_model.rated_endurance) + 1)
    with warnings.catch_warnings():
        # Past rated endurance the adaptive table clamps and warns.
        warnings.simplefilter("ignore", EnduranceWarning)
        encode = [ecc.encode_time_ps(page_bytes, pe) for pe in pes]
        decode = [(ecc.decode_time_ps(page_bytes, pe, True),
                   ecc.decode_time_ps(page_bytes, pe, False)) for pe in pes]
        # Twice: the first pass fills the memos, the second reads them.
        for __ in range(2):
            assert [ctrl._fast_encode_ps(pe) for pe in pes] == encode
            assert [(ctrl._fast_decode_ps(pe, True),
                     ctrl._fast_decode_ps(pe, False))
                    for pe in pes] == decode
    assert len(ctrl._encode_memo) == len(pes)
    assert len(ctrl._decode_memo) == 2 * len(pes)


@pytest.mark.parametrize("timing", [OnfiTiming.asynchronous(),
                                    OnfiTiming.source_synchronous(133)],
                         ids=["async", "sync133"])
def test_constants_follow_the_onfi_timing(timing):
    __, arch = CONFIGS[0]
    __, command_ps, page_ps, data_out_ps = make_controller(
        arch, FixedBch(), onfi_timing=timing)._fast
    raw = arch.geometry.raw_page_bytes
    assert command_ps == timing.command_time() + timing.overhead_ps
    assert page_ps == timing.effective_page_time(raw)
    assert data_out_ps == timing.data_time(raw)


def uncontended_elapsed(arch, ecc, fast, **kwargs):
    """Elapsed ps of one program, read (with and without raw errors) and
    erase, one after another on an otherwise idle controller."""
    sim = Simulator()
    ctrl = make_controller(arch, ecc, sim=sim, fast=fast, **kwargs)
    out = {}

    def run():
        address = PageAddress(0, 0, 0)
        out["program"] = yield ctrl.program(0, 0, address)
        out["read"] = yield ctrl.read(0, 0, address)
        out["clean_read"] = yield ctrl.read(0, 0, address,
                                            errors_present=False)
        out["erase"] = yield ctrl.erase(0, 0, 0, 0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EnduranceWarning)
        sim.run(until=sim.process(run()))
    return out


def assert_fast_equals_cycle(arch, ecc, **kwargs):
    cycle = uncontended_elapsed(arch, ecc, fast=False, **kwargs)
    assert uncontended_elapsed(arch, ecc, fast=True, **kwargs) == cycle
    assert all(elapsed > 0 for elapsed in cycle.values())


@pytest.mark.parametrize("worn", [False, True], ids=["fresh", "rated-pe"])
@pytest.mark.parametrize("ecc", [None] + SCHEMES,
                         ids=lambda ecc: ecc.name if ecc else "arch-ecc")
@pytest.mark.parametrize("label, arch", CONFIGS,
                         ids=[label for label, __ in CONFIGS])
def test_uncontended_fast_equals_cycle(label, arch, ecc, worn):
    pe = arch.wear_model.rated_endurance if worn else 0
    assert_fast_equals_cycle(arch, ecc or arch.ecc,
                             gang_scheme=arch.gang_scheme,
                             initial_pe_cycles=pe)


@pytest.mark.parametrize("worn", [False, True], ids=["fresh", "rated-pe"])
@pytest.mark.parametrize("ecc", SCHEMES, ids=lambda ecc: ecc.name)
@pytest.mark.parametrize("gang", list(GangScheme), ids=lambda g: g.value)
@pytest.mark.parametrize("geometry", [
    None, NandGeometry(planes_per_die=2, page_bytes=8192)],
    ids=["arch-geometry", "2plane-8KiB"])
@pytest.mark.parametrize("timing", [
    OnfiTiming.asynchronous(), OnfiTiming.source_synchronous(133),
    OnfiTiming.source_synchronous(200)],
    ids=["async", "sync133", "sync200"])
def test_uncontended_fast_equals_cycle_across_interfaces(
        timing, geometry, gang, ecc, worn):
    __, arch = CONFIGS[0]
    pe = arch.wear_model.rated_endurance if worn else 0
    assert_fast_equals_cycle(arch, ecc, onfi_timing=timing,
                             geometry=geometry, gang_scheme=gang,
                             initial_pe_cycles=pe)
