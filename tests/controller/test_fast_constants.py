"""The fast chains' per-controller constants equal what they replace.

``ChannelWayController`` prices the fixed parts of a fast page
operation once, at construction, and memoises ECC latency per wear.
Each constant is checked here against a direct call to the frozen
``OnfiTiming``, ``Clock`` and ``EccScheme`` it stands for, on every
Table II/III configuration, for both ECC schemes, at every P/E count
from fresh to 1.1x rated endurance and both ``errors_present`` values.
"""

import warnings

import pytest

from repro.controller import ChannelWayController
from repro.core.experiments import table2_configs, table3_configs
from repro.ecc import AdaptiveBch, FixedBch
from repro.kernel import Simulator
from repro.nand import OnfiTiming
from repro.nand.wear import EnduranceWarning

CONFIGS = ([(f"table2-{name}", arch)
            for name, arch in table2_configs().items()]
           + [(f"table3-{name}", arch)
              for name, arch in table3_configs().items()])
SCHEMES = [FixedBch(), AdaptiveBch()]
OVERHEAD_PS = 1_234_500


def make_controller(arch, ecc, onfi_timing=None):
    return ChannelWayController(
        Simulator(), "chn0", arch.n_ways, arch.dies_per_way, arch.geometry,
        arch.nand_timing, arch.wear_model, onfi_timing or arch.onfi_timing,
        ecc, fast=True, fast_overhead_ps=OVERHEAD_PS)


@pytest.mark.parametrize("ecc", SCHEMES, ids=lambda ecc: ecc.name)
@pytest.mark.parametrize("label, arch", CONFIGS,
                         ids=[label for label, __ in CONFIGS])
def test_constants_and_memos_match_direct_calls(label, arch, ecc):
    ctrl = make_controller(arch, ecc)
    timing = arch.onfi_timing
    raw = arch.geometry.raw_page_bytes
    assert ctrl._fast == (
        ctrl.clock.cycles(ctrl.translator_cycles) + OVERHEAD_PS,
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
