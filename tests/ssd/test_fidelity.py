"""Fidelity-dial configuration tests: specs, wiring and the CPU sentinel."""

import pytest

from repro.cpu import AbstractCpu
from repro.kernel import Simulator, loads
from repro.ssd import (Fidelity, FidelityConfig, SsdArchitecture, SsdDevice,
                       fidelity_from_spec, from_config)
from repro.faults import FaultConfig


class TestFidelityConfig:
    def test_defaults_cycle(self):
        config = FidelityConfig()
        assert not config.any_fast
        for subsystem in ("nand", "dram", "cpu"):
            assert config.level(subsystem) is Fidelity.CYCLE

    def test_per_subsystem_override(self):
        config = FidelityConfig(default="fast", dram="cycle")
        assert config.level("nand") is Fidelity.FAST
        assert config.level("dram") is Fidelity.CYCLE
        assert config.any_fast

    def test_validation(self):
        with pytest.raises(ValueError):
            FidelityConfig(default="warp")
        with pytest.raises(ValueError):
            FidelityConfig(nand="warp")

    def test_spec_parsing(self):
        assert fidelity_from_spec("cycle") == FidelityConfig()
        assert fidelity_from_spec("fast").default == "fast"
        mixed = fidelity_from_spec("fast,dram=cycle")
        assert mixed.level("nand") is Fidelity.FAST
        assert mixed.level("dram") is Fidelity.CYCLE
        only_dram = fidelity_from_spec("dram=fast")
        assert only_dram.level("dram") is Fidelity.FAST
        assert only_dram.level("nand") is Fidelity.CYCLE

    def test_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            fidelity_from_spec("warp")
        with pytest.raises(ValueError):
            fidelity_from_spec("fast,gpu=fast")
        with pytest.raises(ValueError):
            fidelity_from_spec("fast,cycle")  # two defaults


class TestArchitectureFidelity:
    def test_default_is_cycle(self):
        assert not SsdArchitecture().fidelity.any_fast

    def test_with_fidelity_accepts_spec_strings(self):
        arch = SsdArchitecture().with_fidelity("fast,cpu=cycle")
        assert arch.fidelity.level("nand") is Fidelity.FAST
        assert arch.fidelity.level("cpu") is Fidelity.CYCLE

    def test_from_config_keys(self):
        arch = from_config(loads(
            "fidelity.default = fast\nfidelity.dram = cycle\n"
            "cpu.cycles_per_command = 0\n"))
        assert arch.fidelity.level("nand") is Fidelity.FAST
        assert arch.fidelity.level("dram") is Fidelity.CYCLE
        assert arch.cpu_cycles_per_command == 0

    def test_faults_require_cycle_fidelity(self):
        faults = FaultConfig(enabled=True)
        SsdArchitecture(faults=faults)  # cycle: fine
        with pytest.raises(ValueError):
            SsdArchitecture(faults=faults).with_fidelity("fast")

    def test_device_wiring(self):
        from repro.dram.controller import FastDramController
        sim = Simulator()
        device = SsdDevice(sim, SsdArchitecture().with_fidelity("fast"))
        assert isinstance(device.buffers.buffers[0], FastDramController)
        assert device.channels[0]._fast
        assert isinstance(device.cpu, AbstractCpu)

    def test_cycle_device_unchanged(self):
        from repro.dram.controller import DramController
        sim = Simulator()
        device = SsdDevice(sim, SsdArchitecture())
        assert isinstance(device.buffers.buffers[0], DramController)
        assert not device.channels[0]._fast


class TestCpuCyclesSentinel:
    """Regression: ``cycles_per_command=0`` used to fall through an
    ``or``-default to the calibrated 77 — explicit zero-cost CPU was
    unrepresentable."""

    def _run_one(self, cycles):
        sim = Simulator()
        cpu = AbstractCpu(sim, "cpu", cycles_per_command=cycles)
        done = {}

        def driver():
            yield sim.process(cpu.process_command(1, 0, 8, {}))
            done["at"] = sim.now

        sim.run(until=sim.process(driver()))
        return cpu, done["at"]

    def test_none_means_calibrated(self):
        cpu, elapsed = self._run_one(None)
        assert cpu.cycles_per_command == AbstractCpu.CALIBRATED_CYCLES
        assert elapsed > 0

    def test_explicit_zero_is_zero_cost(self):
        cpu, elapsed = self._run_one(0)
        assert cpu.cycles_per_command == 0
        assert elapsed == 0
        assert cpu.commands == 1

    def test_negative_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            AbstractCpu(sim, "cpu", cycles_per_command=-1)
        with pytest.raises(ValueError):
            SsdArchitecture(cpu_cycles_per_command=-1)

    def test_architecture_zero_reaches_device(self):
        sim = Simulator()
        device = SsdDevice(
            sim, SsdArchitecture(cpu_cycles_per_command=0))
        assert device.cpu.cycles_per_command == 0
