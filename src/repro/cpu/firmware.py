"""SSD firmware and the two CPU service models.

The paper stresses that SSDExplorer supports **both** "an actual FTL
implementation and its abstraction through a WAF model", and that the CPU
executes "the real execution of the SSD firmware (if available) or of its
abstracted behavior".  Mirroring that, the platform offers:

* :class:`FirmwareCpu` — a real :class:`~repro.cpu.core.CpuCore` running
  the FW-RISC command-dispatch firmware below.  Each host command is
  pushed into the firmware's memory-mapped inbox; the core wakes from WFI,
  reads the command registers, performs the FTL lookup through the FTL
  accelerator window, programs a channel descriptor, and rings the kick
  register — all in simulated time, over the (optional) AHB.
* :class:`AbstractCpu` — a parametric service model: each command costs a
  fixed number of core cycles (default back-annotated from measuring the
  firmware above), with ``n_cores`` commands in flight at once.

Both expose the same ``process_command`` generator API, so the SSD device
can swap them freely ("plug & play", as the paper puts it).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..kernel import Component, Event, Resource, Simulator
from ..kernel.simtime import Clock
from ..interconnect import AhbBus, AhbSlaveConfig
from .assembler import assemble
from .core import CpuCore
from .memory import MemoryMap

HOSTIF_BASE = 0x8000_0000
FTL_BASE = 0x9000_0000
CHANNEL_BASE = 0xA000_0000
CHANNEL_STRIDE = 0x100

#: The command-dispatch loop, in FW-RISC assembly.  Register conventions:
#: r0 = constant zero, r8 = host-IF window, r9 = FTL window, r10 = channel
#: descriptor window.
DISPATCH_FIRMWARE = """
; --- init ------------------------------------------------------------
    mov  r0, 0
    mov  r8, 0x80000000      ; host interface registers
    mov  r9, 0x90000000      ; FTL accelerator registers
    mov  r10, 0xA0000000     ; channel descriptor windows
main:
    wfi                      ; sleep until the host rings the doorbell
poll:
    ldr  r1, [r8 + 0]        ; commands pending?
    beq  r1, r0, main
    ldr  r2, [r8 + 4]        ; opcode
    ldr  r3, [r8 + 8]        ; lba
    ldr  r4, [r8 + 12]       ; sector count
; --- FTL lookup (WAF-abstracted or real, behind the accelerator) -----
    str  r3, [r9 + 0]        ; submit lba
    ldr  r5, [r9 + 4]        ; channel
    ldr  r6, [r9 + 8]        ; packed way/die
; --- program the channel/way controller descriptor -------------------
    shl  r7, r5, 8           ; r7 = channel * 0x100
    add  r7, r7, r10
    str  r2, [r7 + 0]        ; opcode
    str  r3, [r7 + 4]        ; lba
    str  r6, [r7 + 8]        ; way/die
    str  r4, [r7 + 12]       ; sector count
    str  r1, [r7 + 16]       ; kick (any value rings the doorbell)
    str  r0, [r8 + 16]       ; acknowledge / pop the host command
    b    poll
"""


class FirmwareCpu(Component):
    """A real core running :data:`DISPATCH_FIRMWARE`.

    ``process_command(opcode, lba, sectors, placement)`` enqueues a command
    and completes once the firmware has programmed the channel descriptor
    for it.  ``placement`` is the dict the FTL accelerator window serves to
    the firmware (keys: ``channel``, ``way``, ``die``).
    """

    def __init__(self, sim: Simulator, name: str = "cpu",
                 clock: Optional[Clock] = None,
                 ahb: Optional[AhbBus] = None,
                 parent: Optional[Component] = None):
        super().__init__(sim, name, parent)
        self.clock = clock or Clock("cpu", frequency_hz=200e6)
        self._inbox: Deque[Dict] = deque()
        self._active: Optional[Dict] = None
        self._descriptor: Dict[str, int] = {}

        memory = MemoryMap()
        memory.add_mmio(HOSTIF_BASE, 0x20,
                        read=self._hostif_read, write=self._hostif_write,
                        ahb_slave="hostif" if ahb else None)
        memory.add_mmio(FTL_BASE, 0x20,
                        read=self._ftl_read, write=self._ftl_write,
                        ahb_slave="ftl" if ahb else None)
        # One descriptor window per possible channel (64 x 0x100 = 0x4000).
        memory.add_mmio(CHANNEL_BASE, 64 * CHANNEL_STRIDE,
                        read=None, write=self._channel_write,
                        ahb_slave="chnctl" if ahb else None)

        port = None
        if ahb is not None:
            for slave in ("hostif", "ftl", "chnctl"):
                ahb.attach_slave(AhbSlaveConfig(name=slave, wait_states=1,
                                                supports_split=False))
            port = ahb.attach_master(name)
        self.core = CpuCore(sim, "core", assemble(DISPATCH_FIRMWARE), memory,
                            clock=self.clock, ahb_port=port, parent=self)
        self.core.start()

    # ------------------------------------------------------------------
    # Service API (shared with AbstractCpu)
    # ------------------------------------------------------------------
    def process_command(self, opcode: int, lba: int, sectors: int,
                        placement: Dict[str, int]):
        """Generator: completes when the firmware kicks the descriptor."""
        done = self.sim.event(f"{self.name}.cmd")
        self._inbox.append({
            "opcode": opcode, "lba": lba, "sectors": sectors,
            "placement": placement, "done": done,
        })
        self.core.post_interrupt()
        return (yield done)

    # ------------------------------------------------------------------
    # MMIO backings
    # ------------------------------------------------------------------
    def _hostif_read(self, address: int) -> int:
        offset = address - HOSTIF_BASE
        if offset == 0x0:
            if self._active is None and self._inbox:
                self._active = self._inbox.popleft()
            return 0 if self._active is None else 1
        if self._active is None:
            return 0
        if offset == 0x4:
            return self._active["opcode"]
        if offset == 0x8:
            return self._active["lba"]
        if offset == 0xC:
            return self._active["sectors"]
        return 0

    def _hostif_write(self, address: int, value: int) -> None:
        offset = address - HOSTIF_BASE
        if offset == 0x10 and self._active is not None:
            # Acknowledge: the command was fully dispatched.
            self._active = None

    def _ftl_read(self, address: int) -> int:
        offset = address - FTL_BASE
        if self._active is None:
            return 0
        placement = self._active["placement"]
        if offset == 0x4:
            return placement.get("channel", 0)
        if offset == 0x8:
            return (placement.get("way", 0) << 8) | placement.get("die", 0)
        return 0

    def _ftl_write(self, address: int, value: int) -> None:
        # Lookup submission; result registers are combinational here.
        return None

    def _channel_write(self, address: int, value: int) -> None:
        offset = address - CHANNEL_BASE
        channel = offset // CHANNEL_STRIDE
        register = offset % CHANNEL_STRIDE
        if register == 0x0:
            self._descriptor = {"channel": channel, "opcode": value}
        elif register == 0x4:
            self._descriptor["lba"] = value
        elif register == 0x8:
            self._descriptor["way"] = value >> 8
            self._descriptor["die"] = value & 0xFF
        elif register == 0xC:
            self._descriptor["sectors"] = value
        elif register == 0x10:
            # Kick: descriptor complete — release the waiting command.
            if self._active is not None:
                self._active["done"].succeed(dict(self._descriptor))

    @property
    def cycles_retired(self) -> int:
        return self.core.cycles_retired


class AbstractCpu(Component):
    """Parametric CPU service model (multi-core capable).

    ``cycles_per_command`` defaults to :attr:`CALIBRATED_CYCLES`, the
    cost of the real :class:`FirmwareCpu` dispatch loop (see
    :func:`repro.ssd.fidelity.cpu_fit`) plus its bus traffic; a
    regression test keeps the two in sync.
    """

    #: Dispatch cost measured from DISPATCH_FIRMWARE: 38 cycles of pure
    #: core work (see :func:`~repro.ssd.fidelity.cpu_fit`) plus the AHB MMIO
    #: traffic of a full dispatch, ~77 cycles total on an uncontended bus.
    CALIBRATED_CYCLES = 77

    def __init__(self, sim: Simulator, name: str = "cpu",
                 cycles_per_command: Optional[int] = None, n_cores: int = 1,
                 clock: Optional[Clock] = None,
                 parent: Optional[Component] = None):
        super().__init__(sim, name, parent)
        if n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {n_cores}")
        if cycles_per_command is not None and cycles_per_command < 0:
            raise ValueError("cycles_per_command must be >= 0 or None")
        self.clock = clock or Clock("cpu", frequency_hz=200e6)
        # None means "use the calibrated default"; an explicit 0 is a
        # legitimate zero-cost CPU (the fast-fidelity floor), so the
        # sentinel must be None, not falsiness.
        self.cycles_per_command = (self.CALIBRATED_CYCLES
                                   if cycles_per_command is None
                                   else cycles_per_command)
        self.n_cores = n_cores
        self._cores = Resource(sim, f"{name}.cores", capacity=n_cores)
        self.cycles_retired = 0
        self.commands = 0

    def process_command(self, opcode: int, lba: int, sectors: int,
                        placement: Dict[str, int]):
        """Generator: occupy a core for the per-command firmware cost."""
        if self.cycles_per_command:
            grant = self._cores.acquire()
            yield grant
            yield self.clock.cycles(self.cycles_per_command)
            self._cores.release(grant)
            self.cycles_retired += self.cycles_per_command
        self.commands += 1
        return {
            "channel": placement.get("channel", 0),
            "way": placement.get("way", 0),
            "die": placement.get("die", 0),
            "opcode": opcode, "lba": lba, "sectors": sectors,
        }

    def utilization(self) -> float:
        return self._cores.utilization()

