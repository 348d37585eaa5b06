"""Channel/way controller.

"From an architectural point of view, the channel/way controller is
composed of five macro blocks: an AMBA AHB slave program port, a Push-Pull
DMA (PP-DMA) controller, a SRAM cache buffer, an Open NAND Flash Interface
2.0 (ONFI) port and a command translator." (paper, Section III-B3)

This component owns the dies of one channel (``n_ways x dies_per_way``)
and exposes page-level operations that thread through:

  command translator (fixed controller cycles)
  -> SRAM staging slot (backpressure)
  -> ECC engine (encode on writes, decode on reads; latency by wear)
  -> ONFI bus per the gang scheme
  -> the die state machine (array time)

The PP-DMA that moves data between the DRAM buffers and the SRAM cache is
instantiated per channel; the SSD device drives it with DRAM movers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cpu.dma import DmaEngine
from ..ecc.adaptive import EccScheme
from ..faults import FaultPlan, ProgramFailError, UncorrectableReadError
from ..kernel import Component, Event, Resource, SimulationError, Simulator
from ..kernel.events import PENDING
from ..kernel.simtime import Clock, ns
from ..obs import spans as _obs
from ..nand.die import NandDie
from ..nand.geometry import NandGeometry, PageAddress
from ..nand.onfi import OnfiTiming
from ..nand.timing import MlcTimingModel
from ..nand.wear import WearModel
from .gang import ChannelBuses, GangScheme


#: Indices of a fast controller's fixed times (ChannelWayController._fast).
_PREP, _COMMAND, _PAGE, _DATA_OUT = range(4)


class ChannelWayController(Component):
    """Controller for one channel and its gang of ways/dies."""

    def __init__(self, sim: Simulator, name: str, n_ways: int,
                 dies_per_way: int, geometry: NandGeometry,
                 nand_timing: MlcTimingModel, wear_model: WearModel,
                 onfi_timing: OnfiTiming, ecc: EccScheme,
                 gang_scheme: GangScheme = GangScheme.SHARED_BUS,
                 clock: Optional[Clock] = None,
                 sram_page_slots: int = 8,
                 translator_cycles: int = 12,
                 initial_pe_cycles: int = 0,
                 fast: bool = False,
                 parent: Optional[Component] = None):
        super().__init__(sim, name, parent)
        if dies_per_way < 1:
            raise ValueError(f"dies_per_way must be >= 1, got {dies_per_way}")
        if sram_page_slots < 1:
            raise ValueError("sram_page_slots must be >= 1")
        self.n_ways = n_ways
        self.dies_per_way = dies_per_way
        self.geometry = geometry
        self.ecc = ecc
        self.clock = clock or Clock("ctrl", frequency_hz=200e6)
        self.translator_cycles = translator_cycles
        #: Fast fidelity: page operations collapse the ONFI phase chain
        #: into one prep timeout + one bus tenure (see _FastPageOp).
        #: Their fixed times, from the frozen timing, geometry and clock,
        #: are computed here once, indexed by _PREP, _COMMAND, _PAGE and
        #: _DATA_OUT; None at cycle fidelity.  A plain tuple of ints: the
        #: garbage collector stops tracking it, where an object per
        #: controller would pile up in the oldest generation.
        self._fast: Optional[Tuple[int, int, int, int]] = None
        if fast:
            raw_page_bytes = geometry.raw_page_bytes
            self._fast = (
                # Translate; a program adds its encode time.
                self.clock.cycles(translator_cycles),
                onfi_timing.command_time() + onfi_timing.overhead_ps,
                onfi_timing.effective_page_time(raw_page_bytes),
                onfi_timing.data_time(raw_page_bytes))
        # ECC latency is a pure function of wear (the scheme and its
        # latency model are frozen): priced once per P/E count.
        self._encode_memo: Dict[int, int] = {}
        self._decode_memo: Dict[Tuple[int, bool], int] = {}

        self.buses = ChannelBuses(sim, "gang", gang_scheme, n_ways,
                                  onfi_timing, parent=self)
        # Dies are built on first use by die(): a die nothing has touched
        # holds no state that differs from a fresh one, and a large part
        # (Table III C8: 8192 dies) sees only a handful of them per run.
        self._nand_timing = nand_timing
        self._wear_model = wear_model
        self._initial_pe_cycles = initial_pe_cycles
        self._dies: List[List[Optional[NandDie]]] = [
            [None] * dies_per_way for __ in range(n_ways)]
        # One array operation in flight per die: the controller polls die
        # status and holds further commands until ready (ONFI R/B#).
        # Built together with its die.
        self._die_locks: List[List[Optional[Resource]]] = [
            [None] * dies_per_way for __ in range(n_ways)]
        # Device-wide settings that every die, built or not, carries.
        self._fault_plan: Optional[FaultPlan] = None
        self._preloaded = False
        # One encoder and one decoder engine per channel controller.
        self.encoder = Resource(sim, f"{name}.enc", capacity=1)
        self.decoder = Resource(sim, f"{name}.dec", capacity=1)
        # SRAM cache buffer: page staging slots shared by all ways.
        self.sram = Resource(sim, f"{name}.sram", capacity=sram_page_slots)
        # PP-DMA between DRAM buffer and this controller's SRAM.
        self.ppdma = DmaEngine(sim, "ppdma", channels=2, setup_ps=ns(150),
                               parent=self)
        # The device layer bumps gc_relocations and the ftl_* fault counts.
        self.programs = 0
        self.reads = 0
        self.erases = 0
        self.cached_programs = 0
        self.program_fail_reports = 0
        self.erase_fail_reports = 0
        self.read_retries = 0
        self.read_retry_success = 0
        self.uncorrectable_reads = 0
        self.gc_relocations = 0
        self.ftl_program_faults = 0
        self.ftl_read_faults = 0

    # ------------------------------------------------------------------
    def die(self, way: int, die_index: int) -> NandDie:
        """The die at ``(way, die_index)``, built on the first call."""
        if not 0 <= way < self.n_ways:
            raise ValueError(f"way {way} out of range")
        if not 0 <= die_index < self.dies_per_way:
            raise ValueError(f"die {die_index} out of range")
        die = self._dies[way][die_index]
        if die is None:
            die = self._build_die(way, die_index)
        return die

    def _build_die(self, way: int, die_index: int) -> NandDie:
        die = NandDie(self.sim, f"way{way}_die{die_index}", self.geometry,
                      self._nand_timing, self._wear_model, parent=self,
                      initial_pe_cycles=self._initial_pe_cycles)
        if self._fault_plan is not None:
            die.set_fault_plan(self._fault_plan)
        if self._preloaded:
            die.preload_all()
        self._dies[way][die_index] = die
        self._die_locks[way][die_index] = Resource(
            self.sim, f"{self.name}.rb_w{way}d{die_index}", capacity=1)
        return die

    @property
    def dies(self) -> List[List[NandDie]]:
        """Every die as a ``[way][die]`` grid (builds the unbuilt ones)."""
        return [[self.die(w, d) for d in range(self.dies_per_way)]
                for w in range(self.n_ways)]

    def built_dies(self) -> List[NandDie]:
        """The dies built so far, in ``(way, die)`` order."""
        return [die for way in self._dies for die in way if die is not None]

    def set_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Install the device's fault schedule on every die."""
        self._fault_plan = plan
        for die in self.built_dies():
            die.set_fault_plan(plan)

    def preload_all(self) -> None:
        """Mark every block of every die fully programmed."""
        self._preloaded = True
        for die in self.built_dies():
            die.preload_all()

    @property
    def total_dies(self) -> int:
        return self.n_ways * self.dies_per_way

    def _fast_encode_ps(self, pe: int) -> int:
        """ECC encode time of one page at ``pe`` P/E cycles (memoised)."""
        encode_ps = self._encode_memo.get(pe)
        if encode_ps is None:
            encode_ps = self._encode_memo[pe] = self.ecc.encode_time_ps(
                self.geometry.page_bytes, pe)
        return encode_ps

    def _fast_decode_ps(self, pe: int, errors_present: bool) -> int:
        """ECC decode time of one page at ``pe`` P/E cycles (memoised)."""
        key = (pe, errors_present)
        decode_ps = self._decode_memo.get(key)
        if decode_ps is None:
            decode_ps = self._decode_memo[key] = self.ecc.decode_time_ps(
                self.geometry.page_bytes, pe, errors_present)
        return decode_ps

    def _translate(self):
        """Command translator latency (controller clock cycles)."""
        yield self.sim.timeout(self.clock.cycles(self.translator_cycles))

    # ------------------------------------------------------------------
    # Page operations
    #
    # program() / read() / erase() are the entry points: each returns an
    # event that fires with the elapsed ps (or fails with the operation's
    # error).  At cycle fidelity the event is a process running the
    # program_page / read_page / erase_block generator; at fast fidelity
    # it is a callback chain (_FastProgram / _FastRead / _FastErase).
    # ------------------------------------------------------------------
    def program(self, way: int, die_index: int,
                address: PageAddress) -> Event:
        """Event: program one page; its value is the elapsed ps."""
        if self._fast:
            return _FastProgram(self, way, die_index, address)
        return self.sim.process(self.program_page(way, die_index, address))

    def read(self, way: int, die_index: int, address: PageAddress,
             errors_present: bool = True, span=None, command=None) -> Event:
        """Event: read one page; its value is the elapsed ps.

        ``span`` and ``command`` feed the cycle path's stage marks and
        retry ladder (see :meth:`read_page`); the fast chain has neither.
        """
        if self._fast:
            return _FastRead(self, way, die_index, address, errors_present)
        return self.sim.process(self.read_page(
            way, die_index, address, errors_present=errors_present,
            span=span, command=command))

    def erase(self, way: int, die_index: int, plane: int,
              block: int) -> Event:
        """Event: erase one block; its value is the elapsed ps."""
        if self._fast:
            return _FastErase(self, way, die_index, plane, block)
        return self.sim.process(self.erase_block(way, die_index, plane,
                                                 block))

    def _refuse_fast(self, generator: str, method: str) -> None:
        if self._fast:
            raise SimulationError(
                f"{self.path()}: {generator}() is the cycle-fidelity "
                f"generator; a fast controller runs page operations as "
                f"callback chains — use {method}()")

    def program_page(self, way: int, die_index: int, address: PageAddress,
                     *more: PageAddress, cached: bool = False):
        """Generator (cycle fidelity): full write path for one page, or
        for one page in each plane of ``more`` too (ONFI multi-plane
        program: one data-in per plane, one array operation); returns
        elapsed ps.

        ``cached`` is the ONFI cache program: the data-in moves into the
        cache register ahead of the R/B# wait, so it overlaps the die's
        previous array program (the bus FIFO keeps same-die transfers
        ordered, R/B# keeps the array programs ordered).

        A program-status FAIL raises :class:`ProgramFailError` naming
        only the failing targets; its ``address`` is the first of them.
        """
        self._refuse_fast("program_page", "program")
        die = self.die(way, die_index)
        lock = self._die_locks[way][die_index]
        targets = (address,) + more
        start = self.sim.now
        yield from self._translate()

        slot = self.sram.acquire()
        yield slot
        try:
            # Encode while the pages sit in SRAM.
            encode_ps = 0
            for target in targets:
                encode_ps += self.ecc.encode_time_ps(
                    self.geometry.page_bytes,
                    die.pe_cycles(target.plane, target.block))
            if encode_ps:
                engine = self.encoder.acquire()
                yield engine
                t0 = self.sim.now if _obs.enabled else -1
                yield self.sim.timeout(encode_ps)
                self.encoder.release(engine)
                if t0 >= 0:
                    _obs.record_span(self.path(), "ecc_encode", t0,
                                     self.sim.now)
            if not cached:
                # Wait for die ready (R/B#) before the data-in.
                ready = lock.acquire()
                yield ready
            # Command + data-in on the ONFI fabric (payload + spare).
            for __ in targets:
                yield from self.buses.issue_command(way)
                yield from self.buses.transfer(way,
                                               self.geometry.raw_page_bytes)
            if cached:
                ready = lock.acquire()
                yield ready
        finally:
            self.sram.release(slot)
        # Array program: die busy, buses free.
        try:
            yield self.sim.process(die.program(address, *more))
        finally:
            lock.release(ready)
        failed = die.failed_programs
        if failed:
            # Status poll reports FAIL: array time is spent, the pages
            # are consumed, and the device layer must remap the data of
            # the failing planes.
            self.program_fail_reports += 1
            raise ProgramFailError(
                f"{self.path()}: program-status FAIL at way{way} "
                f"die{die_index} {' '.join(map(str, failed))}",
                address=failed[0])
        self.programs += len(targets)
        if cached:
            self.cached_programs += 1
        return self.sim.now - start

    def read_page(self, way: int, die_index: int, address: PageAddress,
                  *more: PageAddress, errors_present: bool = True,
                  span=None, command=None):
        """Generator (cycle fidelity): full read path for one page, or
        for one page in each plane of ``more`` too (ONFI multi-plane
        read: one array sense, then data-out and decode per plane);
        returns elapsed ps.

        With fault injection enabled the bit errors drawn for each plane
        are compared against the ECC scheme's correction capability at
        that block's wear; an over-budget plane sends the whole command
        up the read-retry ladder (each rung pays a full re-sense +
        transfer + decode), and a command that exhausts the ladder raises
        :class:`UncorrectableReadError` for the first over-budget page,
        for the device layer to surface as a command error completion.

        ``span`` is an optional :class:`~repro.obs.spans.CommandSpan`
        carried by the host command this page belongs to: the read path
        is serial per page, so stage marks placed here decompose the
        command's latency into queue / bus_xfer / nand_busy / ecc_decode
        segments (retry rungs fold into the same stages).

        ``command`` is the owning :class:`~repro.host.IoCommand` (``None``
        for GC-internal reads): the ladder annotates it with masked-error
        and retry counts for per-command outcome classification.
        """
        self._refuse_fast("read_page", "read")
        die = self.die(way, die_index)
        plan = die.fault_plan
        targets = (address,) + more
        start = self.sim.now
        yield from self._translate()
        if span is not None:
            span.mark("cpu", self.sim.now)

        attempt = 0
        while True:
            # Wait for die ready, command issue, then array sense (die
            # busy, bus free).
            ready = self._die_locks[way][die_index].acquire()
            yield ready
            if span is not None:
                span.mark("queue", self.sim.now)
            try:
                yield from self.buses.issue_command(way)
                if span is not None:
                    span.mark("bus_xfer", self.sim.now)
                yield self.sim.process(die.read(address, *more))
                if span is not None:
                    span.mark("nand_busy", self.sim.now)
            finally:
                self._die_locks[way][die_index].release(ready)

            slot = self.sram.acquire()
            yield slot
            if span is not None:
                span.mark("queue", self.sim.now)
            try:
                # Data-out, then decode; wear decides the decode effort.
                for target in targets:
                    yield from self.buses.transfer(
                        way, self.geometry.raw_page_bytes)
                    if span is not None:
                        span.mark("bus_xfer", self.sim.now)
                    decode_ps = self.ecc.decode_time_ps(
                        self.geometry.page_bytes,
                        die.pe_cycles(target.plane, target.block),
                        errors_present)
                    if decode_ps:
                        engine = self.decoder.acquire()
                        yield engine
                        if span is not None:
                            span.mark("queue", self.sim.now)
                        t0 = self.sim.now if _obs.enabled else -1
                        yield self.sim.timeout(decode_ps)
                        self.decoder.release(engine)
                        if span is not None:
                            span.mark("ecc_decode", self.sim.now)
                        if t0 >= 0:
                            _obs.record_span(self.path(), "ecc_decode", t0,
                                             self.sim.now)
            finally:
                self.sram.release(slot)

            if plan is None or not plan.config.bit_errors:
                break
            over = None      # the first over-budget page: (address, errors, t)
            masked = 0       # pages whose errors ECC corrected
            for target in targets:
                t = self.ecc.correction_for(
                    die.pe_cycles(target.plane, target.block))
                errors = die.draw_read_errors(
                    target, self.ecc.codeword_bits(),
                    self.ecc.codewords_per_page(self.geometry.page_bytes),
                    attempt)
                if errors > t:
                    over = over or (target, errors, t)
                elif errors:
                    masked += 1
            if over is None:
                if attempt:
                    self.read_retry_success += 1
                elif command is not None:
                    command.masked_page_reads += masked
                break
            if attempt >= plan.config.read_retry_max:
                self.uncorrectable_reads += 1
                target, errors, t = over
                raise UncorrectableReadError(
                    f"{self.path()}: way{way} die{die_index} {target} "
                    f"uncorrectable after {attempt} retries "
                    f"({errors} errors > t={t})",
                    address=target, errors=errors, t=t, retries=attempt)
            attempt += 1
            self.read_retries += 1
            if command is not None:
                command.read_retries += 1
        self.reads += len(targets)
        return self.sim.now - start

    def erase_block(self, way: int, die_index: int, plane: int, block: int):
        """Generator (cycle fidelity): block erase; returns elapsed ps."""
        self._refuse_fast("erase_block", "erase")
        die = self.die(way, die_index)
        start = self.sim.now
        yield from self._translate()
        ready = self._die_locks[way][die_index].acquire()
        yield ready
        try:
            yield from self.buses.issue_command(way)
            yield self.sim.process(die.erase(plane, block))
        finally:
            self._die_locks[way][die_index].release(ready)
        if die.fault_plan is not None and die.last_erase_failed:
            # The die already retired the block; the caller consults the
            # spare pool (see SsdDevice._note_grown_bad).
            self.erase_fail_reports += 1
        self.erases += 1
        return self.sim.now - start

    # ------------------------------------------------------------------
    def mean_die_utilization(self) -> float:
        # An unbuilt die was never busy: leaving out its 0.0 is exact.
        total = sum(die.utilization() for die in self.built_dies())
        return total / self.total_dies


# ----------------------------------------------------------------------
# Fast-fidelity page operations (closed-form NAND op timing)
#
# The same physical sequence as the cycle-accurate generators, but command
# issue + overheads + data train collapse into one bus tenure and
# translate + ECC encode into one prep delay.  Die exclusivity (R/B#), bus
# contention and the decoder engine — the three contention points that
# shape throughput — keep their Resources, so saturation behavior matches
# the golden model; the SRAM staging slots and encoder engine are dropped
# (their service times are ~7% and ~0.4% of a page's bus time).
#
# Each operation is a chain of kernel callbacks rather than a process.
# Every step is the callback of the one kernel event the previous step
# scheduled, in the order a generator process would schedule them:
#
#   start (the process bootstrap) -> prep delay -> R/B# lock -> bus ->
#   tenure -> array time -> [read: bus -> data-out -> decoder -> decode]
#   -> this event fires
#
# Each resource is taken with Resource.claim: a free one is held in place
# and a zero-delay calendar entry stands in for its grant event; a held
# one is requested with acquire() and its Grant resumes the chain.  Either
# way the kernel processes the same events at the same times.
# ----------------------------------------------------------------------
class _FastPageOp(Event):
    """Base of the fast-fidelity page-operation chains.

    The event's value is the elapsed ps.  If the die refuses the command
    (``begin_*`` raises), the chain returns the R/B# lock and the event
    fails with that error.
    """

    __slots__ = ("ctrl", "way", "die_index", "die", "start", "_lock",
                 "_lock_hold", "_bus", "_bus_hold")

    def __init__(self, ctrl: ChannelWayController, way: int, die_index: int):
        sim = ctrl.sim
        # Inline Event constructor: one of these per page operation.
        self.sim = sim
        self.name = ""
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.ctrl = ctrl
        self.way = way
        self.die_index = die_index
        sim._after(0, self._start)

    # -- subclass hooks -------------------------------------------------
    def _prep_ps(self) -> int:
        """Translate (+ encode), ahead of the lock."""
        return self.ctrl._fast[_PREP]

    def _begin_array(self) -> int:
        raise NotImplementedError

    def _finish_array(self) -> None:
        raise NotImplementedError

    def _array_done(self) -> None:
        """Runs once the array operation ended and R/B# is returned."""
        raise NotImplementedError

    # -- the chain --------------------------------------------------------
    def _start(self, _event) -> None:
        ctrl = self.ctrl
        try:
            self.die = ctrl.die(self.way, self.die_index)
            prep = self._prep_ps()
        except Exception as exc:
            # As a process would: the error fails this event and reaches
            # whoever waits on it.
            self.fail(exc)
            return
        self.start = self.sim._now
        self.sim._after(prep, self._take_die)

    def _take_die(self, _event) -> None:
        ctrl = self.ctrl
        self._lock = ctrl._die_locks[self.way][self.die_index]
        self._bus = ctrl.buses.data_bus(self.way).bus
        self._lock_hold = self._lock.claim(self._take_bus)

    def _take_bus(self, _event) -> None:
        self._bus_hold = self._bus.claim(self._on_bus)

    def _on_bus(self, _event) -> None:
        # The bus tenure held before the array operation: the command.
        self.sim._after(self.ctrl._fast[_COMMAND], self._array)

    def _array(self, _event) -> None:
        self._bus.give_back(self._bus_hold)
        try:
            duration = self._begin_array()
        except Exception as exc:
            self._lock.give_back(self._lock_hold)
            self.fail(exc)
            return
        self.sim._after(duration, self._array_end)

    def _array_end(self, _event) -> None:
        self._finish_array()
        self._lock.give_back(self._lock_hold)
        self._array_done()


class _FastProgram(_FastPageOp):
    """prep (translate + encode) -> R/B# -> one page tenure -> tPROG."""

    __slots__ = ("address",)

    def __init__(self, ctrl, way, die_index, address: PageAddress):
        self.address = address
        super().__init__(ctrl, way, die_index)

    def _prep_ps(self) -> int:
        address = self.address
        ctrl = self.ctrl
        return ctrl._fast[_PREP] + ctrl._fast_encode_ps(
            self.die.pe_cycles(address.plane, address.block))

    def _on_bus(self, _event) -> None:
        # Command + data-in: one page tenure.
        self.sim._after(self.ctrl._fast[_PAGE], self._array)

    def _begin_array(self) -> int:
        return self.die.begin_program(self.address)

    def _finish_array(self) -> None:
        self.die.finish_program(self.address)

    def _array_done(self) -> None:
        self.ctrl.programs += 1
        self.succeed(self.sim._now - self.start)


class _FastRead(_FastPageOp):
    """prep -> R/B# -> command tenure -> tR -> data-out tenure -> decode."""

    __slots__ = ("address", "errors_present", "_decode_ps", "_engine")

    def __init__(self, ctrl, way, die_index, address: PageAddress,
                 errors_present: bool = True):
        self.address = address
        self.errors_present = errors_present
        super().__init__(ctrl, way, die_index)

    def _begin_array(self) -> int:
        return self.die.begin_read(self.address)

    def _finish_array(self) -> None:
        self.die.finish_read(self.address)

    def _array_done(self) -> None:
        self._bus_hold = self._bus.claim(self._on_data_bus)

    def _on_data_bus(self, _event) -> None:
        self.sim._after(self.ctrl._fast[_DATA_OUT], self._decode)

    def _decode(self, _event) -> None:
        self._bus.give_back(self._bus_hold)
        ctrl = self.ctrl
        address = self.address
        self._decode_ps = ctrl._fast_decode_ps(
            self.die.pe_cycles(address.plane, address.block),
            self.errors_present)
        if self._decode_ps:
            # The decoder regularly exceeds the page's bus time under
            # adaptive BCH at high wear, so its engine contention stays
            # a real Resource even at fast fidelity (it shapes Fig. 5).
            self._engine = ctrl.decoder.claim(self._decoding)
        else:
            self._read_done()

    def _decoding(self, _event) -> None:
        self.sim._after(self._decode_ps, self._decoded)

    def _decoded(self, _event) -> None:
        self.ctrl.decoder.give_back(self._engine)
        self._read_done()

    def _read_done(self) -> None:
        self.ctrl.reads += 1
        self.succeed(self.sim._now - self.start)


class _FastErase(_FastPageOp):
    """prep -> R/B# -> command tenure -> tBERS."""

    __slots__ = ("plane", "block")

    def __init__(self, ctrl, way, die_index, plane: int, block: int):
        self.plane = plane
        self.block = block
        super().__init__(ctrl, way, die_index)

    def _begin_array(self) -> int:
        return self.die.begin_erase(self.plane, self.block)

    def _finish_array(self) -> None:
        self.die.finish_erase(self.plane, self.block)

    def _array_done(self) -> None:
        self.ctrl.erases += 1
        self.succeed(self.sim._now - self.start)
