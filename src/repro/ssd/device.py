"""The integrated SSD virtual platform.

:class:`SsdDevice` instantiates the full architecture template of the
paper's Fig. 1 — host interface, DRAM data buffers, CPU (+AHB), channel/way
controllers with their ONFI gangs, NAND dies, ECC engines, optional
compressors — and implements the command data paths:

**Write**: host link -> [host-side compressor] -> DRAM buffer (reserve +
DDR2 write) -> *completion here under the caching policy* -> PP-DMA pull
(DDR2 read) -> [channel-side compressor] -> ECC encode -> ONFI data-in ->
array program -> *completion here under no-caching* -> buffer space free.
GC traffic charged by the WAF model runs as background relocations and
erases on the same channel resources.

**Read**: CPU dispatch -> array sense -> ONFI data-out -> ECC decode ->
DRAM buffer -> host link return.

A :class:`DataPathMode` selects the measurement scope used for the Fig. 3/4
breakdown bars (host+DDR only / DDR+flash only / full pipeline).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from ..compression import CompressorPlacement
from ..controller import ChannelWayController
from ..cpu.firmware import AbstractCpu, FirmwareCpu
from ..dram import BufferManager
from ..faults import (FaultPlan, ProgramFailError, SparePoolExhausted,
                      UncorrectableReadError, WriteFaultError)
from ..host import HostInterface, IoCommand, IoOpcode, IoStatus
from ..interconnect import AhbBus
from ..kernel import Component, Resource, Simulator
from ..obs import spans as _obs
from ..nand.geometry import PageAddress
from .architecture import CachePolicy, CpuMode, SsdArchitecture
from .fidelity import Fidelity


class DataPathMode(enum.Enum):
    """Which portion of the pipeline a run exercises (Fig. 3/4 bars)."""

    FULL = "full"                 # SSD cache / SSD no cache bars
    HOST_DDR = "host+ddr"         # SATA+DDR / PCIE+DDR bars
    DDR_FLASH = "ddr+flash"       # DDR+FLASH bar (no host interface)


class SsdDevice(Component):
    """A simulated SSD built from an :class:`SsdArchitecture`."""

    def __init__(self, sim: Simulator, arch: SsdArchitecture,
                 name: str = "ssd",
                 mode: DataPathMode = DataPathMode.FULL,
                 parent: Optional[Component] = None):
        super().__init__(sim, name, parent)
        self.arch = arch
        self.mode = mode

        # Fidelity dial: each subsystem resolves its abstraction level
        # (cycle-accurate golden model vs calibrated fast path) here.
        fidelity = arch.fidelity
        nand_fast = fidelity.level("nand") is Fidelity.FAST
        cpu_fast = fidelity.level("cpu") is Fidelity.FAST
        self._dram_fast = fidelity.level("dram") is Fidelity.FAST

        self.hostif = HostInterface(sim, arch.host, parent=self)
        self.buffers = BufferManager(
            sim, "buffers", arch.n_ddr_buffers, arch.dram_timing,
            arch.n_channels,
            capacity_bytes_per_buffer=arch.buffer_capacity_bytes,
            parent=self, enable_refresh=arch.dram_refresh,
            fast=self._dram_fast,
            dram_overhead_ps=fidelity.dram_overhead_ps,
            dram_ps_per_byte=fidelity.dram_ps_per_byte)

        if arch.cpu_mode is CpuMode.FIRMWARE and not cpu_fast:
            # Only the firmware core masters the AHB, so only it builds one.
            self.cpu = FirmwareCpu(sim, "cpu",
                                   ahb=AhbBus(sim, "ahb", parent=self),
                                   parent=self)
        else:
            # Fast CPU: the parametric model with the calibrated fixed
            # per-command cost (the existing cycles_per_command hook).
            cycles = arch.cpu_cycles_per_command
            if cpu_fast and fidelity.cpu_cycles is not None:
                cycles = fidelity.cpu_cycles
            self.cpu = AbstractCpu(
                sim, "cpu", cycles_per_command=cycles,
                n_cores=arch.cpu_cores, parent=self)

        self.channels: List[ChannelWayController] = [
            ChannelWayController(
                sim, f"chn{c}", arch.n_ways, arch.dies_per_way,
                arch.geometry, arch.nand_timing, arch.wear_model,
                arch.onfi_timing, arch.ecc, gang_scheme=arch.gang_scheme,
                initial_pe_cycles=arch.initial_pe_cycles,
                fast=nand_fast,
                parent=self)
            for c in range(arch.n_channels)
        ]

        # One compression engine instance at whichever placement is active.
        self._compressor = arch.compressor
        self._compress_engine = Resource(sim, f"{name}.gzip", capacity=1)

        # Round-robin die striping state and per-die page allocation.
        self._stripe = 0
        # Optional namespace placement: (base_lba, end_lba, channels)
        # ranges mapping LBA partitions onto channel subsets, each with
        # its own striping rotor.  Empty == single-namespace device; the
        # default path is byte-identical with the feature unused.
        self._ns_ranges: List[Tuple[int, int, Tuple[int, ...]]] = []
        self._ns_rotor: Dict[int, int] = {}
        self._die_cursor: Dict[Tuple[int, int, int], int] = {}
        # Independent read addressing (never perturbs the write pointers).
        self._read_cursor: Dict[Tuple[int, int, int], int] = {}
        # Per-die program-order locks: allocation and array program must be
        # atomic per die or concurrent writers would violate the NAND
        # sequential-programming rule.
        self._write_order: Dict[Tuple[int, int, int], Resource] = {}
        # Fractional GC work carried between commands, per pattern.
        self._gc_carry: Dict[str, float] = {}
        self._erase_carry: Dict[str, float] = {}
        # Sub-page packing buffer per channel (compressed payloads).
        self._pack_fill: Dict[int, int] = {}
        # Per-channel program rotor: full pages coming out of the fill
        # buffer rotate over the channel's dies independently of which
        # command triggered them (avoids parity artifacts between packing
        # and command striping).
        self._program_rotor: Dict[int, int] = {}
        self._gc_die = 0

        self.commands_completed = 0
        self.commands_failed = 0
        self.bytes_completed = 0
        self.last_completion_ps = 0
        self.retired_blocks = 0
        self.remapped_programs = 0
        self.background_write_faults = 0

        # Fault-injection campaign: one deterministic plan shared by every
        # die so draws depend only on (seed, die, address) — never on
        # scheduling — plus per-die spare-block pools backing retirement.
        self.fault_plan: Optional[FaultPlan] = None
        self._spares: Dict[Tuple[int, int, int], int] = {}
        if arch.faults.enabled:
            self.fault_plan = FaultPlan(arch.faults, seed_material=arch.label)
            for channel in self.channels:
                channel.set_fault_plan(self.fault_plan)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def set_namespace_channels(
            self, ranges: List[Tuple[int, int, Tuple[int, ...]]]) -> None:
        """Pin LBA ranges to channel subsets (multi-tenant isolation).

        ``ranges`` is ``[(base_lba, end_lba, channels), ...]``; commands
        whose LBA falls inside a range stripe only over that range's
        channels, via a rotor private to the range — so one namespace's
        placement sequence is independent of traffic in the others.  A
        range with an empty channel tuple (or an LBA outside every
        range) uses the device-wide rotor, unchanged.
        """
        for base, end, channels in ranges:
            if base < 0 or end <= base:
                raise ValueError(f"bad namespace range [{base}, {end})")
            for channel in channels:
                if not 0 <= channel < self.arch.n_channels:
                    raise ValueError(f"channel {channel} out of range for "
                                     f"{self.arch.n_channels}-channel device")
        self._ns_ranges = [(base, end, tuple(channels))
                           for base, end, channels in ranges]
        self._ns_rotor = {}

    def next_target(self, lba: Optional[int] = None) -> Tuple[int, int, int]:
        """Round-robin (channel, way, die) striping.

        With namespace ranges installed (:meth:`set_namespace_channels`)
        and an ``lba`` given, striping is confined to the owning range's
        channel subset; otherwise the device-wide rotor decides.
        """
        arch = self.arch
        if lba is not None and self._ns_ranges:
            for slot, (base, end, channels) in enumerate(self._ns_ranges):
                if channels and base <= lba < end:
                    index = self._ns_rotor.get(slot, 0)
                    dies = len(channels) * arch.n_ways * arch.dies_per_way
                    self._ns_rotor[slot] = (index + 1) % dies
                    channel = channels[index % len(channels)]
                    way = (index // len(channels)) % arch.n_ways
                    die = (index // (len(channels) * arch.n_ways)) \
                        % arch.dies_per_way
                    return channel, way, die
        index = self._stripe
        self._stripe = (self._stripe + 1) % arch.total_dies
        channel = index % arch.n_channels
        way = (index // arch.n_channels) % arch.n_ways
        die = (index // (arch.n_channels * arch.n_ways)) % arch.dies_per_way
        return channel, way, die

    def _next_page(self, target: Tuple[int, int, int]) -> PageAddress:
        """Sequential page allocation on a die (WAF-abstracted FTL).

        When the die wraps, blocks are recycled without timed erases —
        erase time is charged by the WAF model instead, avoiding double
        counting.
        """
        geometry = self.arch.geometry
        cursor = self._die_cursor.get(target, 0)
        if self.fault_plan is not None:
            cursor = self._skip_bad_blocks(target, cursor)
        self._die_cursor[target] = (cursor + 1) % geometry.pages_per_die
        address = geometry.address_of(cursor)
        if address.page == 0:
            channel, way, die_index = target
            die = self.channels[channel].die(way, die_index)
            if die.write_pointer(address.plane, address.block) != 0:
                die.preload_block(address.plane, address.block, 0)
        return address

    def _skip_bad_blocks(self, target: Tuple[int, int, int],
                         cursor: int) -> int:
        """Advance an allocation cursor past retired / factory-bad blocks."""
        geometry = self.arch.geometry
        channel, way, die_index = target
        die = self.channels[channel].die(way, die_index)
        for __ in range(geometry.blocks_per_die):
            address = geometry.address_of(cursor)
            if not die.is_bad_block(address.plane, address.block):
                return cursor
            block_linear = cursor // geometry.pages_per_block
            cursor = ((block_linear + 1) % geometry.blocks_per_die) \
                * geometry.pages_per_block
        raise SparePoolExhausted(
            f"die {target} has no usable blocks left")

    def _retire_block(self, target: Tuple[int, int, int], plane: int,
                      block: int) -> None:
        """Grown bad block: mark it on the die and charge the spare pool."""
        channel, way, die_index = target
        self.channels[channel].die(way, die_index).mark_bad(plane, block)
        self._note_grown_bad(target)

    def _note_grown_bad(self, target: Tuple[int, int, int]) -> None:
        """Account one grown bad block against the die's spare pool."""
        spares = self._spares.get(target)
        if spares is None:
            spares = (self.arch.faults.spare_blocks_per_plane
                      * self.arch.geometry.planes_per_die)
        spares -= 1
        self._spares[target] = spares
        self.retired_blocks += 1
        if spares < 0:
            raise SparePoolExhausted(
                f"die {target} exhausted its spare pool "
                f"({self.arch.faults.spare_blocks_per_plane} blocks/plane)")

    def _next_read_page(self, target: Tuple[int, int, int]) -> PageAddress:
        """Sequential read addressing, independent of the write cursor."""
        geometry = self.arch.geometry
        cursor = self._read_cursor.get(target, 0)
        self._read_cursor[target] = (cursor + 1) % geometry.pages_per_die
        return geometry.address_of(cursor)

    def _program_target(self, channel_index: int) -> Tuple[int, int, int]:
        """Next (channel, way, die) for a page programmed on a channel."""
        arch = self.arch
        rotor = self._program_rotor.get(channel_index, 0)
        self._program_rotor[channel_index] = \
            (rotor + 1) % (arch.n_ways * arch.dies_per_way)
        way = rotor % arch.n_ways
        die_index = rotor // arch.n_ways
        return channel_index, way, die_index

    def _write_lock(self, target: Tuple[int, int, int]) -> Resource:
        lock = self._write_order.get(target)
        if lock is None:
            lock = self._write_order[target] = Resource(
                self.sim, f"worder{target}", capacity=1)
        return lock

    def warm_start_cache(self, pattern: str = "sequential") -> None:
        """Pre-fill the DRAM write cache and enqueue its flush backlog.

        Puts a caching-policy run into steady state from t=0: the host can
        only make progress as the flush backlog drains, which is exactly
        the sustained regime the paper's "SSD cache" bars report — without
        simulating the long cache-fill transient.
        """
        page_bytes = self.arch.geometry.page_bytes
        per_buffer_pages = self.buffers.capacity_bytes // page_bytes
        total_pages = per_buffer_pages * self.buffers.n_buffers
        filled = 0
        attempts = 0
        while filled < total_pages and attempts < 4 * total_pages:
            attempts += 1
            placement = self.next_target()
            buffer_index = self.buffers.buffer_for_channel(placement[0])
            if (self.buffers.occupancy(buffer_index) + page_bytes
                    > self.buffers.capacity_bytes):
                continue
            self.buffers._occupancy[buffer_index] += page_bytes
            self.sim.process(self._guard_background_flush(
                self._flush(placement, buffer_index, page_bytes, pattern)))
            filled += 1

    def preload_for_reads(self) -> None:
        """Mark the allocation cursor region as programmed so read
        workloads hit valid pages (pre-imaged drive)."""
        for channel in self.channels:
            channel.preload_all()

    # ------------------------------------------------------------------
    # Data movement helpers
    # ------------------------------------------------------------------
    def _ppdma_move(self, controller: ChannelWayController, mover):
        """Generator: move one page between DRAM and the channel SRAM.

        Cycle fidelity runs the descriptor through the PP-DMA engine as
        a sub-process; fast DRAM fidelity charges the setup latency and
        runs the mover inline (same simulated cost, no per-descriptor
        process or context events — the 2-context limit is a declared
        fast-path approximation).
        """
        if self._dram_fast:
            if controller.ppdma.setup_ps:
                yield controller.ppdma.setup_ps
            return (yield from mover)
        return (yield self.sim.process(
            controller.ppdma.execute(mover)))

    # ------------------------------------------------------------------
    # Compression helpers
    # ------------------------------------------------------------------
    def _compress(self, nbytes: int, placement: CompressorPlacement):
        """Generator: pay engine time if a compressor sits at placement."""
        model = self._compressor
        if model.placement is not placement:
            return nbytes
        grant = self._compress_engine.acquire()
        yield grant
        yield model.latency_ps(nbytes)
        self._compress_engine.release(grant)
        return model.output_bytes(nbytes)

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------
    def execute(self, command: IoCommand, pattern: str = "sequential"):
        """Generator: run one command through the configured data path.

        When observability is on, the command carries a
        :class:`~repro.obs.spans.CommandSpan` from here to completion;
        the flow methods mark stage boundaries on it so the stage
        durations tile the end-to-end latency exactly.
        """
        command.issue_time_ps = self.sim.now
        if _obs.enabled:
            command.span = _obs.active_recorder.begin_command(
                f"{command.opcode.name} lba={command.lba} "
                f"{command.nbytes}B", self.sim.now)
        if command.opcode is IoOpcode.WRITE:
            yield from self._write_flow(command, pattern)
        elif command.opcode is IoOpcode.READ:
            yield from self._read_flow(command)
        elif command.opcode is IoOpcode.TRIM:
            yield from self._trim_flow(command)
        else:  # FLUSH: barrier semantics are a no-op in WAF mode
            yield 0
            self._complete(command, count_bytes=False)

    # -- write ----------------------------------------------------------
    def _write_flow(self, command: IoCommand, pattern: str):
        sim = self.sim
        span = command.span
        nbytes = command.nbytes

        if self.mode is not DataPathMode.DDR_FLASH:
            yield from self.hostif.transfer(nbytes, span=span)
        command.submit_time_ps = sim.now

        nbytes = yield from self._compress(nbytes,
                                           CompressorPlacement.HOST_INTERFACE)
        if span is not None:
            span.mark("compress", sim.now)

        placement = self.next_target(command.lba)
        channel_index, way, die_index = placement
        yield from self.cpu.process_command(
            command.opcode.value, command.lba, command.sectors,
            {"channel": channel_index, "way": way, "die": die_index})
        if span is not None:
            span.mark("cpu", sim.now)

        buffer_index = self.buffers.buffer_for_channel(channel_index)
        yield from self.buffers.reserve(buffer_index, nbytes)
        if span is not None:
            span.mark("queue", sim.now)
        yield from self.buffers.write(buffer_index, nbytes)
        if span is not None:
            span.mark("dram_buffer", sim.now)

        if self.mode is DataPathMode.HOST_DDR:
            self.buffers.release(buffer_index, nbytes)
            self._complete(command)
            return

        # DDR+FLASH measures the drain itself, so completion always waits
        # for the program, whatever the cache policy says.
        wait_for_flash = (self.mode is DataPathMode.DDR_FLASH
                          or self.arch.cache_policy is CachePolicy.NO_CACHING)
        flush = self._flush(placement, buffer_index, nbytes, pattern,
                            command=command)
        if wait_for_flash:
            try:
                yield sim.process(flush)
            except SparePoolExhausted:
                # Subclass of WriteFaultError — must be caught first so
                # the end-of-life cause survives classification.
                command.spare_pool_exhausted = True
                self._fail(command, IoStatus.WRITE_FAILED)
                return
            except WriteFaultError:
                self._fail(command, IoStatus.WRITE_FAILED)
                return
            self._complete(command)
        else:
            self._complete(command)
            # The host already saw success (volatile write cache); a late
            # write fault can only be counted, as on real drives.
            sim.process(self._guard_background_flush(flush))

    def _guard_background_flush(self, flush):
        """Absorb write faults from an already-acknowledged cached write."""
        try:
            yield from flush
        except (WriteFaultError, SparePoolExhausted):
            self.background_write_faults += 1

    def _flush(self, placement: Tuple[int, int, int], buffer_index: int,
               nbytes: int, pattern: str, command=None):
        """Drain one command's payload from DRAM into NAND.

        ``command`` carries per-command context for subclasses (the real
        FTL variant derives the logical page from it); the WAF-abstracted
        path does not need it.
        """
        sim = self.sim
        channel_index = placement[0]
        controller = self.channels[channel_index]
        # For a no-caching (or DDR+FLASH) write the command is blocked on
        # this flush, so its stage marks land on the command span; for a
        # cached write the span finished at host acknowledgment and every
        # mark below is a no-op (CommandSpan.mark checks `finished`).
        span = command.span if command is not None else None

        flash_bytes = yield from self._compress(
            nbytes, CompressorPlacement.CHANNEL_WAY)
        if span is not None:
            span.mark("compress", sim.now)
        page_bytes = self.arch.geometry.page_bytes
        # Compressed payloads pack into the channel's fill buffer; a page
        # is programmed only once a full page of data has accumulated.
        fill = self._pack_fill.get(channel_index, 0) + flash_bytes
        pages = fill // page_bytes
        self._pack_fill[channel_index] = fill - pages * page_bytes
        def page_job(target):
            # PP-DMA pulls the page out of the DRAM buffer...
            yield from self._ppdma_move(
                controller, self.buffers.read(buffer_index, page_bytes))
            # ...then the controller encodes, transfers and programs it;
            # allocation + program are atomic per die.
            yield from self._program_with_remap(controller, target,
                                                command=command)

        # A multi-page command stripes its pages over the channel's dies
        # in parallel (the target rotates per channel, decoupled from
        # command striping).
        try:
            handles = [sim.process(
                page_job(self._program_target(channel_index)))
                for __ in range(pages)]
            if handles:
                yield sim.all_of(handles)
            if span is not None:
                # Pages stripe over dies in parallel, so the command span
                # records the drain as one stage; the fine structure
                # (bus_xfer / ecc_encode / nand_busy per die) is in the
                # component spans those resources record themselves.
                span.mark("flash_drain", sim.now)
            # The WAF model's GC share blocks this flush (Hu et al.: the
            # FTL's "blocking time"), so write cache space stays held until
            # the amplified traffic has been served.
            relocations, erases = self._gc_quota(pattern, pages)
            if relocations or erases:
                yield sim.process(self._gc_work(placement[0], relocations,
                                                erases))
                if span is not None:
                    span.mark("gc", sim.now)
        finally:
            # Cache space must come back even when the drain faults, or a
            # failed write would leak buffer capacity forever.
            self.buffers.release(buffer_index, nbytes)

    def _program_with_remap(self, controller: ChannelWayController,
                            target: Tuple[int, int, int], command=None):
        """Allocate + program one page, remapping around program failures.

        A program-status failure retires the block (grown bad) and retries
        in a freshly allocated block, up to ``faults.max_remap_attempts``;
        past that the write surfaces as a :class:`WriteFaultError`.
        ``command`` (``None`` for GC relocations) is annotated with the
        remap count for outcome classification.
        """
        __, way, die_index = target
        order = self._write_lock(target)
        grant = order.acquire()
        yield grant
        try:
            attempts = 0
            while True:
                address = self._next_page(target)
                try:
                    yield controller.program(way, die_index, address)
                    return
                except ProgramFailError:
                    self._retire_block(target, address.plane, address.block)
                    self.remapped_programs += 1
                    if command is not None:
                        command.remapped_programs += 1
                    attempts += 1
                    if attempts > self.arch.faults.max_remap_attempts:
                        raise WriteFaultError(
                            f"page program on die {target} failed after "
                            f"{attempts} remap attempts") from None
        finally:
            order.release(grant)

    # -- read -----------------------------------------------------------
    def _read_flow(self, command: IoCommand):
        sim = self.sim
        span = command.span
        command.submit_time_ps = sim.now

        placement = self.next_target(command.lba)
        channel_index, way, die_index = placement
        controller = self.channels[channel_index]
        yield from self.cpu.process_command(
            command.opcode.value, command.lba, command.sectors,
            {"channel": channel_index, "way": way, "die": die_index})
        if span is not None:
            span.mark("cpu", sim.now)

        page_bytes = self.arch.geometry.page_bytes
        pages = -(-command.nbytes // page_bytes)
        buffer_index = self.buffers.buffer_for_channel(channel_index)
        for __ in range(pages):
            address = self._next_read_page(placement)
            try:
                # Pages of one command are read serially, so the span
                # threads down into the read for the fine stage marks
                # (queue / bus_xfer / nand_busy / ecc_decode) and the
                # command itself for masked/retry outcome annotations.
                yield controller.read(way, die_index, address, span=span,
                                      command=command)
            except UncorrectableReadError:
                # Retry ladder exhausted: the command completes with a
                # media error status, no data crosses the host link.
                self._fail(command, IoStatus.UNCORRECTABLE)
                return
            yield from self._ppdma_move(
                controller, self.buffers.write(buffer_index, page_bytes))
            if span is not None:
                span.mark("dram_buffer", sim.now)
        if self.mode is not DataPathMode.DDR_FLASH:
            yield from self.hostif.transfer(command.nbytes, span=span)
        self._complete(command)

    # -- trim -----------------------------------------------------------
    def _trim_flow(self, command: IoCommand):
        placement = self.next_target(command.lba)
        channel_index, way, die_index = placement
        yield from self.cpu.process_command(
            command.opcode.value, command.lba, command.sectors,
            {"channel": channel_index, "way": way, "die": die_index})
        if command.span is not None:
            command.span.mark("cpu", self.sim.now)
        self._complete(command, count_bytes=False)

    # -- GC (WAF abstraction) --------------------------------------------
    def _gc_quota(self, pattern: str, pages: int) -> Tuple[int, int]:
        """Integer (relocations, erases) due for ``pages`` host pages,
        carrying fractional remainders between calls."""
        ops = self.arch.waf.extra_page_operations(
            pattern, pages, carry=self._gc_carry.get(pattern, 0.0))
        relocations = int(ops["relocations"])
        self._gc_carry[pattern] = ops["relocations"] - relocations
        erases_due = ops["erases"] + self._erase_carry.get(pattern, 0.0)
        erases = int(erases_due)
        self._erase_carry[pattern] = erases_due - erases
        return relocations, erases

    def _behind_address(self, target: Tuple[int, int, int],
                        page_offset: int = 0) -> PageAddress:
        """An address in the block *behind* the allocation cursor — fully
        written (or untouched) and therefore safe for GC reads and erases
        without perturbing the sequential write pointer."""
        geometry = self.arch.geometry
        cursor = self._die_cursor.get(target, 0)
        block_linear = cursor // geometry.pages_per_block
        previous = (block_linear - 1) % geometry.blocks_per_die
        base = previous * geometry.pages_per_block
        return geometry.address_of(
            base + page_offset % geometry.pages_per_block)

    def _gc_work(self, channel_index: int, relocations: int, erases: int):
        controller = self.channels[channel_index]
        arch = self.arch
        for __ in range(relocations):
            way = self._gc_die % arch.n_ways
            die_index = (self._gc_die // arch.n_ways) % arch.dies_per_way
            self._gc_die += 1
            target = (channel_index, way, die_index)
            # Relocation: read a page from a retired block, rewrite it at
            # the allocation cursor.
            source = self._behind_address(target, page_offset=self._gc_die)
            try:
                yield controller.read(way, die_index, source)
            except UncorrectableReadError:
                # The victim page is lost (the controller counted it in
                # uncorrectable_reads); move on so one worn-out page
                # cannot wedge the whole GC pipeline.
                continue
            yield from self._program_with_remap(controller, target)
            controller.gc_relocations += 1
        for __ in range(erases):
            way = self._gc_die % arch.n_ways
            die_index = (self._gc_die // arch.n_ways) % arch.dies_per_way
            self._gc_die += 1
            die = controller.die(way, die_index)
            victim = self._behind_address((channel_index, way, die_index))
            yield controller.erase(way, die_index, victim.plane,
                                   victim.block)
            if self.fault_plan is not None and die.last_erase_failed:
                # Erase failure grew a bad block (the die marked it); the
                # spare pool absorbs it instead of the free pool.
                self._note_grown_bad((channel_index, way, die_index))
                continue
            die.preload_block(victim.plane, victim.block, 0)

    # ------------------------------------------------------------------
    def _fail(self, command: IoCommand, status: IoStatus) -> None:
        """Complete a command with an error status (never crash the sim)."""
        command.status = status
        command.complete_time_ps = self.sim.now
        if command.span is not None:
            _obs.active_recorder.end_command(command.span, self.sim.now)
        self.commands_failed += 1
        self.last_completion_ps = self.sim.now

    def _complete(self, command: IoCommand, count_bytes: bool = True) -> None:
        command.complete_time_ps = self.sim.now
        if command.span is not None:
            _obs.active_recorder.end_command(command.span, self.sim.now)
        self.commands_completed += 1
        if count_bytes:
            self.bytes_completed += command.nbytes
        self.last_completion_ps = self.sim.now

    def throughput_mbps(self) -> float:
        """Payload throughput from t=0 to the last completion."""
        if self.last_completion_ps == 0:
            return 0.0
        return self.bytes_completed / 1e6 / (self.last_completion_ps / 1e12)
