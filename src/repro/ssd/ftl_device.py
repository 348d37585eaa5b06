"""SSD device driven by a *real* FTL instead of the WAF abstraction.

The paper stresses that SSDExplorer "enables both an actual FTL
implementation and its abstraction through a WAF model ... in a plug &
play way".  :class:`FtlSsdDevice` is the actual-FTL variant: logical
placement, garbage collection and wear leveling come from
:class:`~repro.ftl.pagemap.PageMapFtl`, whose every flash operation is
mirrored onto the timed NAND dies.

The mechanism: the FTL runs against a
:class:`~repro.ftl.pagemap.JournalingBackend` (instantaneous bookkeeping).
At dispatch the device invokes the FTL, drains the operation journal, and
replays each entry as a timed program/read/erase on the mapped
channel/way/die — per-die order locks keep the replay consistent with the
FTL's allocation order, so the NAND sequential-programming rule holds by
construction.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..faults import ProgramFailError, UncorrectableReadError
from ..ftl.pagemap import JournalingBackend
from ..ftl.schemes import make_ftl
from ..host import IoCommand
from ..kernel import Event, Resource, Simulator
from ..kernel.events import PENDING
from ..nand.geometry import PageAddress
from .architecture import CachePolicy, SsdArchitecture
from .device import DataPathMode, SsdDevice


def ftl_blocks(arch: SsdArchitecture, logical_utilization: float,
               ftl_blocks_per_plane: Optional[int] = None) -> int:
    """Check an FTL's sizing against ``arch``; return its blocks per plane.

    The FTL can run on a reduced block count per plane so that GC
    activity appears within tractable trace lengths; the physical
    address space it manages is mapped 1:1 onto the timed dies.
    """
    if not 0.0 < logical_utilization < 1.0:
        raise ValueError("logical_utilization must be in (0, 1)")
    blocks = ftl_blocks_per_plane or arch.geometry.blocks_per_plane
    if blocks > arch.geometry.blocks_per_plane:
        raise ValueError("ftl_blocks_per_plane exceeds the geometry")
    return blocks


class FtlSsdDevice(SsdDevice):
    """An :class:`SsdDevice` whose data placement is a real page-map FTL."""

    def __init__(self, sim: Simulator, arch: SsdArchitecture,
                 name: str = "ssd", mode: DataPathMode = DataPathMode.FULL,
                 logical_utilization: float = 0.85,
                 ftl_blocks_per_plane: Optional[int] = None,
                 ftl_scheme: Optional[str] = None,
                 parent=None):
        super().__init__(sim, arch, name=name, mode=mode, parent=parent)
        #: Host reads of a logical page that was never written.
        self.reads_unmapped = 0
        geometry = arch.geometry
        blocks = ftl_blocks(arch, logical_utilization, ftl_blocks_per_plane)
        self.backend = JournalingBackend(
            arch.total_dies, geometry.planes_per_die, blocks,
            geometry.pages_per_block)
        physical_pages = (arch.total_dies * geometry.planes_per_die
                          * blocks * geometry.pages_per_block)
        group_pages = arch.ftl_group_pages or (
            geometry.pages_per_block
            if (ftl_scheme or arch.ftl_scheme) == "blockmap" else 0)
        self.ftl_scheme = ftl_scheme or arch.ftl_scheme
        self.ftl = make_ftl(
            self.ftl_scheme, self.backend,
            logical_pages=int(physical_pages * logical_utilization),
            page_bytes=geometry.page_bytes,
            ftl_dram_bytes=arch.ftl_dram_bytes,
            group_pages=group_pages)
        #: Host-visible logical space.  DFTL appends translation pages to
        #: the FTL's internal space; hosts only address the data pages.
        self.logical_pages = getattr(self.ftl, "data_pages",
                                     self.ftl.logical_pages)
        #: Per-die replay locks (FIFO): keep timed ops in FTL order.
        self._replay_locks: Dict[int, Resource] = {}
        #: Rolling logical page for warm-start flushes.
        self._warm_lpn = 0

    # ------------------------------------------------------------------
    # Address plumbing
    # ------------------------------------------------------------------
    def logical_page_of(self, command: IoCommand) -> int:
        """Map a command's LBA to the FTL's logical page space."""
        page_bytes = self.arch.geometry.page_bytes
        return (command.lba * 512 // page_bytes) % self.logical_pages

    def die_coordinates(self, die_id: int) -> Tuple[int, int, int]:
        """Map the FTL's linear die id to (channel, way, die_index)."""
        arch = self.arch
        channel = die_id % arch.n_channels
        way = (die_id // arch.n_channels) % arch.n_ways
        die_index = die_id // (arch.n_channels * arch.n_ways)
        return channel, way, die_index

    def _replay_lock(self, die_id: int) -> Resource:
        lock = self._replay_locks.get(die_id)
        if lock is None:
            lock = self._replay_locks[die_id] = Resource(
                self.sim, f"replay{die_id}", capacity=1)
        return lock

    # ------------------------------------------------------------------
    # Timed replay of FTL operations
    # ------------------------------------------------------------------
    def _replay(self, entries: List[Tuple[str, Tuple[int, ...]]]):
        """Generator: execute journal entries on the timed platform.

        Entries are grouped per die; groups run concurrently, each group
        in order under its die's FIFO replay lock (see :class:`_DieReplay`).
        """
        sim = self.sim
        per_die: Dict[int, List[Tuple[str, Tuple[int, ...]]]] = {}
        for kind, location in entries:
            per_die.setdefault(location[0], []).append((kind, location))
        handles = [_DieReplay(self, die_id, group)
                   for die_id, group in per_die.items()]
        if handles:
            yield sim.all_of(handles)

    # ------------------------------------------------------------------
    # Overridden data paths
    # ------------------------------------------------------------------
    def _flush(self, placement, buffer_index: int, nbytes: int,
               pattern: str, command: Optional[IoCommand] = None):
        """Drain one command's payload through the real FTL.

        ``placement`` (the striping hint) is ignored — the FTL decides
        where data lands.  Warm-start flushes (``command is None``) use a
        rolling logical page so they exercise the same FTL machinery.
        """
        sim = self.sim
        page_bytes = self.arch.geometry.page_bytes
        pages = -(-nbytes // page_bytes)
        if command is not None:
            lpn = self.logical_page_of(command)
        else:
            lpn = self._warm_lpn
            self._warm_lpn = (self._warm_lpn + pages) % self.logical_pages
        try:
            for offset in range(pages):
                # The FTL decides placement first (instantaneous metadata).
                # The replay process is spawned *immediately* so its per-die
                # lock acquisitions enqueue in FTL order — a later command
                # must not overtake this one on the same die.  The PP-DMA
                # pull from DRAM proceeds concurrently.
                self.ftl.write((lpn + offset) % self.logical_pages)
                entries = self.backend.drain()
                host_die = entries[0][1][0]
                channel_index, __, __ = self.die_coordinates(host_die)
                replay = sim.process(self._replay(entries))
                pull = sim.process(self.channels[channel_index].ppdma.execute(
                    self.buffers.read(buffer_index, page_bytes)))
                yield sim.all_of([replay, pull])
        finally:
            self.buffers.release(buffer_index, nbytes)

    def _read_flow(self, command: IoCommand):
        sim = self.sim
        command.submit_time_ps = sim.now
        lpn = self.logical_page_of(command)

        placement_hint = self.next_target()
        yield from self.cpu.process_command(
            command.opcode.value, command.lba, command.sectors,
            {"channel": placement_hint[0], "way": placement_hint[1],
             "die": placement_hint[2]})

        location = self.ftl.read(lpn)
        if location is None:
            # Unwritten logical page: devices return zeroes without
            # touching flash; charge only the DRAM + host path — but
            # cached-mapping schemes may still have performed real
            # metadata flash traffic (CMT miss fill / dirty eviction),
            # which must be replayed, not dropped.
            self.reads_unmapped += 1
        yield from self._replay(self.backend.drain())

        page_bytes = self.arch.geometry.page_bytes
        buffer_index = self.buffers.buffer_for_channel(placement_hint[0])
        yield sim.process(self.channels[placement_hint[0]].ppdma.execute(
            self.buffers.write(buffer_index, page_bytes)))
        if self.mode is not DataPathMode.DDR_FLASH:
            yield from self.hostif.transfer(command.nbytes)
        self._complete(command)

    def _trim_flow(self, command: IoCommand):
        lpn = self.logical_page_of(command)
        placement_hint = self.next_target()
        yield from self.cpu.process_command(
            command.opcode.value, command.lba, command.sectors,
            {"channel": placement_hint[0], "way": placement_hint[1],
             "die": placement_hint[2]})
        self.ftl.trim(lpn)
        # For the page-map reference trim is pure metadata (the journal is
        # empty); cached-mapping schemes may have touched flash for the
        # translation page and must pay for it.
        yield from self._replay(self.backend.drain())
        self._complete(command, count_bytes=False)

    # ------------------------------------------------------------------
    def sync_nand_to_ftl(self) -> None:
        """Mirror the FTL's block states onto the timed NAND dies.

        For use after an *untimed* preconditioning phase (FTL driven
        directly, journal discarded): sets each die-model write pointer
        to the FTL's count so the sequential-programming rule holds when
        the timed window opens — the pre-imaged-drive convention of
        :meth:`~repro.ssd.device.SsdDevice.preload_for_reads`, extended
        to partially-written blocks.
        """
        for die_id in range(self.backend.n_dies):
            channel_index, way, die_index = self.die_coordinates(die_id)
            die = self.channels[channel_index].die(way, die_index)
            for plane in range(self.backend.planes):
                for block in range(self.backend.blocks):
                    die.preload_block(
                        plane, block,
                        self.ftl.write_pointer_of(die_id, plane, block))

    def precondition_steady(self, seed: int = 0xF71) -> None:
        """Drive the FTL to the steady (GC-active) regime, untimed.

        Sequential fill of the logical space, then seeded random
        overwrites of half of it so block validity is mixed.  The journal
        is discarded, the dies mirror the FTL's blocks and its counters
        are zeroed, so the measured window starts clean.
        """
        ftl, pages = self.ftl, self.logical_pages
        for lpn in range(pages):
            ftl.write(lpn)
        rng = random.Random(seed)
        for __ in range(pages // 2):
            ftl.write(rng.randrange(pages))
        self.backend.drain()
        self.sync_nand_to_ftl()
        ftl.reset_counters()

    def measured_waf(self) -> float:
        """Write amplification actually produced by the FTL."""
        return self.ftl.waf

    def ftl_metrics(self) -> Dict[str, object]:
        """Scheme name, accounting counters and mapping footprint."""
        metrics: Dict[str, object] = {"scheme": self.ftl_scheme}
        metrics.update(self.ftl.counters())
        metrics["footprint"] = self.ftl.mapping_footprint().to_dict()
        return metrics


#: ``_page_address(PageAddress, (plane, block, page))`` builds the page
#: address of a journal location's tail without the namedtuple's
#: Python-level constructor.
_page_address = tuple.__new__

#: Journal kinds whose failure a fault-injected replay absorbs: the FTL's
#: map already points at the physical page and the journaling backend
#: cannot remap after the fact, so the error is counted in the named
#: channel-controller attribute (the data stays put) and the replay goes on.
_ABSORBED = {
    "program": (ProgramFailError, "ftl_program_faults"),
    "read": (UncorrectableReadError, "ftl_read_faults"),
}


class _DieReplay(Event):
    """One die's journal entries, replayed in order under its replay lock.

    A chain of kernel callbacks with the events of a process: a bootstrap,
    the FIFO replay-lock claim, then each entry's page-operation event,
    the next entry issued from the completion callback of the last.  The
    event fires once the group is done; any error :data:`_ABSORBED` does
    not name returns the lock and fails it.
    """

    __slots__ = ("device", "die_id", "group", "index", "controller", "way",
                 "die_index", "lock", "hold", "absorbed")

    def __init__(self, device: FtlSsdDevice, die_id: int, group):
        sim = device.sim
        self.sim = sim
        self.name = ""
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.device = device
        self.die_id = die_id
        self.group = group
        self.index = 0
        sim._after(0, self._start)

    def _start(self, _event) -> None:
        device = self.device
        channel_index, self.way, self.die_index = device.die_coordinates(
            self.die_id)
        self.controller = device.channels[channel_index]
        self.lock = device._replay_lock(self.die_id)
        self.hold = self.lock.claim(self._next)

    def _next(self, _event=None) -> None:
        if self.index == len(self.group):
            self.lock.give_back(self.hold)
            self.succeed(None)
            return
        kind, location = self.group[self.index]
        self.index += 1
        controller = self.controller
        if kind == "program":
            op = controller.program(self.way, self.die_index,
                                    _page_address(PageAddress, location[1:]))
        elif kind == "read":
            op = controller.read(self.way, self.die_index,
                                 _page_address(PageAddress, location[1:]))
        elif kind == "erase":
            __, plane, block = location
            op = controller.erase(self.way, self.die_index, plane, block)
        else:  # pragma: no cover - journal kinds are closed
            self._abort(ValueError(f"unknown journal entry {kind!r}"))
            return
        self.absorbed = _ABSORBED.get(kind)
        op.callbacks.append(self._entry_done)

    def _entry_done(self, op: Event) -> None:
        if not op._ok:
            error = op._value
            absorbed = self.absorbed
            if absorbed is None or not isinstance(error, absorbed[0]):
                self._abort(error)
                return
            controller, name = self.controller, absorbed[1]
            setattr(controller, name, getattr(controller, name) + 1)
        self._next()

    def _abort(self, error: BaseException) -> None:
        self.lock.give_back(self.hold)
        self.fail(error)
