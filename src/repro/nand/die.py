"""NAND die model: a cycle-accurate state machine with legality checking.

Each die is an independent unit that can hold one array operation at a time
(read / program / erase).  The model enforces the NAND programming rules the
FTL must respect:

* a page may be programmed only if its block was erased since the last
  program of that page (no in-place update);
* pages inside a block must be programmed sequentially (ONFI requirement
  for MLC parts);
* reads of never-programmed pages are flagged.

Payload data is *not* stored (SSDExplorer is a performance platform, not a
functional one — paper Section III-A); instead each block keeps a write
pointer and wear state, which is all the FTL and ECC layers need.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..faults import FaultPlan
from ..kernel import (Component, SimulationError, Simulator,
                      UtilizationTracker)
from ..obs import spans as _obs
from .geometry import NandGeometry, PageAddress
from .timing import MlcTimingModel
from .wear import BlockWearState, WearModel


class NandProtocolError(SimulationError):
    """Raised when an operation violates NAND programming rules."""


class NandDie(Component):
    """One NAND die: array state machine plus per-block wear tracking.

    The ONFI channel (see :mod:`repro.nand.onfi`) handles command/data bus
    occupancy; this class models only the internal array time, during which
    the die is busy but the channel bus is free for other dies — the overlap
    that makes way-level interleaving profitable.
    """

    IDLE = "idle"
    READING = "reading"
    PROGRAMMING = "programming"
    ERASING = "erasing"

    def __init__(self, sim: Simulator, name: str, geometry: NandGeometry,
                 timing: MlcTimingModel, wear_model: WearModel,
                 parent: Optional[Component] = None,
                 initial_pe_cycles: int = 0):
        super().__init__(sim, name, parent)
        self.geometry = geometry
        self.timing = timing
        self.wear_model = wear_model
        self.initial_pe_cycles = initial_pe_cycles
        self.state = self.IDLE
        #: Extra array time per additional plane in a multi-plane command
        #: (ONFI interleaved-plane issue overhead).
        self.multiplane_overhead_ps = 2_000_000  # 2 us
        # (plane, block) -> write pointer (next programmable page index).
        # Blocks absent from the dict sit at `_preload_default`: 0 for a
        # factory-fresh die, pages_per_block after preload_all() — which
        # makes whole-die preloading O(1) instead of O(blocks).
        self._write_pointers: Dict[Tuple[int, int], int] = {}
        self._preload_default = 0
        # (plane, block) -> BlockWearState, created lazily.
        self._wear: Dict[Tuple[int, int], BlockWearState] = {}
        #: Busy time of the array (read/program/erase in progress).
        self.array_busy = UtilizationTracker(sim)
        self.reads = 0
        self.programs = 0
        self.multiplane_reads = 0
        self.multiplane_programs = 0
        self.multiplane_erases = 0
        self.reads_unwritten = 0
        self.read_bit_errors = 0
        self.stuck_busy_faults = 0
        self.program_fails = 0
        self.erase_fails = 0
        self.factory_bad_blocks = 0
        self.grown_bad_blocks = 0
        self._obs_t0 = -1  # array-op start when observability is on
        # Fault injection: installed by the device via set_fault_plan();
        # None keeps every fault branch a single attribute check.
        self.fault_plan: Optional[FaultPlan] = None
        self._fault_id = name
        self._bad_blocks: Set[Tuple[int, int]] = set()
        self._factory_checked: Set[Tuple[int, int]] = set()
        #: The targets of the last program that reported status FAIL,
        #: in command order; empty when every plane passed.
        self.failed_programs: Tuple[PageAddress, ...] = ()
        self.last_erase_failed = False

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def is_busy(self) -> bool:
        return self.state != self.IDLE

    def pe_cycles(self, plane: int, block: int) -> int:
        """Program/erase cycles endured by a block."""
        state = self._wear.get((plane, block))
        endured = state.pe_cycles if state else 0
        return self.initial_pe_cycles + endured

    def wear_fraction(self, plane: int, block: int) -> float:
        """Normalized wear of a block (1.0 == rated endurance)."""
        return self.wear_model.normalized(self.pe_cycles(plane, block))

    def write_pointer(self, plane: int, block: int) -> int:
        """Next page due for programming in a block (0 if erased/fresh)."""
        return self._write_pointers.get((plane, block),
                                        self._preload_default)

    def rber(self, plane: int, block: int) -> float:
        """Raw bit error rate of pages in this block at current wear."""
        return self.wear_model.rber(self.pe_cycles(plane, block))

    # ------------------------------------------------------------------
    # Fault injection and bad-block state
    # ------------------------------------------------------------------
    def set_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Install the device's fault schedule (None disables faults)."""
        self.fault_plan = plan
        # Draw keys must be unique per die across the whole device, and
        # path() is too hot to walk per operation — cache it once here.
        self._fault_id = self.path()

    def is_bad_block(self, plane: int, block: int) -> bool:
        """Grown or factory bad?  Factory draws are memoized lazily."""
        key = (plane, block)
        if key in self._bad_blocks:
            return True
        plan = self.fault_plan
        if plan is not None and key not in self._factory_checked:
            self._factory_checked.add(key)
            if plan.factory_bad(self._fault_id, plane, block):
                self._bad_blocks.add(key)
                self.factory_bad_blocks += 1
                return True
        return False

    def mark_bad(self, plane: int, block: int) -> None:
        """Retire a block (grown bad: erase failure or program-fail)."""
        key = (plane, block)
        if key not in self._bad_blocks:
            self._bad_blocks.add(key)
            self.grown_bad_blocks += 1

    @property
    def bad_block_count(self) -> int:
        return len(self._bad_blocks)

    def draw_read_errors(self, address: PageAddress, codeword_bits: int,
                         codewords: int, attempt: int = 0) -> int:
        """Worst per-codeword bit-error count for one sense of a page.

        The draw is sampled from this block's wear-state RBER, so faults
        emerge from wear rather than from a hand-set constant.  Each
        retry ``attempt`` re-draws at the ladder's reduced effective RBER.
        """
        plan = self.fault_plan
        if plan is None:
            return 0
        errors = plan.read_bit_errors(
            self._fault_id, address, self.rber(address.plane, address.block),
            codeword_bits, codewords, attempt)
        if errors:
            self.read_bit_errors += errors
        return errors

    # ------------------------------------------------------------------
    # Array operations
    #
    # Each operation is split in two halves around its array time:
    # ``begin_*`` checks the command, marks the die busy and returns the
    # duration; ``finish_*`` marks it idle and applies the result.  The
    # generators below wrap the halves around one delay (yield them
    # with sim.process or from within another process); the controller's
    # fast-fidelity callback chains call the halves directly.
    #
    # Every operation takes its target plus optional extra planes (an
    # ONFI multi-plane command).  The checks, stuck-busy draws, wear and
    # pointer bookkeeping and status draws apply to each plane; the array
    # time is the slowest plane's plus ``multiplane_overhead_ps`` per
    # extra plane.  A one-plane command, the common case, takes the same
    # steps inline: one range check and one block-key lookup per half.
    # ------------------------------------------------------------------
    def begin_read(self, address: PageAddress, *more: PageAddress) -> int:
        """Start an array read; returns its duration in ps."""
        if more:
            targets = (address,) + more
            self._check_multiplane(targets)
            for target in targets:
                self._check_read(target)
            self._begin(self.READING)
            duration = 0
            for plane, block, page in targets:
                duration = max(duration, self.timing.read_time(
                    page, self.wear_fraction(plane, block))
                    + self._stuck_ps("read", plane, block))
            return duration + self.multiplane_overhead_ps * len(more)
        plane, block, page = address
        geometry = self.geometry
        if not (0 <= plane < geometry.planes_per_die
                and 0 <= block < geometry.blocks_per_plane
                and 0 <= page < geometry.pages_per_block):
            geometry.validate(address)
        key = (plane, block)
        if page >= self._write_pointers.get(key, self._preload_default):
            self.reads_unwritten += 1
        self._begin(self.READING)
        state = self._wear.get(key)
        duration = self.timing.read_time(page, self.wear_model.normalized(
            self.initial_pe_cycles + (state.pe_cycles if state else 0)))
        if self.fault_plan is not None:
            duration += self._stuck_ps("read", plane, block)
        return duration

    def finish_read(self, address: PageAddress, *more: PageAddress):
        """Complete an array read; returns the block RBER (with extra
        planes, a list of each plane's RBER in command order)."""
        self._end()
        if more:
            self.multiplane_reads += 1
            return [self._record_read(target)
                    for target in (address,) + more]
        key = (address[0], address[1])
        state = self._wear.get(key)
        if state is None:
            state = self._wear[key] = BlockWearState()
        state.reads += 1
        self.reads += 1
        return self.wear_model.rber(self.initial_pe_cycles + state.pe_cycles)

    def read(self, address: PageAddress, *more: PageAddress):
        """Array read: sense a page (per plane) into the page register.

        Generator; completes after ``t_READ``.  Returns the block RBER so
        the ECC model downstream can decide decode effort.
        """
        yield self.begin_read(address, *more)
        return self.finish_read(address, *more)

    def begin_program(self, address: PageAddress, *more: PageAddress) -> int:
        """Start an array program (erase-before-write and page order are
        enforced per plane); returns its duration in ps."""
        if more:
            targets = (address,) + more
            self._check_multiplane(targets)
            for target in targets:
                self._check_program(target)
            self._begin(self.PROGRAMMING)
            duration = 0
            for plane, block, page in targets:
                duration = max(duration, self.timing.program_time(
                    page, block, self.wear_fraction(plane, block))
                    + self._stuck_ps("program", plane, block))
            return duration + self.multiplane_overhead_ps * len(more)
        plane, block, page = address
        geometry = self.geometry
        if not (0 <= plane < geometry.planes_per_die
                and 0 <= block < geometry.blocks_per_plane
                and 0 <= page < geometry.pages_per_block):
            geometry.validate(address)
        key = (plane, block)
        pointer = self._write_pointers.get(key, self._preload_default)
        if page != pointer:
            raise self._out_of_order(address, pointer)
        self._begin(self.PROGRAMMING)
        state = self._wear.get(key)
        duration = self.timing.program_time(
            page, block, self.wear_model.normalized(
                self.initial_pe_cycles + (state.pe_cycles if state else 0)))
        if self.fault_plan is not None:
            duration += self._stuck_ps("program", plane, block)
        return duration

    def finish_program(self, address: PageAddress,
                       *more: PageAddress) -> None:
        """Complete an array program: advance each write pointer, add
        wear and draw each plane's program status; the failing targets
        land in :attr:`failed_programs`."""
        self._end()
        failed = (address,) if self._record_program(address) else ()
        if more:
            for target in more:
                if self._record_program(target):
                    failed += (target,)
            self.multiplane_programs += 1
        self.failed_programs = failed

    def program(self, address: PageAddress, *more: PageAddress):
        """Array program; enforces erase-before-write and page order."""
        duration = self.begin_program(address, *more)
        yield duration
        self.finish_program(address, *more)
        return duration

    def begin_erase(self, plane: int, block: int, *more) -> int:
        """Start a block erase; ``more`` holds extra ``(plane, block)``
        pairs.  Returns its duration in ps."""
        if more:
            targets = [PageAddress(plane_, block_, 0)
                       for plane_, block_ in ((plane, block),) + more]
            self._check_multiplane(targets)
            for target in targets:
                self.geometry.validate(target)
            self._begin(self.ERASING)
            duration = 0
            for plane_, block_, __ in targets:
                duration = max(duration, self.timing.erase_time(
                    block_, self.wear_fraction(plane_, block_))
                    + self._stuck_ps("erase", plane_, block_))
            return duration + self.multiplane_overhead_ps * len(more)
        geometry = self.geometry
        if not (0 <= plane < geometry.planes_per_die
                and 0 <= block < geometry.blocks_per_plane):
            geometry.validate(PageAddress(plane, block, 0))
        self._begin(self.ERASING)
        state = self._wear.get((plane, block))
        duration = self.timing.erase_time(block, self.wear_model.normalized(
            self.initial_pe_cycles + (state.pe_cycles if state else 0)))
        if self.fault_plan is not None:
            duration += self._stuck_ps("erase", plane, block)
        return duration

    def finish_erase(self, plane: int, block: int, *more) -> None:
        """Complete a block erase: reset each write pointer, add a P/E
        cycle and draw each block's erase status."""
        self._end()
        failed = self._record_erase(plane, block)
        if more:
            for extra in more:
                failed = self._record_erase(*extra) or failed
            self.multiplane_erases += 1
        self.last_erase_failed = failed

    def erase(self, plane: int, block: int, *more):
        """Block erase; resets the write pointer and adds a P/E cycle."""
        duration = self.begin_erase(plane, block, *more)
        yield duration
        self.finish_erase(plane, block, *more)
        return duration

    # ------------------------------------------------------------------
    # Per-plane checks, fault draws and bookkeeping of the halves above.
    # ------------------------------------------------------------------
    def _check_multiplane(self, targets) -> None:
        """ONFI multi-plane addressing: distinct planes, one page offset."""
        planes = [target.plane for target in targets]
        if len(set(planes)) != len(planes):
            raise NandProtocolError(
                f"{self.path()}: multi-plane addresses must use distinct "
                f"planes, got {planes}")
        pages = {target.page for target in targets}
        if len(pages) != 1:
            raise NandProtocolError(
                f"{self.path()}: multi-plane addresses must share the page "
                f"offset, got {sorted(pages)}")

    def _check_read(self, address: PageAddress) -> None:
        """Validate a read; count it if the page was never programmed."""
        self.geometry.validate(address)
        key = (address.plane, address.block)
        if address.page >= self._write_pointers.get(key,
                                                    self._preload_default):
            self.reads_unwritten += 1

    def _check_program(self, address: PageAddress) -> None:
        """Validate a program against the block's write pointer."""
        self.geometry.validate(address)
        pointer = self._write_pointers.get((address.plane, address.block),
                                           self._preload_default)
        if address.page != pointer:
            raise self._out_of_order(address, pointer)

    def _out_of_order(self, address: PageAddress,
                      pointer: int) -> NandProtocolError:
        return NandProtocolError(
            f"{self.path()}: program page {address.page} of block "
            f"{(address.plane, address.block)} violates "
            f"sequential-programming rule (write pointer is {pointer})")

    def _stuck_ps(self, kind: str, plane: int, block: int) -> int:
        """Extra busy time drawn for one plane of an array operation."""
        if self.fault_plan is None:
            return 0
        stuck = self.fault_plan.stuck_busy_ps(self._fault_id, kind, plane,
                                              block)
        if stuck:
            self.stuck_busy_faults += 1
        return stuck

    def _record_read(self, address: PageAddress) -> float:
        """Book a completed sense; returns the block RBER."""
        key = (address.plane, address.block)
        self._wear_state(key).record_read()
        self.reads += 1
        return self.rber(*key)

    def _record_program(self, address: PageAddress) -> bool:
        """Book a completed program (advance the pointer, add wear) and
        draw its status; True on program-status FAIL."""
        plane, block, page = address
        key = (plane, block)
        # begin_program checked the page against the pointer.
        self._write_pointers[key] = page + 1
        self._wear_state(key).record_program()
        self.programs += 1
        if self.fault_plan is None or not self.fault_plan.program_fails(
                self._fault_id, plane, block, page):
            return False
        # Program-status FAIL: the array time is spent, the page is
        # consumed, but the controller must treat the data as lost and
        # remap (the page register still holds it).
        self.program_fails += 1
        return True

    def _record_erase(self, plane: int, block: int) -> bool:
        """Book a completed erase (reset the pointer, add a P/E cycle)
        and draw its status; True on erase-status FAIL."""
        key = (plane, block)
        self._write_pointers[key] = 0
        self._wear_state(key).record_erase()
        if self.fault_plan is None or not self.fault_plan.erase_fails(
                self._fault_id, plane, block):
            return False
        # Erase-status FAIL grows a bad block: the block is retired on
        # the spot and must never be allocated again.
        self.erase_fails += 1
        self.mark_bad(plane, block)
        return True

    def preload_block(self, plane: int, block: int,
                      pages: Optional[int] = None) -> None:
        """Mark a block as already programmed (zero simulated time).

        Used to set up read workloads without simulating the fill pass —
        the equivalent of shipping a pre-imaged drive to the testbench.
        """
        self.geometry.validate(PageAddress(plane, block, 0))
        count = self.geometry.pages_per_block if pages is None else pages
        if not 0 <= count <= self.geometry.pages_per_block:
            raise ValueError(f"pages {count} out of range")
        self._write_pointers[(plane, block)] = count

    def preload_all(self) -> None:
        """Mark every block of the die fully programmed, in O(1).

        Equivalent to calling :meth:`preload_block` for every block —
        blocks with an explicit pointer keep it; everything else reads
        as fully written until erased.
        """
        self._preload_default = self.geometry.pages_per_block

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _wear_state(self, key: Tuple[int, int]) -> BlockWearState:
        state = self._wear.get(key)
        if state is None:
            state = self._wear[key] = BlockWearState()
        return state

    def _begin(self, new_state: str) -> None:
        if self.state != self.IDLE:
            raise NandProtocolError(
                f"{self.path()}: command issued while die is {self.state}")
        self.state = new_state
        self.array_busy.set_busy()
        self._obs_t0 = self.sim._now if _obs.enabled else -1

    def _end(self) -> None:
        if self._obs_t0 >= 0:
            # Name the component span after the array operation so the
            # activity table separates sense/program/erase pressure.
            _obs.record_span(self.path(), self.state, self._obs_t0,
                             self.sim._now)
            self._obs_t0 = -1
        self.state = self.IDLE
        self.array_busy.set_idle()

    def utilization(self) -> float:
        """Fraction of sim time the array spent busy."""
        return self.array_busy.utilization()
