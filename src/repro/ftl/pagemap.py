"""A real page-mapping FTL (the "actual FTL" alternative to WAF mode).

The paper's CPU model "provid[es] an environment for custom FTL
development" so that "a full SSD firmware can be implemented and
interchanged in a plug & play way".  This module is that full FTL:

* page-granularity logical-to-physical mapping,
* per-die allocation pools with an active block and a free-block queue,
* greedy garbage collection (victim = fewest valid pages, tracked in a
  per-die lazy min-heap so victim selection is O(log blocks)),
* dynamic wear leveling (fresh allocations pick the coldest free block),
* TRIM support (invalidate without rewrite).

It operates against a :class:`FlashBackend` protocol so the same logic is
unit-testable against an instant in-memory backend and pluggable onto the
timed NAND dies of the full platform.  Alternative mapping granularities
(group/block mapping, DFTL-style cached mapping) subclass it — see
:mod:`repro.ftl.schemes`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

PhysicalPage = Tuple[int, int, int, int]  # (die, plane, block, page)


class FtlError(Exception):
    """FTL invariant violation or capacity exhaustion."""


class FlashBackend:
    """Minimal flash API the FTL drives (in-memory reference version).

    Timing-free; the integrated platform substitutes an adapter that
    forwards these calls onto simulated dies.
    """

    def __init__(self, n_dies: int, planes: int, blocks: int, pages: int):
        self.n_dies = n_dies
        self.planes = planes
        self.blocks = blocks
        self.pages = pages
        self.pe_cycles: Dict[Tuple[int, int, int], int] = {}
        self.programs = 0
        self.reads = 0
        self.erases = 0

    def program(self, page: PhysicalPage) -> None:
        self.programs += 1

    def read(self, page: PhysicalPage) -> None:
        self.reads += 1

    def erase(self, die: int, plane: int, block: int) -> None:
        key = (die, plane, block)
        self.pe_cycles[key] = self.pe_cycles.get(key, 0) + 1
        self.erases += 1

    def pe_of(self, die: int, plane: int, block: int) -> int:
        return self.pe_cycles.get((die, plane, block), 0)


class JournalingBackend(FlashBackend):
    """A backend that records every operation in order.

    The timed platform uses this to mirror the FTL's instantaneous
    decisions onto simulated NAND dies: call the FTL, drain the journal,
    replay each entry as a timed operation.
    """

    def __init__(self, n_dies: int, planes: int, blocks: int, pages: int):
        super().__init__(n_dies, planes, blocks, pages)
        self.journal: List[Tuple[str, Tuple[int, ...]]] = []

    def program(self, page: PhysicalPage) -> None:
        super().program(page)
        self.journal.append(("program", page))

    def read(self, page: PhysicalPage) -> None:
        super().read(page)
        self.journal.append(("read", page))

    def erase(self, die: int, plane: int, block: int) -> None:
        super().erase(die, plane, block)
        self.journal.append(("erase", (die, plane, block)))

    def drain(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """Return and clear the accumulated operations."""
        entries, self.journal = self.journal, []
        return entries


@dataclass
class BlockInfo:
    """Book-keeping for one physical block."""

    die: int
    plane: int
    block: int
    write_pointer: int = 0
    valid_pages: Set[int] = field(default_factory=set)  # page indices
    #: Monotonic allocation sequence number: distinguishes this lifetime
    #: of the physical block from earlier ones (stale victim-heap entries
    #: carry the old sequence and are discarded on sight).
    alloc_seq: int = 0

    @property
    def key(self) -> Tuple[int, int, int]:
        return (self.die, self.plane, self.block)


class PageMapFtl:
    """Greedy-GC page-mapping FTL with dynamic wear leveling and TRIM."""

    def __init__(self, backend: FlashBackend, logical_pages: int,
                 gc_low_watermark: int = 2,
                 static_wl_threshold: int = 0):
        physical_pages = (backend.n_dies * backend.planes * backend.blocks
                          * backend.pages)
        min_spare_blocks = backend.n_dies * (gc_low_watermark + 1)
        spare_pages = physical_pages - logical_pages
        if spare_pages < min_spare_blocks * backend.pages:
            raise FtlError(
                f"insufficient over-provisioning: {spare_pages} spare pages "
                f"for {min_spare_blocks} required spare blocks")
        self.backend = backend
        self.logical_pages = logical_pages
        self.gc_low_watermark = gc_low_watermark
        #: Static wear leveling: when the P/E spread across a die's blocks
        #: exceeds this threshold, cold data is migrated off the coldest
        #: block so it re-enters circulation.  0 disables the policy
        #: (dynamic wear leveling alone).
        self.static_wl_threshold = static_wl_threshold
        self.static_wl_migrations = 0

        self._map: Dict[int, PhysicalPage] = {}
        self._blocks: Dict[Tuple[int, int, int], BlockInfo] = {}
        #: block key -> {page index -> logical page}, for GC relocation.
        self._lpn_of: Dict[Tuple[int, int, int], Dict[int, int]] = {}
        self._free: List[List[Tuple[int, int, int]]] = [
            [] for __ in range(backend.n_dies)]
        self._active: List[Optional[BlockInfo]] = [None] * backend.n_dies
        #: Per-die lazy min-heaps of GC candidates:
        #: (valid_count, alloc_seq, key).  Entries go stale when the
        #: block is invalidated further, erased or re-allocated; they are
        #: validated against the live BlockInfo on pop.  The ordering
        #: (fewest valid pages, then earliest allocation) reproduces the
        #: original linear scan's choice byte for byte.
        self._victims: List[List[Tuple[int, int, Tuple[int, int, int]]]] = [
            [] for __ in range(backend.n_dies)]
        #: Dies whose GC state may have changed since the last collection
        #: pass (host program, invalidation, wear-level migration).  Only
        #: these are re-checked per write — the all-die rescan it
        #: replaces re-derived a no-op answer for every other die.
        self._gc_pending: Set[int] = set()
        self._alloc_counter = 0
        self._next_die = 0
        self.host_writes = 0
        self.gc_relocations = 0
        #: Page copies performed by static wear leveling (reported apart
        #: from GC relocations so neither is double-counted).
        self.static_wl_relocations = 0
        #: Read-modify-write copies charged by coarse-grained schemes
        #: (always 0 for the page-map reference).
        self.rmw_relocations = 0
        #: Translation-metadata page programs (DFTL-style schemes;
        #: always 0 for the page-map reference).
        self.translation_writes = 0
        #: Collections skipped because no die had room to relocate the
        #: best victim's valid pages (GC starvation fallback).
        self.gc_deferrals = 0
        #: Collections whose valid pages were relocated onto a *different*
        #: die because the victim's own die could not absorb them (the
        #: cross-die starvation escape; without it a die at zero free
        #: blocks with a full active block can never collect anything).
        self.gc_spills = 0
        #: Collection passes abandoned because collecting freed no net
        #: block (every candidate fully valid — relocation would churn
        #: pages forever without reclaiming space).
        self.gc_stalls = 0
        #: Unpinned writes redirected off a die that had no room left
        #: (starvation fallback; the round-robin choice is advisory).
        self.write_redirects = 0
        self.trims = 0

        for die in range(backend.n_dies):
            for plane in range(backend.planes):
                for block in range(backend.blocks):
                    self._free[die].append((die, plane, block))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def lookup(self, logical_page: int) -> Optional[PhysicalPage]:
        """Current physical location of a logical page (None if unmapped)."""
        self._check_lpn(logical_page)
        return self._map.get(logical_page)

    def read(self, logical_page: int) -> Optional[PhysicalPage]:
        """Read: returns the physical page accessed (None if never written)."""
        location = self.lookup(logical_page)
        if location is not None:
            self.backend.read(location)
        return location

    def write(self, logical_page: int) -> PhysicalPage:
        """Host write; returns the new physical location."""
        self._check_lpn(logical_page)
        location = self._program_page(logical_page)
        self.host_writes += 1
        self._collect_if_needed(location[0])
        return location

    def trim(self, logical_page: int) -> None:
        """Invalidate a logical page without rewriting it."""
        self._check_lpn(logical_page)
        location = self._map.pop(logical_page, None)
        if location is not None:
            self._invalidate(location)
            self.trims += 1

    @property
    def relocated_writes(self) -> int:
        """All non-host page programs: GC + static WL + RMW + translation."""
        return (self.gc_relocations + self.static_wl_relocations
                + self.rmw_relocations + self.translation_writes)

    @property
    def waf(self) -> float:
        """Measured write amplification.

        ``inf`` when background relocations occurred before any host
        write (e.g. a pure wear-leveling phase): the amplification is
        unbounded against zero host traffic, and reporting 1.0 would
        hide the relocation traffic entirely.
        """
        if self.host_writes == 0:
            return float("inf") if self.relocated_writes else 1.0
        return (self.host_writes + self.relocated_writes) / self.host_writes

    def mapped_pages(self) -> int:
        return len(self._map)

    def free_blocks(self, die: int) -> int:
        return len(self._free[die])

    def write_pointer_of(self, die: int, plane: int, block: int) -> int:
        """Programmed-page count of a physical block (0 if free/erased).

        Lets platform adapters mirror the FTL's instantaneous state onto
        timed NAND models after an untimed preconditioning phase.
        """
        info = self._blocks.get((die, plane, block))
        return info.write_pointer if info is not None else 0

    def wear_spread(self) -> Tuple[int, int]:
        """(min, max) P/E cycles across all blocks (wear-leveling health)."""
        counts = [self.backend.pe_of(die, plane, block)
                  for die in range(self.backend.n_dies)
                  for plane in range(self.backend.planes)
                  for block in range(self.backend.blocks)]
        return min(counts), max(counts)

    def counters(self) -> Dict[str, object]:
        """Flat accounting snapshot (feeds device/sweep FTL metrics)."""
        return {
            "host_writes": self.host_writes,
            "gc_relocations": self.gc_relocations,
            "static_wl_relocations": self.static_wl_relocations,
            "static_wl_migrations": self.static_wl_migrations,
            "rmw_relocations": self.rmw_relocations,
            "translation_writes": self.translation_writes,
            "gc_deferrals": self.gc_deferrals,
            "gc_stalls": self.gc_stalls,
            "gc_spills": self.gc_spills,
            "write_redirects": self.write_redirects,
            "trims": self.trims,
            "mapped_pages": self.mapped_pages(),
            "waf": self.waf,
        }

    def reset_counters(self) -> None:
        """Zero every counter :meth:`counters` reports (a scheme's own
        included) but the derived ``mapped_pages`` and ``waf``; the
        mapping is untouched."""
        for name in self.counters():
            if name not in ("mapped_pages", "waf"):
                setattr(self, name, 0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_lpn(self, logical_page: int) -> None:
        if not 0 <= logical_page < self.logical_pages:
            raise FtlError(f"logical page {logical_page} out of range "
                           f"[0, {self.logical_pages})")

    def _pick_die(self) -> int:
        die = self._next_die
        self._next_die = (self._next_die + 1) % self.backend.n_dies
        return die

    def _room_of(self, die: int) -> int:
        """Pages this die can still absorb without a GC pass: space left
        in the active block plus every block on the free list."""
        active = self._active[die]
        room = 0 if active is None \
            else max(0, self.backend.pages - active.write_pointer)
        return room + len(self._free[die]) * self.backend.pages

    def _allocate_block(self, die: int) -> BlockInfo:
        if not self._free[die]:
            raise FtlError(f"die {die} has no free blocks (GC starvation)")
        # Dynamic wear leveling: coldest free block first.
        coldest_index = min(
            range(len(self._free[die])),
            key=lambda i: self.backend.pe_of(*self._free[die][i]))
        key = self._free[die].pop(coldest_index)
        self._alloc_counter += 1
        info = BlockInfo(*key, alloc_seq=self._alloc_counter)
        self._blocks[key] = info
        return info

    def _program_page(self, logical_page: int,
                      die: Optional[int] = None) -> PhysicalPage:
        target_die = die if die is not None else self._pick_die()
        active = self._active[target_die]
        if die is None and not self._free[target_die] \
                and (active is None
                     or active.write_pointer >= self.backend.pages):
            # The round-robin pick cannot absorb this page (no active
            # room, no free block — its GC is deferring).  Unpinned
            # writes are die-agnostic, so redirect to the roomiest die
            # instead of crashing in _allocate_block; a pinned die
            # (GC/WL relocation) is never redirected — the collector
            # pre-checks capacity before committing to a victim.
            target_die = max(range(self.backend.n_dies),
                             key=lambda d: (self._room_of(d), -d))
            active = self._active[target_die]
            self.write_redirects += 1
        if active is None or active.write_pointer >= self.backend.pages:
            if active is not None:
                # The outgoing (full) block becomes a GC candidate now.
                self._push_victim(active)
            active = self._allocate_block(target_die)
            self._active[target_die] = active
        page_index = active.write_pointer
        active.write_pointer += 1
        location = (active.die, active.plane, active.block, page_index)

        previous = self._map.get(logical_page)
        if previous is not None:
            self._invalidate(previous)
        self._map[logical_page] = location
        active.valid_pages.add(page_index)
        self._lpn_of.setdefault(active.key, {})[page_index] = logical_page
        self.backend.program(location)
        return location

    def _invalidate(self, location: PhysicalPage) -> None:
        die, plane, block, page = location
        key = (die, plane, block)
        info = self._blocks.get(key)
        if info is None:
            raise FtlError(f"invalidating page in unknown block {key}")
        info.valid_pages.discard(page)
        lpn_map = self._lpn_of.get(key)
        if lpn_map is not None:
            lpn_map.pop(page, None)
        if info is not self._active[die] \
                and info.write_pointer >= self.backend.pages:
            self._push_victim(info)
        # An invalidation can turn a previously uncollectable die (victim
        # too full to relocate) into a collectable one; queue it for the
        # next collection pass, exactly when the all-die rescan would
        # have picked it up.
        self._gc_pending.add(die)

    def _push_victim(self, info: BlockInfo) -> None:
        heapq.heappush(self._victims[info.die],
                       (len(info.valid_pages), info.alloc_seq, info.key))

    def _collect_if_needed(self, die_hint: int) -> None:
        # The hinted die plus any die whose state changed since the last
        # pass (queued by _invalidate / _static_wear_level).  Processing
        # the pending set in die order reproduces the retired all-die
        # rescan byte for byte: a die that is neither hinted nor pending
        # is either at its watermark or provably unchanged, so the scan
        # it no longer gets was a no-op.
        self._gc_pending.add(die_hint)
        pending, self._gc_pending = sorted(self._gc_pending), set()
        for die in pending:
            while len(self._free[die]) < self.gc_low_watermark:
                before = len(self._free[die])
                if not self._collect_one(die):
                    break
                if len(self._free[die]) <= before:
                    # The collection freed no net block (a fully-valid
                    # victim was moved, not reclaimed).  Nothing gets
                    # invalidated during pure relocation, so repeating
                    # can only churn forever — stop; the next host
                    # overwrite creates invalid pages and GC resumes.
                    self.gc_stalls += 1
                    break
        if self.static_wl_threshold:
            self._static_wear_level()

    def _static_wear_level(self) -> None:
        """Migrate cold data off the coldest block when the P/E spread
        grows past the threshold (classic static wear leveling)."""
        for die in range(self.backend.n_dies):
            hottest = max(
                (self.backend.pe_of(die, plane, block)
                 for plane in range(self.backend.planes)
                 for block in range(self.backend.blocks)), default=0)
            # Coldest *occupied* block with data that never moves.
            candidates = [
                info for info in self._blocks.values()
                if info.die == die and info is not self._active[die]
                and info.write_pointer >= self.backend.pages
                and info.valid_pages
            ]
            if not candidates:
                continue
            coldest = min(candidates,
                          key=lambda info: self.backend.pe_of(*info.key))
            spread = hottest - self.backend.pe_of(*coldest.key)
            if spread <= self.static_wl_threshold:
                continue
            # Relocate the cold block's valid pages and free it.
            key = coldest.key
            lpn_map = self._lpn_of.get(key, {})
            for page_index in sorted(coldest.valid_pages):
                logical_page = lpn_map.get(page_index)
                if logical_page is None:
                    raise FtlError(
                        f"cold page {page_index} in {key} has no lpn")
                self.backend.read((coldest.die, coldest.plane,
                                   coldest.block, page_index))
                self._program_page(logical_page, die=die)
                self.static_wl_relocations += 1
            coldest.valid_pages.clear()
            self._lpn_of.pop(key, None)
            self._blocks.pop(key, None)
            self.backend.erase(coldest.die, coldest.plane, coldest.block)
            self._free[die].append(key)
            self.static_wl_migrations += 1

    def _collect_one(self, die: int) -> bool:
        victim = self._pick_victim(die)
        if victim is None:
            return False
        # Starvation guard: relocating the victim's valid pages consumes
        # room in the active block and then fresh blocks off the free
        # list.  If the die cannot absorb them, collecting would crash
        # mid-relocation inside _allocate_block.  Spill the valid pages
        # to the roomiest other die when one can take them (otherwise a
        # die at zero free blocks with a full active block deadlocks:
        # its GC needs room that only its GC can create); defer only
        # when no die on the device has room.
        target = die
        if len(victim.valid_pages) > self._room_of(die):
            needed = len(victim.valid_pages)
            spill_dies = [d for d in range(self.backend.n_dies)
                          if d != die and self._room_of(d) >= needed]
            if not spill_dies:
                self.gc_deferrals += 1
                return False
            target = max(spill_dies,
                         key=lambda d: (self._room_of(d), -d))
            self.gc_spills += 1
        key = victim.key
        lpn_map = self._lpn_of.get(key, {})
        for page_index in sorted(victim.valid_pages):
            logical_page = lpn_map.get(page_index)
            if logical_page is None:
                raise FtlError(f"valid page {page_index} in {key} has no lpn")
            self.backend.read((victim.die, victim.plane, victim.block,
                               page_index))
            self._program_page(logical_page, die=target)
            self.gc_relocations += 1
        victim.valid_pages.clear()
        self._lpn_of.pop(key, None)
        self._blocks.pop(key, None)
        self.backend.erase(victim.die, victim.plane, victim.block)
        self._free[die].append(key)
        return True

    def _pick_victim(self, die: int) -> Optional[BlockInfo]:
        """Greedy: fully-written block on this die with fewest valid pages.

        Lazy-heap lookup: pop entries whose (count, seq) no longer match
        a live, full, non-active block; the first live entry is the
        victim.  It is *peeked*, not consumed — erasing the block makes
        the entry stale, and a deferred collection leaves it in place.
        """
        heap = self._victims[die]
        while heap:
            count, seq, key = heap[0]
            info = self._blocks.get(key)
            if (info is None or info.alloc_seq != seq
                    or info is self._active[die]
                    or info.write_pointer < self.backend.pages
                    or len(info.valid_pages) != count):
                heapq.heappop(heap)
                continue
            return info
        return None
