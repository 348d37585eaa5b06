"""Regression tests for the page-map FTL bugfix sweep.

Three fixed defects, each pinned by a dedicated test:

1. GC crash mid-collection — ``_collect_one`` used to start relocating a
   victim and die inside ``_allocate_block`` ("no free blocks") when the
   die could not absorb the victim's valid pages.  Now it pre-checks and
   spills the relocation onto a sibling die with room (``gc_spills``),
   defers only when no die can absorb it (``gc_deferrals``), and a
   collection that frees no net block stops the pass (``gc_stalls``)
   instead of spinning forever.  Unpinned host writes likewise redirect
   off an exhausted die (``write_redirects``).
2. Victim selection / GC hint — ``_collect_if_needed`` used to rescan
   every die and ``_pick_victim`` was a linear scan.  The hint + pending
   set and the lazy min-heap must reproduce the scan's choice exactly.
3. WAF accounting — static wear leveling folded its page copies into
   ``gc_relocations`` (double-reported) and ``waf`` returned 1.0 with
   zero host writes even when relocations happened.
"""

import random

import pytest

from repro.ftl import FlashBackend, FtlError, PageMapFtl


def packed_die_at_starvation_edge():
    """One die, four 8-page blocks, filled so the best GC victim's valid
    pages exceed what the die can absorb (free list empty, two slots
    left in the active block, every victim holding 3+ valid pages)."""
    backend = FlashBackend(1, 1, 4, 8)
    ftl = PageMapFtl(backend, logical_pages=16, gc_low_watermark=1)
    for lpn in range(16):               # b0, b1 fully valid
        ftl._program_page(lpn, die=0)
    for lpn in (0, 1, 2, 3, 8, 9, 10, 11):   # b2 full; b0/b1 at 4 valid
        ftl._program_page(lpn, die=0)
    for lpn in (4, 12, 0, 1, 2, 3):     # b3 at wp=6; b0/b1 at 3 valid
        ftl._program_page(lpn, die=0)
    assert ftl.free_blocks(0) == 0
    return ftl, backend


class TestGcStarvation:
    def test_collection_defers_instead_of_crashing(self):
        ftl, __ = packed_die_at_starvation_edge()
        # Best victim holds 3 valid pages; the die can absorb only the
        # active block's 2 remaining slots.  The old code crashed here
        # with FtlError("no free blocks") mid-relocation.
        ftl._collect_if_needed(0)
        assert ftl.gc_deferrals == 1
        for lpn in range(16):           # no page was lost or corrupted
            assert ftl.lookup(lpn) is not None

    def test_gc_resumes_after_trim_frees_room(self):
        ftl, __ = packed_die_at_starvation_edge()
        ftl._collect_if_needed(0)
        assert ftl.gc_deferrals == 1
        # TRIM the deferred victim's remaining valid pages; the next
        # collection pass reclaims it without crashing.
        for lpn in (5, 6, 7):           # the 3 survivors of block b0
            ftl.trim(lpn)
        ftl._collect_if_needed(0)
        assert ftl.free_blocks(0) >= 1
        for lpn in range(16):
            expected_gone = lpn in (5, 6, 7)
            assert (ftl.lookup(lpn) is None) == expected_gone

    def test_fully_valid_victims_stall_without_spinning(self):
        """When every candidate is 100% valid, collecting relocates
        pages but frees no net block; the old loop span forever.  The
        churn guard must abandon the pass and count a stall."""
        backend = FlashBackend(1, 1, 6, 4)
        ftl = PageMapFtl(backend, logical_pages=12, gc_low_watermark=2)
        for lpn in range(12):           # b0..b2 fully valid
            ftl.write(lpn)
        # Tighten the watermark beyond what fully-valid blocks allow so
        # the next pass must try (and fail) to reclaim space.
        ftl.gc_low_watermark = 4
        ftl._collect_if_needed(0)       # old code: infinite loop here
        assert ftl.gc_stalls >= 1
        for lpn in range(12):
            assert ftl.lookup(lpn) is not None

    def test_spill_relocates_to_sibling_die_with_room(self):
        """A die at zero free blocks whose best victim exceeds its own
        room is deadlocked (its GC needs room only its GC can create)
        unless the relocation spills to a sibling die."""
        backend = FlashBackend(2, 1, 4, 8)
        ftl = PageMapFtl(backend, logical_pages=24, gc_low_watermark=1)
        for lpn in range(16):
            ftl._program_page(lpn, die=0)
        for lpn in (0, 1, 2, 3, 8, 9, 10, 11):
            ftl._program_page(lpn, die=0)
        for lpn in (4, 12, 0, 1, 2, 3):
            ftl._program_page(lpn, die=0)
        assert ftl.free_blocks(0) == 0       # die 0 packed, die 1 empty
        ftl._collect_if_needed(0)
        assert ftl.gc_spills == 1
        assert ftl.gc_deferrals == 0
        assert ftl.free_blocks(0) >= 1       # the victim was reclaimed
        for lpn in range(16):
            assert ftl.lookup(lpn) is not None
        # The spilled survivors (block b0's valid pages) live on die 1.
        assert {ftl.lookup(lpn)[0] for lpn in (5, 6, 7)} == {1}

    def test_host_write_redirects_off_exhausted_die(self):
        """An unpinned host write whose round-robin die has a full
        active block and an empty free list lands on the roomiest die
        instead of crashing in ``_allocate_block``."""
        backend = FlashBackend(2, 1, 4, 8)
        ftl = PageMapFtl(backend, logical_pages=24, gc_low_watermark=1)
        for lpn in range(16):
            ftl._program_page(lpn, die=0)
        for lpn in (0, 1, 2, 3, 8, 9, 10, 11):
            ftl._program_page(lpn, die=0)
        for lpn in (4, 12, 0, 1, 2, 3, 0, 1):    # fill the active block
            ftl._program_page(lpn, die=0)
        assert ftl.free_blocks(0) == 0
        assert ftl._active[0].write_pointer == backend.pages
        ftl._next_die = 0                    # force the exhausted pick
        location = ftl.write(16)
        assert ftl.write_redirects == 1
        assert location[0] == 1              # landed on the roomy die
        for lpn in range(17):
            assert ftl.lookup(lpn) is not None

    def test_random_churn_never_raises(self):
        """Sustained randomized traffic at high utilization never
        surfaces FtlError from inside garbage collection."""
        backend = FlashBackend(2, 1, 8, 8)
        ftl = PageMapFtl(backend, logical_pages=int(2 * 8 * 8 * 0.6))
        rng = random.Random(5)
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn)
        for __ in range(5000):
            if rng.random() < 0.9:
                ftl.write(rng.randrange(ftl.logical_pages))
            else:
                ftl.trim(rng.randrange(ftl.logical_pages))


def reference_pick_victim(ftl, die):
    """The retired linear scan: fewest valid pages, earliest allocation."""
    candidates = [
        info for info in ftl._blocks.values()
        if info.die == die and info is not ftl._active[die]
        and info.write_pointer >= ftl.backend.pages
    ]
    if not candidates:
        return None
    return min(candidates,
               key=lambda info: (len(info.lpn_of), info.alloc_seq))


class TestVictimSelection:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_heap_matches_linear_scan(self, seed):
        """The lazy min-heap must pick exactly the block the O(blocks)
        scan would, at every point of a random workload."""
        backend = FlashBackend(2, 1, 16, 8)
        ftl = PageMapFtl(backend, logical_pages=int(2 * 16 * 8 * 0.8))
        rng = random.Random(seed)
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn)
        for step in range(2000):
            roll = rng.random()
            lpn = rng.randrange(ftl.logical_pages)
            if roll < 0.8:
                ftl.write(lpn)
            else:
                ftl.trim(lpn)
            if step % 50 == 0:
                for die in range(backend.n_dies):
                    assert ftl._pick_victim(die) \
                        is reference_pick_victim(ftl, die)

    def test_watermark_restored_on_every_die(self):
        """The hint + pending set must keep every die's free list at the
        watermark exactly as the all-die rescan did — a die is only
        allowed below it while its victims are deferred or stalled."""
        backend = FlashBackend(4, 1, 8, 8)
        ftl = PageMapFtl(backend, logical_pages=int(4 * 8 * 8 * 0.6))
        rng = random.Random(17)
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn)
        for __ in range(3000):
            ftl.write(rng.randrange(ftl.logical_pages))
            if ftl.gc_deferrals == 0 and ftl.gc_stalls == 0:
                for die in range(backend.n_dies):
                    assert ftl.free_blocks(die) >= ftl.gc_low_watermark

    def test_pending_set_drains(self):
        backend = FlashBackend(2, 1, 8, 8)
        ftl = PageMapFtl(backend, logical_pages=int(2 * 8 * 8 * 0.6))
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn)
        # After a write returns, the pass has consumed the pending set.
        assert ftl._gc_pending == set()


class TestWafAccounting:
    def test_static_wl_not_folded_into_gc(self):
        """Static wear-leveling copies land in their own counter; the
        sum (not a double count) feeds the WAF."""
        backend = FlashBackend(1, 1, 16, 8)
        ftl = PageMapFtl(backend, logical_pages=int(16 * 8 * 0.7),
                         static_wl_threshold=2)
        rng = random.Random(9)
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn)
        hot = range(ftl.logical_pages // 8)      # cold data forms
        for __ in range(4000):
            ftl.write(rng.choice(hot))
        assert ftl.static_wl_migrations > 0
        assert ftl.static_wl_relocations > 0
        counters = ftl.counters()
        assert counters["static_wl_relocations"] \
            == ftl.static_wl_relocations
        assert counters["gc_relocations"] == ftl.gc_relocations
        # Total programs = host + every relocation class, each counted
        # exactly once.
        assert backend.programs == ftl.host_writes + ftl.relocated_writes

    def test_waf_sums_each_relocation_class_once(self):
        backend = FlashBackend(2, 1, 16, 8)
        ftl = PageMapFtl(backend, logical_pages=int(2 * 16 * 8 * 0.8))
        rng = random.Random(31)
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn)
        for __ in range(2000):
            ftl.write(rng.randrange(ftl.logical_pages))
        assert ftl.waf == (ftl.host_writes + ftl.relocated_writes) \
            / ftl.host_writes
        assert backend.programs == ftl.host_writes + ftl.relocated_writes

    def test_relocations_without_host_writes_is_infinite_not_one(self):
        """A pure background-relocation phase (host idle) used to report
        WAF 1.0, hiding the traffic entirely."""
        backend = FlashBackend(1, 1, 16, 8)
        ftl = PageMapFtl(backend, logical_pages=int(16 * 8 * 0.7))
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn)
        # The measured-window convention: counters zeroed after warm-up.
        ftl.host_writes = 0
        ftl.gc_relocations = 0
        assert ftl.waf == 1.0           # nothing happened yet
        ftl.gc_relocations = 25         # background GC, no host traffic
        assert ftl.waf == float("inf")

    def test_fresh_ftl_reports_waf_one(self):
        backend = FlashBackend(1, 1, 16, 8)
        ftl = PageMapFtl(backend, logical_pages=64)
        assert ftl.waf == 1.0
