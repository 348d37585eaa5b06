"""Tests for the FTL scheme registry (schemes as a design-space axis)."""

import random

import pytest

from repro.ftl import (DEFAULT_GROUP_PAGES, ENTRY_BYTES, FTL_SCHEMES,
                       DftlFtl, FlashBackend, FtlError, FtlScheme,
                       GroupMapFtl, PageMapFtl, register_scheme,
                       get_scheme, make_ftl, scheme_footprint,
                       scheme_names)

PAGE_BYTES = 64  # small translation pages keep DFTL cache action visible


def make_backend(n_dies=2, planes=1, blocks=16, pages=8):
    return FlashBackend(n_dies, planes, blocks, pages)


def build(name, n_dies=2, planes=1, blocks=16, pages=8, utilization=0.75,
          **kwargs):
    backend = make_backend(n_dies, planes, blocks, pages)
    logical = int(n_dies * planes * blocks * pages * utilization)
    return make_ftl(name, backend, logical, page_bytes=PAGE_BYTES,
                    **kwargs), backend, logical


class TestRegistry:
    def test_all_schemes_registered(self):
        assert scheme_names() == ["pagemap", "groupmap", "blockmap",
                                  "dftl"]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(FtlError, match="unknown FTL scheme"):
            get_scheme("hybridmap")
        with pytest.raises(FtlError, match="unknown FTL scheme"):
            make_ftl("hybridmap", make_backend(), 100, page_bytes=64)

    def test_factories_build_expected_classes(self):
        pagemap, __, __ = build("pagemap")
        groupmap, __, __ = build("groupmap")
        blockmap, backend, __ = build("blockmap")
        dftl, __, __ = build("dftl")
        assert type(pagemap) is PageMapFtl
        assert isinstance(groupmap, GroupMapFtl)
        assert isinstance(blockmap, GroupMapFtl)
        assert isinstance(dftl, DftlFtl)
        assert blockmap.scheme_name == "blockmap"
        assert blockmap.group_pages == backend.pages

    def test_register_scheme_is_pluggable(self):
        scheme = FtlScheme(
            name="_test_only", description="registry round-trip",
            factory=lambda backend, logical, page_bytes, dram, group,
            **kw: PageMapFtl(backend, logical, **kw),
            footprint=lambda logical, page_bytes, dram, group:
            scheme_footprint("pagemap", logical, page_bytes))
        register_scheme(scheme)
        try:
            assert "_test_only" in scheme_names()
            ftl, __, __ = build("_test_only")
            assert isinstance(ftl, PageMapFtl)
        finally:
            del FTL_SCHEMES["_test_only"]
        assert "_test_only" not in scheme_names()

    def test_kwargs_pass_through(self):
        ftl, __, __ = build("groupmap", static_wl_threshold=4)
        assert ftl.static_wl_threshold == 4


class TestFootprints:
    def test_pagemap_table_is_dram_resident(self):
        fp = scheme_footprint("pagemap", 1000, page_bytes=4096)
        assert fp.table_bytes == 1000 * ENTRY_BYTES
        assert fp.dram_bytes == fp.table_bytes
        assert fp.flash_bytes == 0
        assert fp.cached_fraction == 1.0

    def test_groupmap_shrinks_by_group_factor(self):
        fp = scheme_footprint("groupmap", 1000, page_bytes=4096)
        assert fp.table_entries == -(-1000 // DEFAULT_GROUP_PAGES)
        assert fp.table_bytes == fp.table_entries * ENTRY_BYTES

    def test_blockmap_uses_given_group(self):
        fp = scheme_footprint("blockmap", 1024, page_bytes=4096,
                              group_pages=128)
        assert fp.table_entries == 8
        assert fp.dram_bytes == 8 * ENTRY_BYTES

    def test_dftl_budget_sizes_the_cache(self):
        entries_per_tpage = PAGE_BYTES // ENTRY_BYTES
        logical = entries_per_tpage * 10     # exactly 10 tpages
        gtd = 10 * ENTRY_BYTES
        full = scheme_footprint("dftl", logical, page_bytes=PAGE_BYTES)
        assert full.cached_fraction == 1.0
        assert full.dram_bytes == gtd + 10 * PAGE_BYTES
        assert full.flash_bytes == 10 * PAGE_BYTES
        half = scheme_footprint("dftl", logical, page_bytes=PAGE_BYTES,
                                ftl_dram_bytes=gtd + 5 * PAGE_BYTES)
        assert half.cached_fraction == 0.5
        assert half.dram_bytes == gtd + 5 * PAGE_BYTES

    def test_instances_report_matching_footprints(self):
        for name in scheme_names():
            ftl, __, logical = build(name)
            fp = ftl.mapping_footprint()
            assert fp.scheme == name
            assert fp.table_bytes > 0
            assert fp.dram_bytes >= 0
            assert 0.0 <= fp.cached_fraction <= 1.0


class TestDftl:
    def test_budget_too_small_rejected(self):
        with pytest.raises(FtlError, match="cannot hold"):
            build("dftl", ftl_dram_bytes=8)

    def test_miss_reads_flash_resident_translation_page(self):
        ftl, backend, logical = build(
            "dftl", ftl_dram_bytes=None)
        # Force a tiny cache: directory + exactly one translation page.
        small, backend, logical = build(
            "dftl",
            ftl_dram_bytes=(ftl.translation_pages * ENTRY_BYTES
                            + PAGE_BYTES))
        assert small.cached_tpages == 1
        span = small.entries_per_tpage
        small.write(0)                       # tpage 0 cached, dirty
        small.write(span)                    # evicts dirty tpage 0
        assert small.translation_writes >= 1
        before = small.translation_reads
        small.write(0)                       # miss: tpage 0 now on flash
        assert small.translation_reads == before + 1
        assert small.cmt_misses >= 3

    def test_full_budget_matches_pagemap_traffic(self):
        """A DFTL whose DRAM holds the whole table degenerates to the
        page-map reference: no evictions, no translation traffic, and
        the data-path journal is operation-for-operation identical."""

        def journal(name):
            backend = make_backend()
            logical = int(2 * 1 * 16 * 8 * 0.75)
            log = []
            for op in ("program", "read", "erase"):
                original = getattr(backend, op)

                def wrap(*args, __op=op, __orig=original):
                    log.append((__op, args))
                    return __orig(*args)

                setattr(backend, op, wrap)
            ftl = make_ftl(name, backend, logical, page_bytes=PAGE_BYTES)
            rng = random.Random(99)
            for lpn in range(logical):
                ftl.write(lpn)
            for __ in range(2000):
                roll = rng.random()
                lpn = rng.randrange(logical)
                if roll < 0.7:
                    ftl.write(lpn)
                elif roll < 0.85:
                    ftl.trim(lpn)
                else:
                    ftl.read(lpn)
            return log, ftl

        pagemap_log, pagemap = journal("pagemap")
        dftl_log, dftl = journal("dftl")
        assert dftl.translation_writes == 0
        assert dftl.translation_reads == 0
        assert dftl_log == pagemap_log
        assert dftl.waf == pagemap.waf

    def test_host_space_excludes_translation_pages(self):
        ftl, __, logical = build("dftl")
        assert ftl.data_pages == logical
        assert ftl.logical_pages == logical + ftl.translation_pages
        with pytest.raises(FtlError):
            ftl.write(logical)          # translation space is internal
        with pytest.raises(FtlError):
            ftl.read(logical)


class TestGroupMap:
    def test_sub_group_overwrite_pays_rmw(self):
        ftl, __, __ = build("groupmap")
        group = ftl.group_pages
        for page in range(group):
            ftl.write(page)
        before = ftl.rmw_relocations
        ftl.write(0)
        # The other live pages of the group were rewritten with it.
        assert ftl.rmw_relocations == before + (group - 1)

    def test_group_lands_contiguously_on_one_die(self):
        """Every rewrite lays the whole group down back-to-back on one
        die — the property that lets a single entry describe it."""
        ftl, backend, __ = build("groupmap")
        log = []
        original = backend.program
        backend.program = lambda loc: (log.append(loc), original(loc))[1]
        for page in range(ftl.group_pages):
            ftl.write(page)
        # The last write rewrote the full group: its programs are the
        # group's final locations, laid down in logical order.
        tail = log[-ftl.group_pages:]
        assert [ftl.lookup(page) for page in range(ftl.group_pages)] \
            == tail
        assert len({loc[0] for loc in tail}) == 1

    def test_rmw_counts_into_waf(self):
        ftl, __, __ = build("groupmap")
        for page in range(ftl.group_pages):
            ftl.write(page)
        ftl.write(0)
        assert ftl.relocated_writes >= ftl.group_pages - 1
        assert ftl.waf > 1.0

    def test_unwritten_group_neighbors_are_not_copied(self):
        ftl, __, __ = build("groupmap")
        ftl.write(0)                    # rest of the group unmapped
        assert ftl.rmw_relocations == 0


def build_starved_dftl():
    """A DFTL whose DRAM holds the directory plus one translation page."""
    full, __, __ = build("dftl")
    return build("dftl", ftl_dram_bytes=(full.translation_pages
                                         * ENTRY_BYTES + PAGE_BYTES))


RESET_CASES = ([pytest.param(lambda name=name: build(name), id=name)
                for name in scheme_names()]
               + [pytest.param(build_starved_dftl, id="dftl-starved")])


class TestResetCounters:
    @pytest.mark.parametrize("make", RESET_CASES)
    def test_zeroes_every_counter_and_keeps_the_map(self, make):
        ftl, __, logical = make()
        rng = random.Random(0x5E7)
        for __ in range(logical * 3):
            lpn = rng.randrange(logical)
            draw = rng.random()
            if draw < 0.6:
                ftl.write(lpn)
            elif draw < 0.8:
                ftl.trim(lpn)
            else:
                ftl.read(lpn)
        before = ftl.counters()
        stored = [name for name in before if name not in ("mapped_pages",
                                                          "waf")]
        assert before["host_writes"] and before["trims"]
        assert before["gc_relocations"] or before["rmw_relocations"]
        if isinstance(ftl, DftlFtl) and ftl.cached_tpages == 1:
            assert before["translation_writes"] and before["cmt_misses"]
        mapping = [ftl.lookup(lpn) for lpn in range(logical)]

        ftl.reset_counters()

        after = ftl.counters()
        assert sorted(after) == sorted(before)
        assert {name: after[name] for name in stored} \
            == dict.fromkeys(stored, 0)
        assert after["mapped_pages"] == before["mapped_pages"]
        assert after["waf"] == 1.0
        assert [ftl.lookup(lpn) for lpn in range(logical)] == mapping
