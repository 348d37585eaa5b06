"""Shared invariant property suite: every registered scheme must pass.

One seeded random workload generator (writes, trims, reads, GC and wear
leveling all exercised) and one invariant checker, parametrized over the
whole scheme registry — a new scheme is held to the same consistency
contract as the page-map reference by construction.
"""

import random

import pytest

from repro.ftl import ENTRY_BYTES, DftlFtl, FlashBackend, make_ftl, \
    scheme_names

PAGE_BYTES = 64

N_DIES, PLANES, BLOCKS, PAGES = 2, 1, 16, 8
PHYSICAL = N_DIES * PLANES * BLOCKS * PAGES
LOGICAL = int(PHYSICAL * 0.75)


def build(name, **kwargs):
    backend = FlashBackend(N_DIES, PLANES, BLOCKS, PAGES)
    if name == "dftl" and "ftl_dram_bytes" not in kwargs:
        # Starve the cache (directory + two translation pages) so misses,
        # evictions and translation GC traffic all happen in-suite.
        tpages = -(-LOGICAL // (PAGE_BYTES // ENTRY_BYTES))
        kwargs["ftl_dram_bytes"] = tpages * ENTRY_BYTES + 2 * PAGE_BYTES
    return make_ftl(name, backend, LOGICAL, page_bytes=PAGE_BYTES,
                    **kwargs)


def host_pages(ftl) -> int:
    """The logical space a host may address (DFTL hides its tpages)."""
    return getattr(ftl, "data_pages", ftl.logical_pages)


def check_invariants(ftl) -> None:
    backend = ftl.backend
    # Map -> block bookkeeping agrees in both directions.
    valid_total = 0
    for lpn, location in ftl._map.items():
        die, plane, block, page = location
        info = ftl._blocks.get((die, plane, block))
        assert info is not None, f"lpn {lpn} maps into an erased block"
        assert info.lpn_of.get(page) == lpn
    for key, info in ftl._blocks.items():
        assert info.key == key
        assert 0 <= info.write_pointer <= backend.pages
        valid_total += len(info.lpn_of)
        for page, lpn in info.lpn_of.items():
            assert page < info.write_pointer
            assert ftl._map[lpn] == (*key, page)
    assert valid_total == len(ftl._map)
    # Every physical block is exactly one of: free, allocated.
    for die in range(backend.n_dies):
        free = set(ftl._free[die])
        allocated = {key for key in ftl._blocks if key[0] == die}
        assert not free & allocated
        assert free | allocated == {
            (die, plane, block)
            for plane in range(backend.planes)
            for block in range(backend.blocks)}
    # Capacity: mapped pages can never exceed the logical space.
    assert len(ftl._map) <= ftl.logical_pages
    if isinstance(ftl, DftlFtl):
        assert len(ftl._cmt) <= ftl.cached_tpages
        assert all(0 <= t < ftl.translation_pages for t in ftl._cmt)


@pytest.mark.parametrize("scheme", scheme_names())
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_workload_preserves_invariants(scheme, seed):
    ftl = build(scheme)
    span = host_pages(ftl)
    rng = random.Random(seed)
    shadow = set()                      # lpns that must read as mapped
    for step in range(1500):
        roll = rng.random()
        lpn = rng.randrange(span)
        if roll < 0.6:
            ftl.write(lpn)
            shadow.add(lpn)
        elif roll < 0.75:
            ftl.trim(lpn)
            shadow.discard(lpn)
        elif roll < 0.9:
            location = ftl.read(lpn)
            assert (location is not None) == (lpn in shadow)
        else:
            location = ftl.lookup(lpn)
            assert (location is not None) == (lpn in shadow)
        if step % 250 == 0:
            check_invariants(ftl)
    check_invariants(ftl)
    # Every shadow page still reads back from a live physical location.
    for lpn in shadow:
        assert ftl.lookup(lpn) is not None


@pytest.mark.parametrize("scheme", scheme_names())
def test_static_wear_leveling_preserves_invariants(scheme):
    ftl = build(scheme, static_wl_threshold=4)
    span = host_pages(ftl)
    rng = random.Random(7)
    hot = list(range(span // 4))        # skewed: quarter of the space hot
    for lpn in range(span):
        ftl.write(lpn)
    for __ in range(3000):
        ftl.write(rng.choice(hot))
    check_invariants(ftl)
    for lpn in range(span):
        assert ftl.lookup(lpn) is not None


@pytest.mark.parametrize("scheme", scheme_names())
def test_trim_then_gc_keeps_map_consistent(scheme):
    """TRIM a swath, then force GC over it: trimmed pages must stay
    unmapped and never be resurrected by relocation."""
    ftl = build(scheme)
    span = host_pages(ftl)
    for lpn in range(span):
        ftl.write(lpn)
    trimmed = set(range(0, span, 2))
    for lpn in trimmed:
        ftl.trim(lpn)
    check_invariants(ftl)
    rng = random.Random(13)
    survivors = [lpn for lpn in range(span) if lpn not in trimmed]
    for __ in range(4 * span):          # churn: plenty of GC cycles
        ftl.write(rng.choice(survivors))
    check_invariants(ftl)
    for lpn in trimmed:
        assert ftl.lookup(lpn) is None
    for lpn in survivors:
        assert ftl.lookup(lpn) is not None


@pytest.mark.parametrize("scheme", scheme_names())
def test_exactly_full_active_blocks(scheme):
    """Writes landing exactly on block boundaries (the active block
    swaps at precisely write_pointer == pages) keep the books straight."""
    ftl = build(scheme)
    span = host_pages(ftl)
    boundary_writes = N_DIES * PAGES * 3    # three full blocks per die
    for lpn in range(min(span, boundary_writes)):
        ftl.write(lpn)
    check_invariants(ftl)
    for die in range(N_DIES):
        active = ftl._active[die]
        if active is not None:
            assert active.write_pointer <= PAGES
    # Overwrite the same span once more to retire those exact-full blocks
    # through GC.
    for lpn in range(min(span, boundary_writes)):
        ftl.write(lpn)
    check_invariants(ftl)


@pytest.mark.parametrize("scheme", scheme_names())
def test_counters_are_consistent(scheme):
    ftl = build(scheme)
    span = host_pages(ftl)
    rng = random.Random(21)
    for lpn in range(span):
        ftl.write(lpn)
    for __ in range(1000):
        ftl.write(rng.randrange(span))
    counters = ftl.counters()
    assert counters["host_writes"] == span + 1000
    assert ftl.relocated_writes == (
        counters["gc_relocations"] + counters["static_wl_relocations"]
        + counters["rmw_relocations"] + counters["translation_writes"])
    assert counters["waf"] == pytest.approx(
        (ftl.host_writes + ftl.relocated_writes) / ftl.host_writes)
    assert counters["waf"] >= 1.0
