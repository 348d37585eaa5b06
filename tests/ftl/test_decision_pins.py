"""Byte-level pins of every FTL decision.

Each registered scheme (DFTL at two mapping-DRAM budgets, the page map
once more with static wear leveling) runs one seeded
write/overwrite/trim/read stream on a small :class:`JournalingBackend`
with garbage collection active.  The SHA-256 of the drained journal
(every program/read/erase in order, so every placement and victim
choice) and of ``counters()`` is pinned, as are the block write pointers
and the logical map that :meth:`FtlSsdDevice.precondition_steady` leaves
on the ``ftl_dftl_steady`` architecture.  A change to the FTL's
bookkeeping that claims to keep its behavior must leave these hashes
untouched; a change that moves one on purpose re-records it.
"""

import hashlib
import json
import random

import pytest

from repro.core.ftlsweep import ftl_base_architecture
from repro.ftl import JournalingBackend, make_ftl
from repro.kernel import Simulator
from repro.ssd import FtlSsdDevice

N_DIES, PLANES, BLOCKS, PAGES = 2, 2, 10, 16
PAGE_BYTES = 64
LOGICAL = int(N_DIES * PLANES * BLOCKS * PAGES * 0.7)
STEPS = 3000

#: Translation pages of a DFTL over ``LOGICAL`` data pages.
TPAGES = -(-LOGICAL // (PAGE_BYTES // 4))

#: case -> (make_ftl keyword arguments, journal sha256, counters sha256)
CASES = {
    "pagemap": (
        dict(name="pagemap"),
        "e45a7d459c39276678447e5581b328d4b6c068f9a3d60d77f26b09c8a1ccb6d0",
        "c6c681d2dda3d7aa81621db46ab302ff4a5139f48eb807e4b4a2d2f8ea5764ec"),
    "pagemap_static_wl": (
        dict(name="pagemap", static_wl_threshold=1),
        "76c52bc412af5523ddef34374aa06761cced4fccfe3a578f68f34f8c680ed44d",
        "a26c5684d8236e54614ed727eb7bdffe47fec945adec520d64cf6d65b81fc472"),
    "groupmap": (
        dict(name="groupmap"),
        "c3d2d074716f050bbb2815510396949caa70968f82a783bab3595654173a5d0a",
        "59b5452d81161ec3c7843c6cac320dc8645bca6b68c752722761369801f9b449"),
    "blockmap": (
        dict(name="blockmap"),
        "a21c8fa40befd579a56ae15aac7b4d2e9069886089b740a7d656fa29c660fd97",
        "83e943577d79110ddae7b020af5a4c41544d43d588a77bad461d63eba0557443"),
    # Directory plus two cached translation pages: the CMT thrashes.
    "dftl_starved": (
        dict(name="dftl", ftl_dram_bytes=TPAGES * 4 + 2 * PAGE_BYTES),
        "54583b53096a512fe01eaff8f0ed7fd51acf8076a38524eba407d1f3cf89a087",
        "c4d8c98c6f2bf5d5fd6afea583a0e93bb22ca76d82a5ba01994c2288b09ea28c"),
    "dftl_roomy": (
        dict(name="dftl", ftl_dram_bytes=TPAGES * 4 + 8 * PAGE_BYTES),
        "7206a2875ff38e0a39afe62d673a88094e7ddc3ec2e48b3771af8c6b7fcb05f7",
        "b9fd6d1e4d84c849349d169aad2516964d9ea62872fe9080d0cfee46b008d693"),
}

#: What ``precondition_steady`` leaves on the ``ftl_dftl_steady``
#: architecture: block write pointers, the logical map, per-block erase
#: counts, and the backend's program/read/erase totals.
STEADY_WRITE_POINTERS = \
    "dba41dd436ce7d13d3d04b44d3d5890e615dd200c4b0000e6f3cf2020c1a4f96"
STEADY_MAP = \
    "1ef18b03fffa5c233652e2fce9d6fecb04891347895b8b3a2d93748e78b095aa"
STEADY_ERASES = \
    "7ce1aa53b72213795e9ae7aeb19e226fb9458a5896ff8e87d4f7ffc6ccfb1787"
STEADY_TOTALS = (28992, 19771, 171)


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def run_stream(name, **kwargs):
    """Sequential fill, then a seeded 60/15/25 overwrite/trim/read mix."""
    backend = JournalingBackend(N_DIES, PLANES, BLOCKS, PAGES)
    ftl = make_ftl(name, backend, LOGICAL, page_bytes=PAGE_BYTES, **kwargs)
    span = getattr(ftl, "data_pages", ftl.logical_pages)
    rng = random.Random(0x5EED)
    for lpn in range(span):
        ftl.write(lpn)
    for __ in range(STEPS):
        roll = rng.random()
        lpn = rng.randrange(span)
        if roll < 0.60:
            ftl.write(lpn)
        elif roll < 0.75:
            ftl.trim(lpn)
        else:
            ftl.read(lpn)
    return ftl, backend.drain()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_decisions_are_pinned(case):
    kwargs, journal_sha, counters_sha = CASES[case]
    ftl, journal = run_stream(**kwargs)
    counters = ftl.counters()
    # The stream reaches the machinery it pins.
    assert counters["gc_relocations"] > 0
    if kwargs.get("static_wl_threshold"):
        assert counters["static_wl_migrations"] > 0
    assert digest(journal) == journal_sha
    assert digest(counters) == counters_sha


def test_steady_precondition_is_pinned():
    arch = ftl_base_architecture().scaled(ftl_scheme="dftl",
                                          ftl_dram_bytes=8 * 1024)
    device = FtlSsdDevice(Simulator(), arch, logical_utilization=0.75,
                          ftl_blocks_per_plane=8)
    device.precondition_steady()
    ftl, backend = device.ftl, device.backend
    write_pointers = [ftl.write_pointer_of(die, plane, block)
                      for die in range(backend.n_dies)
                      for plane in range(backend.planes)
                      for block in range(backend.blocks)]
    mapping = [ftl.lookup(lpn) for lpn in range(device.logical_pages)]
    erases = [[*key, count] for key, count in sorted(backend.pe_cycles.items())]
    assert digest(write_pointers) == STEADY_WRITE_POINTERS
    assert digest(mapping) == STEADY_MAP
    assert digest(erases) == STEADY_ERASES
    assert (backend.programs, backend.reads, backend.erases) == STEADY_TOTALS
