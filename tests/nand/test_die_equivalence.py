"""Seeded equivalence pin of the die's array-operation halves.

``NandDie.begin_*`` / ``finish_*`` take a one-plane command on a short
path and a multi-plane command through the per-plane loops.  This test
drives both forms, with and without a fault plan, through a seeded mix
of erases, in-order and out-of-order programs, reads of written and
unwritten pages and commands to a busy die, and compares every
duration, RBER, status, error message, counter, wear state and write
pointer with ``die_equivalence.json``.  Regenerate the pins with
``python tests/nand/test_die_equivalence.py`` only after an intended
change to the die model.
"""

import json
import random
from pathlib import Path

import pytest

from repro.faults import FaultConfig, FaultPlan
from repro.kernel import Simulator
from repro.nand import (MlcTimingModel, NandDie, NandGeometry, PageAddress,
                        WearModel)

PINS = Path(__file__).with_name("die_equivalence.json")

GEO = NandGeometry(planes_per_die=2, blocks_per_plane=6, pages_per_block=8,
                   page_bytes=4096, spare_bytes=224)

COUNTERS = ("reads", "programs", "multiplane_reads", "multiplane_programs",
            "multiplane_erases", "reads_unwritten", "stuck_busy_faults",
            "program_fails", "erase_fails", "grown_bad_blocks")

#: (label, die RNG seed, fault-plan seed or None)
CASES = (("plain", 11, None), ("faults", 29, 5))


def _error(exc):
    return [type(exc).__name__, str(exc)]


def die_trace(seed, fault_seed):
    """Run the seeded command mix on a fresh die; returns its records."""
    sim = Simulator()
    die = NandDie(sim, "die0", GEO, MlcTimingModel(), WearModel(),
                  initial_pe_cycles=900)
    if fault_seed is not None:
        die.set_fault_plan(FaultPlan(FaultConfig(
            enabled=True, seed=fault_seed, stuck_busy_prob=0.3,
            program_fail_prob=0.15, erase_fail_prob=0.15), "equivalence"))
    die.preload_block(1, 5, 3)
    rng = random.Random(seed)
    records = []

    def run(kind, begin, finish, *args, via_process=False):
        """One command: its halves around the array time, or the die's
        generator as a process."""
        if via_process:
            try:
                value = sim.run(until=sim.process(getattr(die, kind)(*args)))
            except Exception as exc:
                records.append([kind, repr(args), "refused", _error(exc),
                                "process"])
                return
            records.append([kind, repr(args), "process", value, sim.now,
                            [list(a) for a in die.failed_programs],
                            die.last_erase_failed])
            return
        try:
            duration = begin(*args)
        except Exception as exc:  # the die refused the command
            records.append([kind, repr(args), "refused", _error(exc)])
            return
        sim.run(until=sim.now + duration)
        result = finish(*args)
        records.append([kind, repr(args), duration, result, sim.now,
                        [list(a) for a in die.failed_programs],
                        die.last_erase_failed])

    for step in range(160):
        block = rng.randrange(GEO.blocks_per_plane)
        plane = rng.randrange(GEO.planes_per_die)
        roll = rng.random()
        multi = rng.random() < 0.35
        via_process = rng.random() < 0.25
        if roll < 0.12:
            more = ((1 - plane, block),) if multi else ()
            run("erase", die.begin_erase, die.finish_erase, plane, block,
                *more, via_process=via_process)
        elif roll < 0.55:
            pointer = die.write_pointer(plane, block)
            if rng.random() < 0.08:
                pointer += 1  # out of order: the die refuses it
            if pointer >= GEO.pages_per_block:
                continue
            targets = [PageAddress(plane, block, pointer)]
            if multi and die.write_pointer(1 - plane, block) == pointer:
                targets.append(PageAddress(1 - plane, block, pointer))
            run("program", die.begin_program, die.finish_program, *targets,
                via_process=via_process)
        elif roll < 0.95:
            # Reads land past the write pointer too (reads_unwritten).
            page = rng.randrange(GEO.pages_per_block)
            targets = [PageAddress(plane, block, page)]
            if multi:
                targets.append(PageAddress(1 - plane, block, page))
            run("read", die.begin_read, die.finish_read, *targets,
                via_process=via_process)
        elif roll < 0.975:
            # A second command while the die is busy is refused.
            first = die.begin_read(PageAddress(plane, block, 0))
            try:
                die.begin_erase(plane, block)
            except Exception as exc:
                records.append(["busy", repr((plane, block)),
                                _error(exc)])
            sim.run(until=sim.now + first)
            records.append(["read", "busy-first", first,
                            die.finish_read(PageAddress(plane, block, 0))])
        else:
            try:
                die.begin_read(PageAddress(plane, block,
                                           GEO.pages_per_block))
            except Exception as exc:
                records.append(["invalid", repr((plane, block)),
                                _error(exc)])

    state = {
        "counters": {name: getattr(die, name) for name in COUNTERS},
        "busy_ps": die.array_busy.busy_time(),
        "now": sim.now,
        "wear": sorted([list(key), state.pe_cycles, state.programmed_pages,
                        state.reads] for key, state in die._wear.items()),
        "pointers": sorted([list(key), pointer] for key, pointer
                           in die._write_pointers.items()),
        "bad": sorted(list(key) for key in die._bad_blocks),
    }
    return {"records": records, "state": state}


def _normalise(value):
    """JSON round trip: tuples become lists, as in the pins file."""
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("label, seed, fault_seed", CASES,
                         ids=[case[0] for case in CASES])
def test_die_halves_match_pins(label, seed, fault_seed):
    expected = json.loads(PINS.read_text())[label]
    actual = _normalise(die_trace(seed, fault_seed))
    assert actual["state"] == expected["state"]
    assert len(actual["records"]) == len(expected["records"])
    for index, (got, want) in enumerate(zip(actual["records"],
                                            expected["records"])):
        assert got == want, f"record {index}"


def test_pins_cover_every_form():
    """The pinned mix holds each command form and each refusal."""
    pins = json.loads(PINS.read_text())
    records = [record for case in pins.values()
               for record in case["records"]]
    kinds = {(record[0], record[2] if isinstance(record[2], str) else "")
             for record in records}
    for kind in ("read", "program", "erase"):
        assert (kind, "") in kinds and (kind, "process") in kinds
    assert ("program", "refused") in kinds
    messages = [record[3][1] for record in records
                if record[2] == "refused"]
    assert any("violates sequential-programming rule" in message
               for message in messages)
    assert any(record[0] == "busy" for record in records)
    assert any(record[0] == "invalid" for record in records)
    multi = [record for record in records
             if record[0] == "read" and record[1].count("PageAddress") == 2]
    assert multi
    for case in pins.values():
        assert case["state"]["counters"]["reads_unwritten"] > 0
    faults = pins["faults"]["state"]["counters"]
    assert faults["stuck_busy_faults"] and faults["program_fails"]
    assert faults["erase_fails"]


if __name__ == "__main__":
    PINS.write_text(json.dumps(
        {label: die_trace(seed, fault_seed)
         for label, seed, fault_seed in CASES}, indent=1) + "\n")
