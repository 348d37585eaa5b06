"""Cache-correctness tier for the sweep engine.

Hits only on identical configuration; any architecture field change, a
workload change, or a code-version salt bump is a miss; corrupted or
truncated cache files are misses, never crashes.
"""

import json
import os

import pytest

from repro.core import SweepCache, SweepPoint, SweepRunner, fingerprint
from repro.ecc import AdaptiveBch, FixedBch
from repro.host import sequential_read, sequential_write
from repro.host.interface import sata_spec
from repro.nand import NandGeometry
from repro.ssd import SsdArchitecture

SMALL_GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64,
                         pages_per_block=32)


def tiny_arch(**overrides):
    base = dict(n_channels=2, n_ddr_buffers=2, n_ways=2, dies_per_way=2,
                geometry=SMALL_GEO, dram_refresh=False)
    base.update(overrides)
    return SsdArchitecture(**base)


def tiny_point(arch=None, workload=None, **params):
    return SweepPoint(name="t", arch=arch or tiny_arch(),
                      workload=workload or sequential_write(4096 * 10),
                      evaluator="measure", params=params)


class TestFingerprint:
    def test_identical_config_identical_key(self):
        assert fingerprint(tiny_point()) == fingerprint(tiny_point())

    def test_name_is_not_part_of_the_key(self):
        """Content-addressed: the same configuration under a different
        label reuses the same cached result."""
        a = tiny_point()
        b = SweepPoint(name="renamed", arch=a.arch, workload=a.workload,
                       evaluator=a.evaluator, params=a.params)
        assert fingerprint(a) == fingerprint(b)

    @pytest.mark.parametrize("overrides", [
        dict(n_channels=4, n_ddr_buffers=4),      # channels
        dict(n_ways=4),                           # ways
        dict(dies_per_way=4),                     # dies
        dict(host=sata_spec(queue_depth=8)),      # NCQ depth
        dict(ecc=AdaptiveBch()),                  # ECC mode
        dict(ecc=FixedBch(t=8)),                  # ECC strength
    ])
    def test_any_field_change_is_a_miss(self, overrides):
        assert fingerprint(tiny_point()) \
            != fingerprint(tiny_point(arch=tiny_arch(**overrides)))

    def test_workload_change_is_a_miss(self):
        base = fingerprint(tiny_point())
        assert base != fingerprint(
            tiny_point(workload=sequential_write(4096 * 20)))
        assert base != fingerprint(
            tiny_point(workload=sequential_read(4096 * 10)))

    def test_params_change_is_a_miss(self):
        assert fingerprint(tiny_point()) \
            != fingerprint(tiny_point(warm_start=True))

    def test_salt_bump_is_a_miss(self):
        point = tiny_point()
        assert fingerprint(point, salt="sweep-1") \
            != fingerprint(point, salt="sweep-2")

    def test_unfingerprintable_raises_typeerror(self):
        with pytest.raises(TypeError):
            fingerprint(tiny_point(bad=lambda: None))


class TestCacheRoundTrip:
    def test_second_run_simulates_nothing(self, tmp_path):
        points = [tiny_point()]
        first = SweepRunner(workers=1, cache_dir=str(tmp_path)).run(points)
        assert first.summary.simulated == 1
        second = SweepRunner(workers=1, cache_dir=str(tmp_path)).run(points)
        assert second.summary.simulated == 0
        assert second.summary.cached == 1
        assert second.outcomes[0].cached
        assert second.outcomes[0].payload == first.outcomes[0].payload

    def test_salt_bump_invalidates_entries(self, tmp_path):
        points = [tiny_point()]
        SweepRunner(workers=1, cache_dir=str(tmp_path)).run(points)
        bumped = SweepRunner(workers=1, cache_dir=str(tmp_path),
                             salt="sweep-999").run(points)
        assert bumped.summary.simulated == 1

    def test_use_cache_false_resimulates_but_refreshes(self, tmp_path):
        points = [tiny_point()]
        runner = SweepRunner(workers=1, cache_dir=str(tmp_path))
        runner.run(points)
        fresh = SweepRunner(workers=1, cache_dir=str(tmp_path),
                            use_cache=False).run(points)
        assert fresh.summary.simulated == 1
        # ...and the refreshed entry still serves later warm runs.
        warm = SweepRunner(workers=1, cache_dir=str(tmp_path)).run(points)
        assert warm.summary.cached == 1

    @pytest.mark.parametrize("garbage", [
        b"",                          # truncated to nothing
        b"{\"payload\": {",           # truncated mid-JSON
        b"not json at all",           # garbage
        b"[1, 2, 3]",                 # valid JSON, wrong shape
        b"{\"payload\": 42}",         # payload not a dict
    ])
    def test_corrupted_entry_is_a_miss_not_a_crash(self, tmp_path, garbage):
        points = [tiny_point()]
        runner = SweepRunner(workers=1, cache_dir=str(tmp_path))
        first = runner.run(points)
        key = first.outcomes[0].key
        path = tmp_path / f"{key}.json"
        assert path.exists()
        path.write_bytes(garbage)
        again = SweepRunner(workers=1, cache_dir=str(tmp_path)).run(points)
        assert again.summary.simulated == 1
        assert again.outcomes[0].payload == first.outcomes[0].payload
        # The entry was rewritten and is valid again.
        assert json.loads(path.read_bytes())["payload"] \
            == first.outcomes[0].payload

    def test_killed_sweep_resumes_where_it_left_off(self, tmp_path):
        """Checkpointing: each finished point is flushed immediately, so
        a partial cache (as a killed sweep leaves behind) only simulates
        the missing points on the next run."""
        points = [tiny_point(),
                  tiny_point(arch=tiny_arch(n_channels=4, n_ddr_buffers=4)),
                  tiny_point(arch=tiny_arch(n_ways=4))]
        SweepRunner(workers=1, cache_dir=str(tmp_path)).run(points[:2])
        resumed = SweepRunner(workers=1, cache_dir=str(tmp_path)).run(points)
        assert resumed.summary.cached == 2
        assert resumed.summary.simulated == 1

    def test_cache_load_missing_dir(self, tmp_path):
        cache = SweepCache(str(tmp_path / "nonexistent"))
        assert cache.load("0" * 64) is None
        assert len(cache) == 0

    def test_failed_store_leaves_no_temporary_file(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        with pytest.raises(TypeError):
            cache.store("0" * 64, {"payload": {"bad": object()}})
        assert os.listdir(tmp_path) == []
        assert cache.load("0" * 64) is None
