"""Tests for the canonical experiment definitions (tables, figures)."""

import pytest

from repro.core import (TABLE2_LABELS, TABLE3_LABELS, fig5_architecture,
                        table2_configs, table3_configs, validation_config)
from repro.ecc import AdaptiveBch, FixedBch


class TestTable2:
    def test_all_ten_configs(self):
        assert len(TABLE2_LABELS) == 10
        configs = table2_configs()
        assert set(configs) == {f"C{i}" for i in range(1, 11)}

    def test_labels_match_paper(self):
        assert TABLE2_LABELS["C1"] == "4-DDR-buf;4-CHN;4-WAY;2-DIE"
        assert TABLE2_LABELS["C6"] == "16-DDR-buf;16-CHN;8-WAY;4-DIE"
        assert TABLE2_LABELS["C9"] == "32-DDR-buf;32-CHN;1-WAY;1-DIE"

    def test_config_dimensions(self):
        configs = table2_configs()
        assert configs["C5"].n_channels == 8
        assert configs["C5"].n_ways == 8
        assert configs["C5"].dies_per_way == 8
        assert configs["C10"].total_dies == 32 * 8 * 4

    def test_base_propagates(self):
        from repro.ssd import CachePolicy, SsdArchitecture
        base = SsdArchitecture(cache_policy=CachePolicy.NO_CACHING)
        configs = table2_configs(base)
        assert all(a.cache_policy is CachePolicy.NO_CACHING
                   for a in configs.values())

    def test_labels_roundtrip(self):
        for name, label in TABLE2_LABELS.items():
            assert table2_configs()[name].label == label


class TestTable3:
    def test_all_eight_configs(self):
        assert len(TABLE3_LABELS) == 8
        configs = table3_configs()
        assert configs["C1"].total_dies == 1
        assert configs["C8"].total_dies == 32 * 16 * 16

    def test_resource_count_monotone(self):
        """Table III is ordered smallest to largest — the Fig. 6 premise."""
        configs = table3_configs()
        dies = [configs[f"C{i}"].total_dies for i in range(1, 9)]
        assert dies == sorted(dies)


class TestFig5Architecture:
    def test_paper_dimensions(self):
        arch = fig5_architecture(FixedBch(), 0.5)
        assert arch.n_channels == 4
        assert arch.n_ways == 2
        assert arch.dies_per_way == 4

    def test_endurance_fraction_maps_to_pe(self):
        arch = fig5_architecture(AdaptiveBch(), 0.5)
        assert arch.initial_pe_cycles == 1500
        arch = fig5_architecture(AdaptiveBch(), 1.0)
        assert arch.initial_pe_cycles == 3000

    def test_scheme_carried(self):
        arch = fig5_architecture(AdaptiveBch(), 0.0)
        assert isinstance(arch.ecc, AdaptiveBch)


class TestValidationConfig:
    def test_barefoot_like(self):
        arch = validation_config()
        assert arch.host.name == "sata2"
        assert arch.host.queue_depth == 32
        assert arch.n_channels == 4
        assert isinstance(arch.ecc, FixedBch)


class TestFullReportUnit:
    def test_generate_report_structure(self, report_cache_dir):
        from repro.core import SweepRunner, generate_report
        text = generate_report(
            n_commands=50, configs=["C1"], include_fig4=False,
            reliability_replicas=2,
            runner=SweepRunner(workers=1, cache_dir=report_cache_dir))
        for heading in ("Table I", "Fig. 2", "Fig. 3", "Fig. 5", "Fig. 6",
                        "Reliability"):
            assert heading in text
        assert "perf-vs-reliability-vs-spares frontier" in text
        assert "Saturating (cache policy)" in text
        assert "Report generated in" in text
