"""Tests for the Fig. 2 validation harness, Fig. 6 speed measurement and
the Table I feature matrix."""

import pytest

from repro.core import (FEATURE_MATRIX, PAPER_ERROR_MARGINS, PLATFORMS,
                        REFERENCE_MBPS, SIMULATION_SPEED, measure_speed,
                        render_breakdown_table, render_series_table,
                        render_speed_table, render_table,
                        render_validation_table, run_validation,
                        speed_sweep, verify_ssdexplorer_column)
from repro.core.speed import SpeedSample
from repro.ssd import SsdArchitecture
from repro.nand import NandGeometry

SMALL_GEO = NandGeometry(planes_per_die=1, blocks_per_plane=64,
                         pages_per_block=32)


class TestValidation:
    @pytest.fixture(scope="class")
    def points(self):
        # 1600 commands: the random-write WAF regime needs the longer
        # trace to reach steady state (see EXPERIMENTS.md).
        return run_validation(n_commands=1600)

    def test_all_four_workloads(self, points):
        assert set(points) == {"SW", "SR", "RW", "RR"}

    def test_errors_within_paper_band(self, points):
        """Fig. 2 claim: 8% / 0.1% / 6% / 2% error margins.  We allow a
        few percent of slack for the shorter regression workload."""
        for name, point in points.items():
            assert point.relative_error <= PAPER_ERROR_MARGINS[name] + 0.08, \
                f"{name}: {point.relative_error:.3f}"

    def test_sequential_faster_than_random_write(self, points):
        """The WAF effect the paper attributes its write deltas to."""
        assert points["SW"].simulated_mbps > 1.5 * points["RW"].simulated_mbps

    def test_reads_unaffected_by_waf(self, points):
        assert points["SR"].simulated_mbps == pytest.approx(
            points["RR"].simulated_mbps, rel=0.1)

    def test_reference_values_fixed(self):
        assert set(REFERENCE_MBPS) == {"SW", "SR", "RW", "RR"}
        assert all(value > 0 for value in REFERENCE_MBPS.values())

    def test_render(self, points):
        text = render_validation_table(points)
        assert "SW" in text and "Error" in text


class TestSpeed:
    def test_measure_speed_reports_kcps(self):
        arch = SsdArchitecture(n_channels=2, n_ways=1, dies_per_way=1,
                               n_ddr_buffers=1, geometry=SMALL_GEO,
                               dram_refresh=False)
        sample = measure_speed(arch, n_commands=60)
        assert sample.kcps > 0
        assert sample.simulated_cycles > 0
        assert sample.events > 0

    def test_speed_scales_inversely_with_resources(self):
        """The Fig. 6 claim."""
        small = SsdArchitecture(n_channels=1, n_ways=1, dies_per_way=1,
                                n_ddr_buffers=1, geometry=SMALL_GEO,
                                dram_refresh=False)
        big = SsdArchitecture(n_channels=8, n_ways=8, dies_per_way=4,
                              n_ddr_buffers=8, geometry=SMALL_GEO,
                              dram_refresh=False)
        small_kcps = measure_speed(small, n_commands=120).kcps
        big_kcps = measure_speed(big, n_commands=120).kcps
        assert small_kcps > big_kcps

    def test_speed_sweep_labels(self):
        arch = SsdArchitecture(n_channels=1, n_ways=1, dies_per_way=1,
                               n_ddr_buffers=1, geometry=SMALL_GEO,
                               dram_refresh=False)
        samples = speed_sweep({"tiny": arch}, n_commands=30)
        assert set(samples) == {"tiny"}
        assert samples["tiny"].label == "tiny"

    def test_zero_wall_guard(self):
        sample = SpeedSample(label="x", simulated_cycles=100,
                             wall_seconds=0.0, events=1)
        assert sample.kcps == 0.0
        assert sample.events_per_second == 0.0

    def test_render(self):
        sample = SpeedSample(label="C1", simulated_cycles=2e6,
                             wall_seconds=0.5, events=1000)
        text = render_speed_table({"C1": sample})
        assert "KCPS" in text and "C1" in text


class TestFeatureMatrix:
    def test_platform_columns(self):
        assert PLATFORMS == ["SSDExplorer", "Emulation", "Trace-driven",
                             "Hardware"]
        for feature, row in FEATURE_MATRIX.items():
            assert set(row) == set(PLATFORMS), feature

    def test_nineteen_feature_rows(self):
        assert len(FEATURE_MATRIX) == 19

    def test_ssdexplorer_unique_features(self):
        """Rows the paper marks as SSDExplorer-only."""
        for feature in ("WAF FTL", "DDR timings", "Multi DDR buffer",
                        "Compression", "Multi Core", "Model refinement"):
            row = FEATURE_MATRIX[feature]
            assert row["SSDExplorer"]
            assert not any(row[p] for p in PLATFORMS[1:]), feature

    def test_real_workload_is_the_one_gap(self):
        row = FEATURE_MATRIX["Real workload"]
        assert not row["SSDExplorer"]
        assert row["Emulation"] and row["Hardware"]

    def test_capability_checks_all_pass(self):
        """Every feature claimed for the SSDExplorer column must be backed
        by working code in this reproduction."""
        results = verify_ssdexplorer_column()
        failing = [name for name, ok in results.items() if not ok]
        assert not failing, failing

    def test_simulation_speed_row(self):
        assert SIMULATION_SPEED["SSDExplorer"] == "Variable"
        assert SIMULATION_SPEED["Hardware"] == "Fixed"

    def test_render(self):
        text = render_table()
        assert "WAF FTL" in text
        assert "Simulation speed" in text


class TestReportRendering:
    def test_breakdown_table(self):
        from repro.ssd.scenarios import BreakdownRow
        row = BreakdownRow("C1", 61.0, 62.0, 59.0, 270.0, 268.0)
        text = render_breakdown_table({"C1": row})
        assert "DDR+FLASH" in text
        assert "61.0" in text

    def test_series_table(self):
        series = {"fixed-read": [(0.0, 50.0), (1.0, 49.0)],
                  "adaptive-read": [(0.0, 120.0), (1.0, 50.0)]}
        text = render_series_table(series)
        assert "fixed-read" in text
        assert "120.0" in text


class TestRenderColumns:
    def test_header_takes_alignment_and_width_from_spec(self):
        from repro.core import render_columns
        text = render_columns([("point", "<6"), ("MB/s", ">8.1f")],
                              [["C1", 12.345], ["C10", 7.0]])
        assert text.splitlines() == [
            "point      MB/s", "-" * 15, "C1         12.3", "C10         7.0"]

    def test_string_cells_rows_and_no_rule(self):
        from repro.core import render_columns
        text = render_columns(
            [("", "<4"), ("a", ">6.2f")],
            [["x", "-"], "free text row", ["y", 1.5]], sep="", rule=False)
        assert text.splitlines() == [
            "         a", "x        -", "free text row", "y     1.50"]
