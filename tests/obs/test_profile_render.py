"""Pins the fixed-width layout of the profile text reports.

``repro profile`` prints these tables; a change to column widths,
alignment, the dash rule or the empty-breakdown row shows up here as a
text diff.
"""

from repro.obs import render_profile, render_stage_table

STAGES = {
    "flash_drain": {"total_ps": 7_500_000_000, "mean_ps": 75_000_000.0,
                    "max_ps": 412_345_678.0, "count": 100, "share": 0.75},
    "queue": {"total_ps": 2_000_000_000, "mean_ps": 20_000_000.0,
              "max_ps": 95_000_000.0, "count": 100, "share": 0.2},
    # Wider than its column, with a count wider than its column: cells
    # overflow instead of being cut.
    "a_very_long_stage_name": {"total_ps": 500_000, "mean_ps": 5_000.0,
                               "max_ps": 999.0, "count": 1234567890,
                               "share": 0.05},
}

ACTIVITY = {
    "nand_busy": {"total_ps": 3_000_000_000_000, "mean_ps": 1.5e9,
                  "max_ps": 2e9, "count": 2000, "share": 0.6},
    "bus_xfer": {"total_ps": 2_000_000_000_000, "mean_ps": 1e9,
                 "max_ps": 1e9, "count": 2000, "share": 0.4},
}

HEADER = ("{title:<14}   share         total        mean         max"
          "    count\n" + "-" * 69)


class _Recorder:
    """The slice of :class:`~repro.obs.SpanRecorder` the reports read."""

    commands_completed = 100
    dropped_commands = 3

    def breakdown(self):
        return STAGES

    def component_breakdown(self):
        return ACTIVITY

    def busiest_tracks(self, top_k):
        return [("ssd.chn0.die0", 3_000_000), ("ssd.host", 12)][:top_k]


def test_stage_table_layout():
    assert render_stage_table(STAGES) == (
        HEADER.format(title="stage") + "\n"
        "flash_drain      75.0%        7.5 ms       75 us  412.346 us"
        "      100\n"
        "queue            20.0%          2 ms       20 us       95 us"
        "      100\n"
        "a_very_long_stage_name    5.0%        500 ns        5 ns"
        "      999 ps1234567890")


def test_activity_title_and_top_k():
    assert render_stage_table(ACTIVITY, title="activity", top_k=1) == (
        HEADER.format(title="activity") + "\n"
        "nand_busy        60.0%           3 s      1.5 ms        2 ms"
        "     2000")


def test_empty_breakdown_row():
    assert render_stage_table({}) == (HEADER.format(title="stage")
                                      + "\n(no spans recorded)")


def test_profile_body_layout():
    assert render_profile(_Recorder(), top_k=2) == (
        "commands profiled : 100 (3 spans dropped past capacity)\n"
        "\n"
        + HEADER.format(title="stage") + "\n"
        "flash_drain      75.0%        7.5 ms       75 us  412.346 us"
        "      100\n"
        "queue            20.0%          2 ms       20 us       95 us"
        "      100\n"
        "\n"
        + HEADER.format(title="activity") + "\n"
        "nand_busy        60.0%           3 s      1.5 ms        2 ms"
        "     2000\n"
        "bus_xfer         40.0%           2 s        1 ms        1 ms"
        "     2000\n"
        "\n"
        "bottleneck report:\n"
        "  dominant stage: flash_drain (75.0% of time-in-flight, "
        "mean 75 us/cmd)\n"
        "  busiest components:\n"
        "    ssd.chn0.die0  3 us busy\n"
        "    ssd.host       12 ps busy")
