"""Unit tests for the multi-phase clocking model."""

import pytest

from repro.core.wavepipe.clocking import (
    MAX_PHASES,
    PAPER_PHASES,
    ClockingScheme,
)
from repro.errors import SimulationError


class TestClockingScheme:
    def test_paper_default(self):
        assert ClockingScheme().n_phases == PAPER_PHASES == 3

    def test_rejects_single_phase(self):
        with pytest.raises(SimulationError):
            ClockingScheme(n_phases=1)

    def test_phase_count_is_capped(self):
        assert ClockingScheme(MAX_PHASES).n_phases == MAX_PHASES
        with pytest.raises(SimulationError, match="at most"):
            ClockingScheme(MAX_PHASES + 1)

    def test_phase_of_level(self):
        clock = ClockingScheme(3)
        assert [clock.phase_of_level(level) for level in range(7)] == [
            0, 1, 2, 0, 1, 2, 0,
        ]

    @pytest.mark.parametrize(
        "depth,expected", [(0, 0), (1, 1), (3, 1), (4, 2), (6, 2), (7, 3)]
    )
    def test_waves_in_flight(self, depth, expected):
        assert ClockingScheme(3).waves_in_flight(depth) == expected

    def test_wave_separation(self):
        assert ClockingScheme(4).wave_separation_levels() == 4


class TestTiming:
    def test_latency(self):
        clock = ClockingScheme(3)
        assert clock.latency(6, 0.42) == pytest.approx(2.52)

    def test_pipelined_period(self):
        clock = ClockingScheme(3)
        assert clock.pipelined_period(0.42) == pytest.approx(1.26)

    def test_swd_throughputs_match_paper(self):
        # Table II: every SWD WP entry is 793.65 MOPS; SASC original is
        # 396.83 MOPS at depth 6 with a 0.42 ns cell delay.
        clock = ClockingScheme(3)
        assert clock.pipelined_throughput_mops(0.42) == pytest.approx(
            793.65, abs=0.01
        )
        assert clock.unpipelined_throughput_mops(6, 0.42) == pytest.approx(
            396.83, abs=0.01
        )

    def test_qca_throughputs_match_paper(self):
        # QCA level delay is 0.004 ns (10/3 x the 0.0012 ns cell delay)
        clock = ClockingScheme(3)
        assert clock.pipelined_throughput_mops(0.004) == pytest.approx(
            83333.33, abs=0.34
        )
        assert clock.unpipelined_throughput_mops(36, 0.004) == pytest.approx(
            6944.44, abs=0.01
        )

    def test_nml_throughputs_match_paper(self):
        # NML level delay is 20 ns (2 x the 10 ns cell delay)
        clock = ClockingScheme(3)
        assert clock.pipelined_throughput_mops(20.0) == pytest.approx(
            16.67, abs=0.01
        )
        assert clock.unpipelined_throughput_mops(6, 20.0) == pytest.approx(
            8.33, abs=0.01
        )

    def test_zero_depth_throughput_rejected(self):
        with pytest.raises(SimulationError):
            ClockingScheme(3).unpipelined_throughput_mops(0, 1.0)

    def test_speedup_is_depth_over_phases(self):
        assert ClockingScheme(3).speedup(219) == pytest.approx(73.0)
