"""Unit tests for the wave-pipelining invariant checkers."""

import numpy as np
import pytest

from repro.core.wavepipe import WaveNetlist
from repro.core.wavepipe.verify import (
    assert_balanced,
    assert_fanout,
    check_balanced,
    check_equivalent_to_mig,
    check_fanout,
    wave_ready,
)
from repro.errors import BalanceError, FanoutError

from helpers import build_adder_mig


def _balanced() -> WaveNetlist:
    netlist = WaveNetlist()
    a, b, c = (netlist.add_input() for _ in range(3))
    netlist.add_output(netlist.add_maj(a, b, c))
    return netlist


def _unbalanced() -> WaveNetlist:
    netlist = WaveNetlist()
    a, b, c = (netlist.add_input() for _ in range(3))
    g1 = netlist.add_maj(a, b, c)
    netlist.add_output(netlist.add_maj(g1, b, c))
    return netlist


class TestBalanceChecker:
    def test_balanced_passes(self):
        assert check_balanced(_balanced()) == []

    def test_unbalanced_reports_component(self):
        violations = check_balanced(_unbalanced())
        assert violations
        assert "fan-in levels" in violations[0]

    def test_output_level_mismatch_reported(self):
        netlist = _balanced()
        netlist.add_output(netlist.inputs[0] << 1)
        violations = check_balanced(netlist)
        assert any("base distances" in v for v in violations)

    def test_constant_fanins_exempt(self):
        netlist = WaveNetlist()
        a, b = netlist.add_input(), netlist.add_input()
        netlist.add_output(netlist.add_maj(a, b, 0))
        assert check_balanced(netlist) == []

    def test_assert_raises_with_context(self):
        with pytest.raises(BalanceError, match="myflow"):
            assert_balanced(_unbalanced(), "myflow")

    def test_assert_passes_silently(self):
        assert_balanced(_balanced())


class TestFanoutChecker:
    def test_within_limit(self):
        assert check_fanout(_balanced(), 3) == []

    def test_overdriven_reported(self):
        netlist = WaveNetlist()
        a, b = netlist.add_input(), netlist.add_input()
        for _ in range(4):
            netlist.add_output(netlist.add_maj(a, b, 0))
        violations = check_fanout(netlist, 3)
        assert violations
        assert "drives 4" in violations[0]

    def test_constant_exempt(self):
        netlist = WaveNetlist()
        a, b = netlist.add_input(), netlist.add_input()
        for _ in range(3):
            netlist.add_output(netlist.add_maj(a, b, 0))
        # the constant feeds 3 gates but a and b feed 3 each too: limit 2
        violations = check_fanout(netlist, 2)
        assert all("component 0" not in v for v in violations)

    def test_assert_raises(self):
        netlist = WaveNetlist()
        a, b = netlist.add_input(), netlist.add_input()
        for _ in range(4):
            netlist.add_output(netlist.add_maj(a, b, 0))
        with pytest.raises(FanoutError):
            assert_fanout(netlist, 3)


class TestEquivalenceAndReadiness:
    def test_equivalent_to_reference(self, adder_mig):
        netlist = WaveNetlist.from_mig(adder_mig)
        assert check_equivalent_to_mig(netlist, adder_mig)

    def test_nonequivalent_detected(self, adder_mig):
        netlist = WaveNetlist.from_mig(adder_mig)
        netlist.set_output(0, ~netlist.outputs[0])
        assert not check_equivalent_to_mig(netlist, adder_mig)

    def test_wave_ready(self):
        assert wave_ready(_balanced(), 3)
        assert not wave_ready(_unbalanced(), 3)

    def test_wave_ready_checks_fanout(self):
        netlist = WaveNetlist()
        a, b = netlist.add_input(), netlist.add_input()
        gates = [netlist.add_maj(a, b, 0) for _ in range(4)]
        for gate in gates:
            netlist.add_output(gate)
        assert not wave_ready(netlist, 3)
        assert wave_ready(netlist, fanout_limit=None)


class TestNetlistSimulation:
    """The vectorized equivalence check's building blocks."""

    @pytest.mark.parametrize("fanout_limit", [None, 2, 3])
    def test_matches_golden_mig_simulation(self, adder_mig, fanout_limit):
        from repro.core.equivalence import random_words
        from repro.core.simulate import simulate_words
        from repro.core.wavepipe import wave_pipeline
        from repro.core.wavepipe.verify import simulate_netlist_words

        words = random_words(adder_mig.n_pis, 3, seed=5)
        golden = simulate_words(adder_mig, words)
        for netlist in (
            WaveNetlist.from_mig(adder_mig),
            wave_pipeline(adder_mig, fanout_limit=fanout_limit).netlist,
        ):
            np.testing.assert_array_equal(
                simulate_netlist_words(netlist, words), golden
            )

    def test_constant_outputs_and_input_wires(self):
        from repro.core.wavepipe.verify import simulate_netlist_words

        netlist = WaveNetlist()
        a = netlist.add_input()
        netlist.add_output(0)
        netlist.add_output(1)
        netlist.add_output(~netlist.add_buf(netlist.add_fog(a)))
        words = np.array([[0b1010]], dtype=np.uint64)
        out = simulate_netlist_words(netlist, words)
        ones = np.uint64(0xFFFFFFFFFFFFFFFF)
        assert out.tolist() == [[0], [int(ones)], [int(ones ^ np.uint64(0b1010))]]
