"""Unit tests for the wave-pipelining invariant checkers."""

from functools import lru_cache

import numpy as np
import pytest

from repro.core.mig import Mig
from repro.core.wavepipe import Kind, WaveNetlist, wave_pipeline
from repro.core.wavepipe.verify import (
    assert_balanced,
    assert_fanout,
    certify_equivalent,
    check_balanced,
    check_equivalent_to_mig,
    check_fanout,
    simulate_equivalent,
    wave_ready,
)
from repro.errors import BalanceError, FanoutError, NetlistError
from repro.suite import get_benchmark

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
    """:func:`simulate_equivalent`: the packed engine's functional
    evaluator against the golden MIG simulation."""

    @pytest.mark.parametrize("fanout_limit", [None, 2, 3])
    def test_matches_golden_mig_simulation(self, adder_mig, fanout_limit):
        for netlist in (
            WaveNetlist.from_mig(adder_mig),
            wave_pipeline(adder_mig, fanout_limit=fanout_limit).netlist,
        ):
            assert simulate_equivalent(netlist, adder_mig) is True
            # one complemented MAJ fan-in: the certificate fails and
            # simulation must reject the netlist
            mutant = _flip_complement(netlist)
            assert not certify_equivalent(mutant, adder_mig)
            assert simulate_equivalent(mutant, adder_mig) is False

    def test_constant_outputs_and_input_wires(self):
        # outputs that are constants, or an input through a complemented
        # BUF/FOG chain, collapse to root literals without any MAJ row
        netlist = WaveNetlist()
        a = netlist.add_input()
        netlist.add_output(0)
        netlist.add_output(1)
        netlist.add_output(~netlist.add_buf(netlist.add_fog(a)))
        reference = Mig()
        (x,) = reference.add_pis(1)
        reference.add_po(0)
        reference.add_po(1)
        reference.add_po(~x)
        assert simulate_equivalent(netlist, reference) is True
        netlist.set_output(2, int(netlist.outputs[2]) ^ 1)
        assert simulate_equivalent(netlist, reference) is False


@lru_cache(maxsize=None)
def _flow(name: str) -> tuple[Mig, WaveNetlist]:
    mig = get_benchmark(name).build()
    return mig, wave_pipeline(mig, fanout_limit=3, verify=False).netlist


def _root_node(netlist: WaveNetlist, node: int) -> int:
    """The constant, input or MAJ at the start of *node*'s BUF/FOG chain."""
    while netlist.kind(node) in (Kind.BUF, Kind.FOG):
        node = netlist.fanins(node)[0] >> 1
    return node


def _output_maj(netlist: WaveNetlist) -> int:
    """The MAJ behind output 0."""
    node = _root_node(netlist, int(netlist.outputs[0]) >> 1)
    assert netlist.kind(node) == Kind.MAJ
    return node


def _flip_complement(netlist: WaveNetlist) -> WaveNetlist:
    mutant = netlist.clone()
    node = _output_maj(mutant)
    mutant.set_fanin(node, 0, mutant.fanins(node)[0] ^ 1)
    return mutant


def _move_fanin(netlist: WaveNetlist) -> WaveNetlist:
    """Move one fan-in of the MAJ behind output 0 onto a buffer of another
    driver at the same level: still acyclic (the buffer sits below the
    MAJ) and balanced (the MAJ sees the same level)."""
    mutant = netlist.clone()
    node = _output_maj(mutant)
    levels = mutant.levels()
    kinds = mutant.arrays().kinds
    for position, lit in enumerate(mutant.fanins(node)):
        if lit >> 1 == 0:
            continue
        old_root = _root_node(mutant, lit >> 1)
        for candidate in np.flatnonzero(
            (kinds == Kind.BUF) & (levels == levels[lit >> 1])
        ).tolist():
            if _root_node(mutant, candidate) != old_root:
                mutant.set_fanin(node, position, (candidate << 1) | (lit & 1))
                return mutant
    raise AssertionError("no buffer of another driver at the same level")


def _complement_output(netlist: WaveNetlist) -> WaveNetlist:
    mutant = netlist.clone()
    mutant.set_output(0, int(mutant.outputs[0]) ^ 1)
    return mutant


class TestStructuralCertificate:
    """The certificate proves flow results equal, fails on anything else,
    and a failed certificate leaves the verdict to simulation."""

    @pytest.mark.parametrize("name", ["ctrl", "i2c", "mul32"])
    def test_flow_result_certified(self, name):
        mig, netlist = _flow(name)
        assert certify_equivalent(netlist, mig)
        assert check_equivalent_to_mig(netlist, mig)

    @pytest.mark.parametrize("name", ["ctrl", "i2c", "mul32"])
    @pytest.mark.parametrize(
        "mutate", [_flip_complement, _move_fanin, _complement_output]
    )
    def test_mutation_fails_certificate_and_is_rejected(self, name, mutate):
        mig, netlist = _flow(name)
        mutant = mutate(netlist)
        assert check_balanced(mutant) == []
        assert not certify_equivalent(mutant, mig)
        assert check_equivalent_to_mig(mutant, mig) is False
        assert simulate_equivalent(mutant, mig) is False

    def test_equivalent_non_flow_netlist_falls_back(self, adder_mig):
        # a dangling MAJ row past the gate rows is no flow result, but the
        # function is unchanged: simulation accepts it
        netlist = WaveNetlist.from_mig(adder_mig)
        assert certify_equivalent(netlist, adder_mig)
        a, b, c = netlist.inputs[:3]
        netlist.add_maj(a << 1, b << 1, c << 1)
        assert not certify_equivalent(netlist, adder_mig)
        assert check_equivalent_to_mig(netlist, adder_mig)

    def test_input_after_gate_falls_back(self):
        # the same function, with the last input row after the gate row
        mig = Mig()
        a, b, c = mig.add_pis(3)
        mig.add_po(mig.add_maj(a, b, 0))
        mig.add_po(c)
        netlist = WaveNetlist()
        x, y = netlist.add_input(), netlist.add_input()
        gate = netlist.add_maj(x, y, 0)
        netlist.add_output(gate)
        netlist.add_output(netlist.add_input())
        assert netlist.inputs == [1, 2, 4]
        assert not certify_equivalent(netlist, mig)
        assert check_equivalent_to_mig(netlist, mig)

    def test_buf_cycle_raises(self):
        mig = Mig()
        mig.add_po(mig.add_pi())
        netlist = WaveNetlist()
        a = netlist.add_input()
        first = netlist.add_buf(a)
        second = netlist.add_buf(first)
        netlist.set_fanin(first >> 1, 0, second)
        netlist.add_output(second)
        with pytest.raises(NetlistError):
            certify_equivalent(netlist, mig)
        with pytest.raises(NetlistError):
            check_equivalent_to_mig(netlist, mig)
