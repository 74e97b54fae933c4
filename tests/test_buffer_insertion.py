"""Unit tests for Algorithm 1 (buffer insertion / path balancing)."""

import pytest

from repro.core.equivalence import assert_equivalent
from repro.core.wavepipe.buffer_insertion import insert_buffers
from repro.core.wavepipe.components import Kind, WaveNetlist
from repro.core.wavepipe.verify import check_balanced, check_fanout
from repro.errors import FanoutError

from helpers import build_random_mig


def _skewed_netlist() -> WaveNetlist:
    """b reaches the output both directly and through a 2-gate chain."""
    netlist = WaveNetlist("skew")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    g1 = netlist.add_maj(a, b, c)
    g2 = netlist.add_maj(g1, b, c)
    netlist.add_output(g2, "f")
    return netlist


class TestBalancing:
    def test_balances_skewed_paths(self):
        result = insert_buffers(_skewed_netlist())
        assert check_balanced(result.netlist) == []

    def test_minimal_buffers_on_skew(self):
        # b and c each need one buffer to reach g2's level; a needs none
        result = insert_buffers(_skewed_netlist())
        assert result.buffers_added == 2
        assert result.netlist.count(Kind.BUF) == 2

    def test_no_buffers_when_already_balanced(self):
        netlist = WaveNetlist()
        a, b, c = (netlist.add_input() for _ in range(3))
        netlist.add_output(netlist.add_maj(a, b, c))
        result = insert_buffers(netlist)
        assert result.buffers_added == 0

    def test_depth_unchanged_by_balancing(self):
        source = _skewed_netlist()
        result = insert_buffers(source)
        assert result.depth_after == result.depth_before == source.depth()

    def test_random_graphs_balanced(self):
        for seed in range(5):
            mig = build_random_mig(seed=seed, n_gates=40)
            netlist = WaveNetlist.from_mig(mig)
            result = insert_buffers(netlist)
            assert check_balanced(result.netlist) == []

    def test_function_preserved(self, adder_mig):
        netlist = WaveNetlist.from_mig(adder_mig)
        result = insert_buffers(netlist)
        assert_equivalent(result.netlist.to_mig(), adder_mig)

    def test_input_netlist_untouched(self):
        source = _skewed_netlist()
        size_before = source.size
        insert_buffers(source)
        assert source.size == size_before


class TestOutputPadding:
    def test_outputs_padded_to_common_depth(self):
        netlist = _skewed_netlist()
        # a second, shallow output forces 2 padding buffers
        netlist.add_output(netlist.inputs[0] << 1, "shallow")
        result = insert_buffers(netlist)
        assert check_balanced(result.netlist) == []
        assert result.padding_buffers == 2

    def test_pad_outputs_disabled(self):
        netlist = _skewed_netlist()
        netlist.add_output(netlist.inputs[0] << 1, "shallow")
        result = insert_buffers(netlist, pad_outputs=False)
        assert result.padding_buffers == 0
        assert check_balanced(result.netlist)  # still unbalanced outputs

    def test_shared_driver_outputs_share_chain(self):
        netlist = WaveNetlist()
        a, b, c = (netlist.add_input() for _ in range(3))
        deep = netlist.add_maj(netlist.add_maj(a, b, c), b, c)
        netlist.add_output(deep, "deep")
        netlist.add_output(a, "s1")
        netlist.add_output(~a, "s2")  # same driver, complemented
        result = insert_buffers(netlist)
        assert check_balanced(result.netlist) == []
        # both shallow outputs share one 2-buffer chain from a
        assert result.padding_buffers == 2

    def test_complemented_output_preserved(self, adder_mig):
        netlist = WaveNetlist.from_mig(adder_mig)
        result = insert_buffers(netlist)
        assert_equivalent(result.netlist.to_mig(), adder_mig)


class TestChainSharing:
    def test_multiple_consumers_share_chain(self):
        # driver feeds consumers at levels +1, +2 and +3: a single chain of
        # 2 buffers must serve all three (the paper's lastBD bookkeeping)
        netlist = WaveNetlist("share")
        x = netlist.add_input("x")
        a, b, c = (netlist.add_input() for _ in range(3))
        l1 = netlist.add_maj(x, a, b)
        l2 = netlist.add_maj(l1, x, c)
        l3 = netlist.add_maj(l2, x, a)
        netlist.add_output(l3)
        result = insert_buffers(netlist)
        assert check_balanced(result.netlist) == []
        # x's chain: 2 buffers; a: 2 (levels 1 and 3); b: 0; c: 1; l1,l2: 0
        assert result.buffers_added == 5

    def test_complement_stays_on_consumer_edge(self):
        netlist = WaveNetlist()
        a, b, c = (netlist.add_input() for _ in range(3))
        g1 = netlist.add_maj(a, b, c)
        g2 = netlist.add_maj(g1, ~b, c)
        netlist.add_output(g2)
        reference = netlist.to_mig()
        result = insert_buffers(netlist)
        assert_equivalent(result.netlist.to_mig(), reference)


class TestFanoutAwareness:
    def test_rejects_overdriven_netlist(self):
        netlist = WaveNetlist()
        a, b = netlist.add_input(), netlist.add_input()
        for _ in range(4):
            netlist.add_output(netlist.add_maj(a, b, 0))
        with pytest.raises(FanoutError):
            insert_buffers(netlist, fanout_limit=3)

    def test_chain_taps_respect_limit(self):
        # driver with 3 consumers: two at +1 and one at +3 under limit 3:
        # driver load = 2 consumers + chain = 3 (exactly at the limit)
        netlist = WaveNetlist()
        x = netlist.add_input("x")
        a, b, c = (netlist.add_input() for _ in range(3))
        g1 = netlist.add_maj(x, a, b)
        g2 = netlist.add_maj(x, b, c)
        deep = netlist.add_maj(g1, g2, c)
        top = netlist.add_maj(deep, x, a)
        netlist.add_output(top)
        result = insert_buffers(netlist, fanout_limit=3)
        assert check_balanced(result.netlist) == []
        assert check_fanout(result.netlist, 3) == []

    def test_unlimited_by_default(self):
        netlist = WaveNetlist()
        a, b = netlist.add_input(), netlist.add_input()
        for _ in range(6):
            netlist.add_output(netlist.add_maj(a, b, 0))
        result = insert_buffers(netlist)
        assert check_balanced(result.netlist) == []


def _fresh_at(netlist: WaveNetlist, level: int) -> int:
    """A MAJ at *level* fed by fresh inputs (each drives one consumer)."""
    node = netlist.add_maj(*(netlist.add_input() for _ in range(3)))
    for _ in range(level - 1):
        node = netlist.add_maj(node, netlist.add_input(), netlist.add_input())
    return node


def _largest_gaps(netlist: WaveNetlist) -> int:
    """Sum over drivers of the largest consumer gap (the constant aside)."""
    levels = netlist.levels().tolist()
    consumers, _ = netlist.consumer_map()
    return sum(
        max(
            (levels[component] - levels[driver] - 1 for component, _ in edges),
            default=0,
        )
        for driver, edges in enumerate(consumers)
        if driver
    )


class TestSlotCapacity:
    """A driver's consumers and outputs fit its ``limit`` slots, so a line
    position the line continues past carries at most ``limit - 1`` taps."""

    def _check(self, netlist: WaveNetlist):
        assert check_fanout(netlist, 3) == []
        result = insert_buffers(netlist, fanout_limit=3)
        assert check_fanout(result.netlist, 3) == []
        assert check_balanced(result.netlist) == []
        assert result.balancing_buffers == _largest_gaps(netlist)
        assert_equivalent(result.netlist.to_mig(), netlist.to_mig())
        return result

    def test_consumers_at_gaps_0_2_2(self):
        netlist = WaveNetlist("gaps-0-2-2")
        x = netlist.add_input("x")
        near = netlist.add_maj(x, netlist.add_input(), netlist.add_input())
        far = [
            netlist.add_maj(x, _fresh_at(netlist, 2), netlist.add_input())
            for _ in range(2)
        ]
        netlist.add_output(netlist.add_maj(near, *far))
        assert netlist.fanout_counts()[x >> 1] == 3
        result = self._check(netlist)
        fanins = result.netlist.fanins
        # x keeps the near consumer and feeds its 2-buffer line; both far
        # consumers share the line's end
        assert fanins(near >> 1)[0] == x
        tip = {fanins(node >> 1)[0] for node in far}
        assert len(tip) == 1
        (tip_lit,) = tip
        assert result.netlist.kind(tip_lit >> 1) == Kind.BUF
        middle = result.netlist.fanins(tip_lit >> 1)[0]
        assert result.netlist.fanins(middle >> 1) == (x,)
        assert result.chain_lengths[x >> 1] == 2

    def test_consumers_at_gaps_1_1_with_padded_output(self):
        netlist = WaveNetlist("gaps-1-1-output")
        y = netlist.add_input("y")
        taps = [
            netlist.add_maj(y, _fresh_at(netlist, 1), netlist.add_input())
            for _ in range(2)
        ]
        top = netlist.add_maj(*taps, _fresh_at(netlist, 2))
        deep = netlist.add_maj(top, netlist.add_input(), netlist.add_input())
        netlist.add_output(deep)
        netlist.add_output(~y, "shallow")
        assert netlist.fanout_counts()[y >> 1] == 3
        result = self._check(netlist)
        # the line's first buffer serves both taps and the padding that
        # continues past them: all three of its slots
        first = {result.netlist.fanins(node >> 1)[0] for node in taps}
        assert len(first) == 1
        (first_lit,) = first
        assert result.netlist.fanins(first_lit >> 1) == (y,)
        assert result.netlist.fanout_counts()[first_lit >> 1] == 3
        shallow = int(result.netlist.outputs[1])
        assert shallow & 1  # the complement stays on the output
        assert result.netlist.levels()[shallow >> 1] == result.depth_after
        assert result.chain_lengths[y >> 1] == result.depth_after


class TestChainLengths:
    def test_chain_lengths_reported(self):
        result = insert_buffers(_skewed_netlist())
        assert sum(result.chain_lengths.values()) == result.buffers_added
        assert all(length > 0 for length in result.chain_lengths.values())

    def test_balancing_vs_padding_split(self):
        netlist = _skewed_netlist()
        netlist.add_output(netlist.inputs[0] << 1, "shallow")
        result = insert_buffers(netlist)
        assert (
            result.balancing_buffers + result.padding_buffers
            == result.buffers_added
        )
