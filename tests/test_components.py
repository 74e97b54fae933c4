"""Unit tests for the WaveNetlist component graph."""

import numpy as np
import pytest

from repro.core.mig import Mig
from repro.core.simulate import truth_tables
from repro.core.wavepipe.components import Kind, WaveNetlist
from repro.errors import NetlistError


@pytest.fixture
def small():
    netlist = WaveNetlist("small")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    m = netlist.add_maj(a, b, c)
    netlist.add_output(m, "m")
    return netlist, (a, b, c), m


class TestConstruction:
    def test_constant_reserved(self):
        netlist = WaveNetlist()
        assert netlist.n_components == 1
        assert netlist.kind(0) == Kind.CONST

    def test_counts(self, small):
        netlist, _, _ = small
        assert netlist.n_inputs == 3
        assert netlist.n_outputs == 1
        assert netlist.size == 1
        assert netlist.count(Kind.MAJ) == 1

    def test_buf_and_fog(self, small):
        netlist, (a, _, _), _ = small
        buf = netlist.add_buf(a)
        fog = netlist.add_fog(buf)
        assert netlist.kind(buf.node) == Kind.BUF
        assert netlist.kind(fog.node) == Kind.FOG
        assert netlist.size == 3

    def test_buf_from_constant_rejected(self):
        netlist = WaveNetlist()
        with pytest.raises(NetlistError):
            netlist.add_buf(0)

    def test_unknown_signal_rejected(self, small):
        netlist, _, _ = small
        with pytest.raises(NetlistError):
            netlist.add_output(999)

    def test_maj_keeps_duplicates(self):
        # physical netlists do not simplify: M(a, a, b) stays a component
        netlist = WaveNetlist()
        a = netlist.add_input()
        b = netlist.add_input()
        m = netlist.add_maj(a, a, b)
        assert netlist.kind(m.node) == Kind.MAJ
        assert netlist.size == 1


class TestLevels:
    def test_source_levels_zero(self, small):
        netlist, (a, _, _), m = small
        levels = netlist.levels()
        assert levels[a.node] == 0
        assert levels[m.node] == 1

    def test_depth(self, small):
        netlist, _, m = small
        buf = netlist.add_buf(m)
        netlist.set_output(0, buf)
        assert netlist.depth() == 2

    def test_constant_fanin_ignored(self):
        netlist = WaveNetlist()
        a = netlist.add_input()
        b = netlist.add_input()
        m = netlist.add_maj(a, b, 0)  # AND via constant
        netlist.add_output(m)
        assert netlist.depth() == 1

    def test_levels_follow_rewiring(self, small):
        # rewiring a fan-in to a later-appended component must still level
        netlist, (a, b, c), m = small
        buf = netlist.add_buf(a)
        netlist.set_fanin(m.node, 0, int(buf))
        levels = netlist.levels()
        assert levels[m.node] == 2

    @pytest.mark.parametrize("size", [0, 1, 7, 1000])
    def test_frontier_dedupe_matches_np_unique(self, size):
        from repro.core.wavepipe.components import _sorted_unique

        values = np.random.default_rng(size).integers(0, 50, size)
        np.testing.assert_array_equal(_sorted_unique(values), np.unique(values))

    def test_cycle_detected(self, small):
        netlist, _, m = small
        buf = netlist.add_buf(m)
        netlist.set_fanin(m.node, 0, int(buf))  # m <- buf <- m
        with pytest.raises(NetlistError):
            netlist.levels()


class TestStructure:
    def test_consumer_map(self, small):
        netlist, (a, _, _), m = small
        consumers, po_refs = netlist.consumer_map()
        assert (m.node, 0) in consumers[a.node]
        assert po_refs[m.node] == [0]

    def test_fanout_counts(self, small):
        netlist, (a, _, _), m = small
        counts = netlist.fanout_counts()
        assert counts[a.node] == 1
        assert counts[m.node] == 1  # the PO reference

    def test_fanout_counts_exclude_outputs(self, small):
        netlist, _, m = small
        counts = netlist.fanout_counts(include_outputs=False)
        assert counts[m.node] == 0

    def test_constant_fanout_exempt(self):
        netlist = WaveNetlist()
        a = netlist.add_input()
        b = netlist.add_input()
        for _ in range(5):
            netlist.add_maj(a, b, 0)
        assert netlist.fanout_counts()[0] == 0

    def test_complemented_edge_count(self, small):
        netlist, (a, b, c), m = small
        n = netlist.add_maj(~a, ~b, c)
        netlist.add_output(~n)
        assert netlist.complemented_edge_count() == 3

    def test_stats(self, small):
        netlist, _, m = small
        netlist.add_buf(m)
        stats = netlist.stats()
        assert stats.n_maj == 1
        assert stats.n_buf == 1
        assert stats.size == 2
        assert stats.n_outputs == 1


class TestConversions:
    def test_round_trip_function(self, adder_mig):
        netlist = WaveNetlist.from_mig(adder_mig)
        back = netlist.to_mig()
        assert truth_tables(back) == truth_tables(adder_mig)

    def test_from_mig_counts(self, adder_mig):
        netlist = WaveNetlist.from_mig(adder_mig)
        assert netlist.size == adder_mig.size
        assert netlist.n_inputs == adder_mig.n_pis
        assert netlist.n_outputs == adder_mig.n_pos

    def test_buffers_transparent_in_to_mig(self, small):
        netlist, _, m = small
        buf = netlist.add_buf(m)
        fog = netlist.add_fog(buf)
        netlist.set_output(0, ~fog)
        mig = netlist.to_mig()
        reference = Mig()
        a, b, c = reference.add_pis(3)
        reference.add_po(~reference.add_maj(a, b, c))
        assert truth_tables(mig) == truth_tables(reference)

    def test_names_preserved(self, small):
        netlist, _, _ = small
        mig = netlist.to_mig()
        assert mig.pi_names == ["a", "b", "c"]
        assert mig.po_names == ["m"]

    def test_repr(self, small):
        netlist, _, _ = small
        assert "maj=1" in repr(netlist)


class TestNameLookups:
    def test_input_name(self, small):
        netlist, (a, b, c), _ = small
        assert [netlist.input_name(int(s) >> 1) for s in (a, b, c)] == [
            "a", "b", "c"
        ]

    def test_input_name_rejects_non_input(self, small):
        netlist, _, m = small
        with pytest.raises(NetlistError):
            netlist.input_name(int(m) >> 1)
        with pytest.raises(NetlistError):
            netlist.input_name(0)

    def test_output_name(self, small):
        netlist, _, _ = small
        assert netlist.output_name(0) == "m"
        with pytest.raises(NetlistError):
            netlist.output_name(1)

    def test_input_names_survive_clone_and_flow(self, small):
        # regression: the transforms' structural copy used to skip the
        # cached name index, breaking input_name on every flow result
        from repro.core.wavepipe import wave_pipeline

        netlist, _, _ = small
        clone = netlist.clone()
        assert [clone.input_name(c) for c in clone.inputs] == ["a", "b", "c"]
        assert clone.version == netlist.version
        ready = wave_pipeline(netlist, fanout_limit=3, verify=False).netlist
        assert [ready.input_name(c) for c in ready.inputs] == ["a", "b", "c"]
        extra = clone.add_input("d")
        assert clone.input_name(int(extra) >> 1) == "d"
        assert netlist.n_inputs == 3

    def test_version_bumps_on_mutation(self, small):
        netlist, (a, _, _), m = small
        before = netlist.version
        netlist.add_buf(m)
        netlist.set_fanin(int(m) >> 1, 0, int(a))
        netlist.set_output(0, m)
        assert netlist.version >= before + 3


class TestArrayLayout:
    """The array-native storage: caches, arity, scalar accessors."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda n, a, m: n.set_fanin(m.node, 0, int(n.add_buf(a))),
            lambda n, a, m: n.set_fanin(m.node, 1, int(a)),
            lambda n, a, m: n.set_output(0, int(n.add_buf(m))),
            lambda n, a, m: n.add_output(a),
            lambda n, a, m: n.add_maj(a, m, 0),
            lambda n, a, m: n.add_buf(m),
            lambda n, a, m: n.add_fog(a),
            lambda n, a, m: n.add_input("d"),
        ],
        ids=[
            "set_fanin_deeper", "set_fanin", "set_output", "add_output",
            "add_maj", "add_buf", "add_fog", "add_input",
        ],
    )
    def test_every_mutation_invalidates_caches(self, small, mutate):
        from repro.core.wavepipe import compile_netlist

        netlist, (a, _, _), m = small
        levels = netlist.levels()
        consumers = netlist.consumers()
        compiled = compile_netlist(netlist)
        assert netlist.levels() is levels
        assert compile_netlist(netlist) is compiled
        version = netlist.version
        mutate(netlist, a, m)
        assert netlist.version > version
        assert netlist.levels() is not levels
        assert netlist.consumers() is not consumers
        assert len(netlist.levels()) == netlist.n_components
        recompiled = compile_netlist(netlist)
        assert recompiled is not compiled
        assert recompiled.n_components == netlist.n_components

    def test_levels_follow_a_deeper_fanin(self, small):
        netlist, (a, _, _), m = small
        assert netlist.depth() == 1
        netlist.set_fanin(m.node, 0, int(netlist.add_buf(a)))
        assert netlist.levels()[m.node] == 2
        assert netlist.depth() == 2

    def test_cached_arrays_are_read_only(self, small):
        netlist, _, m = small
        levels = netlist.levels()
        with pytest.raises(ValueError):
            levels[m.node] = 7
        for array in (*netlist.arrays(), *netlist.consumers()):
            with pytest.raises(ValueError):
                array[0] = 1
        assert netlist.levels()[m.node] == 1

    def test_cycle_raises_netlist_error_everywhere(self, small):
        from repro.core.wavepipe import check_balanced, compile_netlist

        netlist, _, m = small
        buf = netlist.add_buf(m)
        netlist.set_fanin(m.node, 0, int(buf))
        for probe in (
            netlist.levels, netlist.depth, netlist.topological_order,
            netlist.visit_order, lambda: check_balanced(netlist),
            lambda: compile_netlist(netlist),
        ):
            with pytest.raises(NetlistError):
                probe()

    def test_constant_maj_fanin_keeps_arity_three(self):
        netlist = WaveNetlist()
        a = netlist.add_input()
        b = netlist.add_input()
        m = netlist.add_maj(a, 0, b)
        netlist.add_output(m)
        assert netlist.fanins(m.node) == (0, int(a), int(b))
        kinds, fanins, _ = netlist.arrays()
        assert fanins[m.node].tolist() == [0, int(a), int(b)]
        consumers = netlist.consumers()
        constant_edges = consumers.component[consumers.ptr[0]:consumers.ptr[1]]
        assert constant_edges.tolist() == [m.node]
        assert netlist.fanout_counts()[0] == 0
        assert netlist.levels()[m.node] == 1
        # a rewired constant fan-in stays a fan-in, not padding
        netlist.set_fanin(m.node, 2, 0)
        assert netlist.fanins(m.node) == (0, int(a), 0)

    def test_fanin_position_must_exist(self, small):
        netlist, (a, _, _), m = small
        buf = netlist.add_buf(a)
        with pytest.raises(NetlistError):
            netlist.set_fanin(buf.node, 1, int(a))
        with pytest.raises(NetlistError):
            netlist.set_fanin(a.node, 0, int(buf))
        with pytest.raises(NetlistError):
            netlist.set_output(3, int(m))

    def test_scalar_accessors_return_python_ints(self, small):
        netlist, (a, _, _), m = small
        netlist.add_output(~netlist.add_fog(a))
        for component in netlist.components():
            fanins = netlist.fanins(component)
            assert isinstance(fanins, tuple)
            assert all(type(lit) is int for lit in fanins)
            assert type(netlist.kind(component)) is Kind
        assert all(type(int(sig)) is int for sig in netlist.outputs)
        assert netlist.outputs[1].complemented
        assert type(netlist.depth()) is int
        assert all(type(c) is int for c in netlist.topological_order())
        assert type(netlist.size) is int and type(netlist.count(Kind.FOG)) is int

    def test_appends_grow_past_capacity(self):
        netlist = WaveNetlist()
        signals = [netlist.add_input() for _ in range(3)]
        for _ in range(200):
            signals.append(netlist.add_maj(*signals[-3:]))
        netlist.add_output(signals[-1])
        assert netlist.n_components == 204
        assert netlist.depth() == 200
        assert netlist.fanins(203) == tuple(sorted(int(s) for s in signals[-4:-1]))

    def test_interface_mismatch_raises(self, adder_mig):
        from repro.core.wavepipe import check_equivalent_to_mig
        from repro.errors import EquivalenceError

        netlist = WaveNetlist.from_mig(adder_mig)
        wider = adder_mig.clone()
        wider.add_pi("extra")
        with pytest.raises(EquivalenceError, match="PI count mismatch"):
            check_equivalent_to_mig(netlist, wider)
        more = adder_mig.clone()
        more.add_po(more.pos[0])
        with pytest.raises(EquivalenceError, match="PO count mismatch"):
            check_equivalent_to_mig(netlist, more)

    def test_pickle_ships_rows_not_caches(self, small):
        import pickle

        netlist, (a, _, _), m = small
        size = len(pickle.dumps(netlist))
        netlist.levels()
        netlist.consumers()
        assert len(pickle.dumps(netlist)) == size
        copy = pickle.loads(pickle.dumps(netlist))
        for mine, theirs in zip(netlist.arrays(), copy.arrays()):
            assert np.array_equal(mine, theirs)
        assert copy.version == netlist.version
        assert copy.input_names == netlist.input_names
        assert copy.output_names == netlist.output_names
        assert copy.levels().tolist() == netlist.levels().tolist()
        copy.add_output(copy.add_buf(m))
        assert copy.depth() == 2 and netlist.depth() == 1
