"""Unit tests for the Mig data structure."""

import numpy as np
import pytest

from repro.core.mig import Mig, maj3
from repro.core.signal import FALSE, TRUE, Signal
from repro.core.simulate import truth_tables
from repro.errors import MigError


@pytest.fixture
def simple():
    mig = Mig("simple")
    a, b, c = mig.add_pis(3)
    out = mig.add_maj(a, b, c)
    mig.add_po(out, "m")
    return mig, (a, b, c), out


class TestConstruction:
    def test_constant_node_reserved(self):
        mig = Mig()
        assert mig.n_nodes == 1
        assert mig.is_const(0)
        assert mig.size == 0

    def test_add_pi_counts(self):
        mig = Mig()
        mig.add_pis(4)
        assert mig.n_pis == 4
        assert mig.size == 0

    def test_pi_names_default(self):
        mig = Mig()
        mig.add_pi()
        mig.add_pi("clk")
        assert mig.pi_names == ["pi0", "clk"]

    def test_add_maj_creates_gate(self, simple):
        mig, _, out = simple
        assert mig.is_maj(out.node)
        assert mig.size == 1

    def test_add_po_returns_index(self, simple):
        mig, (a, _, _), _ = simple
        assert mig.add_po(a, "x") == 1
        assert mig.n_pos == 2

    def test_fanins_sorted(self, simple):
        mig, (a, b, c), out = simple
        assert list(mig.fanins(out.node)) == sorted(
            [int(a), int(b), int(c)]
        )

    def test_fanins_of_pi_raises(self, simple):
        mig, (a, _, _), _ = simple
        with pytest.raises(MigError):
            mig.fanins(a.node)

    def test_signal_out_of_range_rejected(self):
        mig = Mig()
        with pytest.raises(MigError):
            mig.add_po(Signal.of(99))


class TestStructuralHashing:
    def test_identical_gates_shared(self):
        mig = Mig()
        a, b, c = mig.add_pis(3)
        assert mig.add_maj(a, b, c) == mig.add_maj(c, a, b)
        assert mig.size == 1

    def test_strash_disabled(self):
        mig = Mig(use_strash=False)
        a, b, c = mig.add_pis(3)
        assert mig.add_maj(a, b, c) != mig.add_maj(a, b, c)
        assert mig.size == 2

    def test_replace_fanin_reregisters_new_key(self):
        # after surgery, add_maj of the *new* fan-in tuple must reuse the
        # rewired gate instead of appending a structural duplicate
        mig = Mig()
        a, b, c, d = mig.add_pis(4)
        gate = mig.add_maj(a, b, c)
        mig._replace_fanin(gate.node, 2, d)
        assert mig.fanins(gate.node) == tuple(sorted(map(int, (a, b, d))))
        assert mig.add_maj(a, b, d) == gate
        assert mig.size == 1

    def test_replace_fanin_drops_old_key(self):
        mig = Mig()
        a, b, c, d = mig.add_pis(4)
        gate = mig.add_maj(a, b, c)
        mig._replace_fanin(gate.node, 0, d)
        # the old tuple no longer describes any gate: a fresh node appears
        fresh = mig.add_maj(a, b, c)
        assert fresh != gate
        assert mig.size == 2

    def test_replace_fanin_merges_with_existing_entry(self):
        # rewiring onto a tuple that already names another gate keeps the
        # earlier registrant so add_maj shares one canonical node
        mig = Mig()
        a, b, c, d = mig.add_pis(4)
        first = mig.add_maj(a, b, c)
        second = mig.add_maj(a, b, d)
        mig._replace_fanin(second.node, 2, c)
        assert mig.fanins(second.node) == mig.fanins(first.node)
        assert mig.add_maj(a, b, c) == first

    def test_replace_fanin_keeps_other_nodes_entries(self):
        # two gates may share a fan-in tuple after surgery; rewiring one of
        # them must not evict the other's strash registration
        mig = Mig()
        a, b, c, d = mig.add_pis(4)
        first = mig.add_maj(a, b, c)
        second = mig.add_maj(a, b, d)
        mig._replace_fanin(second.node, 2, c)  # duplicates first's tuple
        mig._replace_fanin(second.node, 2, d)  # and moves away again
        assert mig.add_maj(a, b, c) == first
        assert mig.add_maj(a, b, d) == second


class TestSimplification:
    def test_duplicate_input(self):
        mig = Mig()
        a, b = mig.add_pis(2)
        assert mig.add_maj(a, a, b) == a
        assert mig.size == 0

    def test_complement_pair(self):
        mig = Mig()
        a, b = mig.add_pis(2)
        assert mig.add_maj(a, ~a, b) == b

    def test_constant_pair(self):
        mig = Mig()
        a = mig.add_pi()
        assert mig.add_maj(FALSE, TRUE, a) == a

    def test_and_or_kept_as_gates(self):
        mig = Mig()
        a, b = mig.add_pis(2)
        assert mig.is_maj(mig.add_and(a, b).node)
        assert mig.is_maj(mig.add_or(a, b).node)


class TestCompositeOperators:
    def test_and_table(self):
        mig = Mig()
        a, b = mig.add_pis(2)
        mig.add_po(mig.add_and(a, b))
        assert truth_tables(mig) == [0b1000]

    def test_or_table(self):
        mig = Mig()
        a, b = mig.add_pis(2)
        mig.add_po(mig.add_or(a, b))
        assert truth_tables(mig) == [0b1110]

    def test_xor_table(self):
        mig = Mig()
        a, b = mig.add_pis(2)
        mig.add_po(mig.add_xor(a, b))
        assert truth_tables(mig) == [0b0110]

    def test_mux_table(self):
        mig = Mig()
        s, t, e = mig.add_pis(3)
        mig.add_po(mig.add_mux(s, t, e))
        # pattern bit order: s = x0, t = x1, e = x2
        expected = 0
        for p in range(8):
            sv, tv, ev = p & 1, (p >> 1) & 1, (p >> 2) & 1
            if (tv if sv else ev):
                expected |= 1 << p
        assert truth_tables(mig) == [expected]

    def test_maj_n_five_inputs(self):
        mig = Mig()
        sigs = mig.add_pis(5)
        mig.add_po(mig.add_maj_n(sigs))
        (table,) = truth_tables(mig)
        for p in range(32):
            ones = bin(p).count("1")
            assert bool((table >> p) & 1) == (ones >= 3)

    def test_maj_n_rejects_even(self):
        mig = Mig()
        sigs = mig.add_pis(4)
        with pytest.raises(MigError):
            mig.add_maj_n(sigs)

    def test_maj_n_single(self):
        mig = Mig()
        (a,) = mig.add_pis(1)
        assert mig.add_maj_n([a]) == a


class TestWholeGraphOperations:
    def test_gate_arrays_match_gates_and_fanins(self):
        mig = Mig()
        a, b, c = mig.add_pis(3)
        first = mig.add_maj(a, ~b, c)
        mig.add_pi("late")
        mig.add_maj(first, a, ~c)
        gates, fanins = mig.gate_arrays()
        assert gates.dtype == fanins.dtype == np.int64
        assert gates.tolist() == list(mig.gates())
        assert [tuple(row) for row in fanins.tolist()] == [
            mig.fanins(gate) for gate in mig.gates()
        ]
        assert Mig().gate_arrays()[1].shape == (0, 3)

    def test_clone_independent(self, simple):
        mig, _, _ = simple
        copy = mig.clone()
        copy.add_pi("extra")
        assert mig.n_pis == 3
        assert copy.n_pis == 4

    def test_cleanup_removes_dangling(self):
        mig = Mig()
        a, b, c = mig.add_pis(3)
        keep = mig.add_maj(a, b, c)
        mig.add_and(a, b)  # dangling
        mig.add_po(keep)
        assert mig.size == 2
        compact = mig.cleanup()
        assert compact.size == 1
        assert truth_tables(compact) == truth_tables(mig)

    def test_cleanup_preserves_interface(self, simple):
        mig, _, _ = simple
        compact = mig.cleanup()
        assert compact.pi_names == mig.pi_names
        assert compact.po_names == mig.po_names

    def test_pi_name_lookup(self):
        mig = Mig()
        nodes = [mig.add_pi(f"n{i}").node for i in range(5)]
        for i, node in enumerate(nodes):
            assert mig.pi_name(node) == f"n{i}"

    def test_pi_name_rejects_non_pi(self, simple):
        mig, _, out = simple
        with pytest.raises(MigError):
            mig.pi_name(out.node)
        with pytest.raises(MigError):
            mig.pi_name(0)

    def test_pi_names_survive_clone_and_cleanup(self):
        mig = Mig()
        a, b, c = (mig.add_pi(n) for n in ("alpha", "beta", "gamma"))
        mig.add_maj(a, b, c)  # dangling on purpose
        mig.add_po(mig.add_and(a, c), "y")
        for copy in (mig.clone(), mig.cleanup(), mig.clone().cleanup()):
            assert [copy.pi_name(n) for n in copy.pis] == [
                "alpha", "beta", "gamma"
            ]
            extra = copy.add_pi("delta")
            assert copy.pi_name(extra.node) == "delta"
        assert mig.pi_names == ["alpha", "beta", "gamma"]

    def test_dangling_gates_listed(self):
        mig = Mig()
        a, b = mig.add_pis(2)
        dead = mig.add_and(a, b)
        mig.add_po(a)
        assert mig.dangling_gates() == [dead.node]

    def test_complemented_fanin_count(self):
        mig = Mig()
        a, b, c = mig.add_pis(3)
        out = mig.add_maj(~a, ~b, c)
        mig.add_po(~out)
        assert mig.complemented_fanin_count() == 3

    def test_repr(self, simple):
        mig, _, _ = simple
        assert "size=1" in repr(mig)


class TestMaj3Helper:
    @pytest.mark.parametrize(
        "a,b,c", [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )
    def test_matches_definition(self, a, b, c):
        assert maj3(bool(a), bool(b), bool(c)) == (a + b + c >= 2)
