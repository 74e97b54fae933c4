"""Unit tests for BLIF, .mig, and Verilog I/O."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mig import Mig
from repro.core.simulate import truth_tables
from repro.core.wavepipe import WaveNetlist, wave_pipeline
from repro.errors import ParseError
from repro.io import blif
from repro.io import (
    dumps,
    dumps_blif,
    dumps_verilog,
    loads,
    loads_blif,
    read_blif,
    read_mig,
    write_blif,
    write_mig,
    write_verilog,
)

from helpers import build_adder_mig, build_random_mig


class TestMigFormat:
    def test_round_trip_function(self, adder_mig):
        text = dumps(adder_mig)
        parsed = loads(text)
        assert truth_tables(parsed) == truth_tables(adder_mig)

    def test_round_trip_interface(self, adder_mig):
        parsed = loads(dumps(adder_mig))
        assert parsed.n_pis == adder_mig.n_pis
        assert parsed.po_names == adder_mig.po_names
        assert parsed.name == adder_mig.name

    def test_file_round_trip(self, adder_mig, tmp_path):
        path = write_mig(adder_mig, tmp_path / "adder.mig")
        parsed = read_mig(path)
        assert truth_tables(parsed) == truth_tables(adder_mig)

    def test_constants_and_complements(self):
        mig = Mig("consts")
        a, b = mig.add_pis(2)
        g = mig.add_maj(~a, b, 1)  # OR with complement
        mig.add_po(~g, "f")
        parsed = loads(dumps(mig))
        assert truth_tables(parsed) == truth_tables(mig)

    def test_comments_and_blank_lines(self):
        text = """
        # a comment
        .model t
        .inputs a b c
        .outputs f

        n1 = MAJ(a, b, c)  # trailing comment is not supported inline
        f = ~n1
        """
        # inline comments strip via '#' split, so this parses
        parsed = loads(text)
        assert parsed.n_pis == 3
        assert truth_tables(parsed) == [0xE8 ^ 0xFF]

    def test_out_of_order_definitions(self):
        text = (
            ".model t\n.inputs a b c\n.outputs f\n"
            "n2 = MAJ(n1, a, 0)\nn1 = MAJ(a, b, c)\nf = n2\n"
        )
        parsed = loads(text)
        assert parsed.size == 2

    def test_unknown_operand_rejected(self):
        with pytest.raises(ParseError):
            loads(".model t\n.inputs a\n.outputs f\nf = ~ghost\n")

    def test_duplicate_input_rejected(self):
        with pytest.raises(ParseError):
            loads(".model t\n.inputs a a\n.outputs f\nf = a\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(ParseError):
            loads(".model t\n.inputs a\n.outputs f\nf := a\n")


class TestBlif:
    def test_round_trip_function(self, adder_mig):
        parsed = loads_blif(dumps_blif(adder_mig))
        assert truth_tables(parsed) == truth_tables(adder_mig)

    def test_file_round_trip(self, adder_mig, tmp_path):
        path = write_blif(adder_mig, tmp_path / "adder.blif")
        parsed = read_blif(path)
        assert truth_tables(parsed) == truth_tables(adder_mig)

    def test_random_round_trips(self):
        for seed in range(3):
            mig = build_random_mig(n_pis=5, n_gates=25, seed=seed)
            parsed = loads_blif(dumps_blif(mig))
            assert truth_tables(parsed) == truth_tables(mig)

    def test_reads_generic_sop(self):
        text = (
            ".model sop\n.inputs a b c\n.outputs f\n"
            ".names a b c f\n11- 1\n--1 1\n.end\n"
        )
        parsed = loads_blif(text)
        (table,) = truth_tables(parsed)
        for p in range(8):
            a, b, c = p & 1, (p >> 1) & 1, (p >> 2) & 1
            assert bool((table >> p) & 1) == bool((a and b) or c)

    def test_reads_off_set_cover(self):
        text = (
            ".model offs\n.inputs a b\n.outputs f\n"
            ".names a b f\n11 0\n.end\n"
        )
        parsed = loads_blif(text)
        assert truth_tables(parsed) == [0b0111]

    def test_continuation_lines(self):
        text = (
            ".model cont\n.inputs a b \\\nc\n.outputs f\n"
            ".names a b c f\n111 1\n.end\n"
        )
        parsed = loads_blif(text)
        assert parsed.n_pis == 3

    def test_rejects_latches(self):
        with pytest.raises(ParseError):
            loads_blif(".model s\n.inputs a\n.outputs q\n.latch a q\n.end\n")

    def test_rejects_wide_covers(self):
        inputs = " ".join(f"x{i}" for i in range(12))
        text = (
            f".model w\n.inputs {inputs}\n.outputs f\n"
            f".names {inputs} f\n{'1' * 12} 1\n.end\n"
        )
        with pytest.raises(ParseError):
            loads_blif(text, max_cover_inputs=10)

    def test_constant_blocks(self):
        text = (
            ".model k\n.inputs a\n.outputs f g\n"
            ".names one\n1\n.names a one f\n11 1\n"
            ".names zero\n.names a zero g\n1- 1\n.end\n"
        )
        parsed = loads_blif(text)
        # f = AND(a, one) = a;  g has a don't-care on the zero input, so
        # its cover "1-" also reduces to a
        assert truth_tables(parsed) == [0b10, 0b10]


def _sweep_lower(mig, covers, signals, max_cover_inputs):
    """The reader's former lowering: file-order sweeps until no block
    resolves (quadratic on reverse-ordered files; the reference order)."""
    pending = list(covers)
    progress = True
    while pending and progress:
        progress = False
        remaining = []
        for fanin_names, output_name, rows in pending:
            if any(name not in signals for name in fanin_names):
                remaining.append((fanin_names, output_name, rows))
                continue
            signals[output_name] = blif._lower_cover(
                mig, [signals[n] for n in fanin_names], rows,
                max_cover_inputs,
            )
            progress = True
        pending = remaining
    if pending:
        missing = ", ".join(p[1] for p in pending[:5])
        raise ParseError(f"unresolved .names blocks: {missing}")


def _structure(mig):
    """Everything that makes two MIGs node-for-node identical."""
    return (
        mig.n_nodes,
        mig.pis,
        [(gate, mig.fanins(gate)) for gate in mig.gates()],
        [int(po) for po in mig.pos],
        mig.pi_names,
        mig.po_names,
    )


def _and_chain(n, reverse):
    """BLIF of g_i = AND(g_{i-1}, b) for i = 1..n (g_0 = a)."""
    blocks = [
        f".names {'a' if i == 1 else f'g{i - 1}'} b g{i}\n11 1"
        for i in range(1, n + 1)
    ]
    if reverse:
        blocks.reverse()
    return (
        f".model chain\n.inputs a b\n.outputs g{n}\n"
        + "\n".join(blocks) + "\n.end\n"
    )


@st.composite
def _blif_texts(draw):
    """Small BLIF files whose blocks come in any order, with forward
    references, duplicated and undefined names, and cycles."""
    names = [f"n{i}" for i in range(draw(st.integers(1, 8)))]
    pool = ["a", "b", "c"] + names
    if draw(st.integers(0, 9)) == 0:
        pool.append("ghost")  # an undefined name
    blocks = []
    defined = set()
    for _ in range(draw(st.integers(1, 10))):
        output = draw(st.sampled_from(names + ["a"]))
        defined.add(output)
        fanins = draw(st.lists(st.sampled_from(pool), max_size=3))
        rows = draw(
            st.lists(
                st.text("01-", min_size=len(fanins), max_size=len(fanins)),
                min_size=1, max_size=3,
            )
        )
        cover = "\n".join(f"{row} 1" if fanins else "1" for row in rows)
        blocks.append(f".names {' '.join(fanins + [output])}\n{cover}")
    outputs = draw(
        st.lists(st.sampled_from(sorted(defined)), min_size=1, max_size=3)
    )
    return (
        ".model h\n.inputs a b c\n.outputs " + " ".join(outputs) + "\n"
        + "\n".join(blocks) + "\n.end\n"
    )


class TestBlifReadOrder:
    """The reader lowers blocks in the former sweeps' order, in one pass."""

    @settings(max_examples=300, deadline=None)
    @given(text=_blif_texts())
    def test_same_mig_or_error_as_the_sweeps(self, text):
        def read():
            try:
                return _structure(loads_blif(text))
            except ParseError as error:
                return str(error)

        got = read()
        with patch.object(blif, "_lower_blocks", _sweep_lower):
            want = read()
        assert got == want

    def test_reversed_chain_gives_the_forward_mig(self):
        forward = loads_blif(_and_chain(2000, reverse=False))
        backward = loads_blif(_and_chain(2000, reverse=True))
        assert forward.size == 2000
        assert _structure(backward) == _structure(forward)

    def test_two_block_cycle_raises(self):
        text = (
            ".model loop\n.inputs a\n.outputs x\n"
            ".names a y x\n11 1\n.names a x y\n11 1\n.end\n"
        )
        with pytest.raises(ParseError, match="unresolved .names blocks"):
            loads_blif(text)


class TestVerilog:
    def test_contains_cells_and_ports(self, adder_mig):
        netlist = WaveNetlist.from_mig(adder_mig)
        text = dumps_verilog(netlist)
        assert "module MAJ3" in text
        assert "module adder4" in text
        for name in adder_mig.pi_names:
            assert name in text

    def test_wave_netlist_with_buffers(self, adder_mig):
        result = wave_pipeline(adder_mig, fanout_limit=3)
        text = dumps_verilog(result.netlist)
        assert "BUF g" in text
        assert "FOG g" in text or result.fogs_added == 0

    def test_inverters_emitted(self):
        mig = Mig("inv")
        a, b, c = mig.add_pis(3)
        mig.add_po(mig.add_maj(~a, b, c), "f")
        text = dumps_verilog(WaveNetlist.from_mig(mig))
        assert "not inv_" in text

    def test_write_file(self, adder_mig, tmp_path):
        netlist = WaveNetlist.from_mig(adder_mig)
        path = write_verilog(netlist, tmp_path / "adder.v")
        assert path.read_text().startswith("module MAJ3")

    def test_identifier_sanitization(self):
        mig = Mig("bad name!")
        a = mig.add_pi("weird[0]")
        mig.add_po(a, "out<1>")
        text = dumps_verilog(WaveNetlist.from_mig(mig))
        assert "bad_name_" in text
        assert "weird_0_" in text
