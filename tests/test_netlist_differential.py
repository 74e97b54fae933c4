"""Differential suite: array-native netlist passes vs the list reference.

Every FOx+BUF configuration the flow offers — fan-out limit None or 2..5,
either pass order, balancing on or off — runs through the array-native
passes of :mod:`repro.core.wavepipe` and through ``list_reference`` (the
list-of-tuples implementation they replaced).  The two must agree on the
netlist arrays, every transform statistic, the checker reports, the
compiled phase tables for 2..4 phases and the equivalence verdict,
including the rejection of a netlist with one complement bit flipped.
Every flow result also carries a structural equivalence certificate
against its MIG, and each certified netlist is equal under the simulation
check run directly; the mutated netlists fail the certificate.

Tier-1 covers an 8-circuit subset plus Hypothesis netlists;
``REPRO_SUITE=full`` covers all 37 suite benchmarks.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import list_reference as ref
from repro.core.wavepipe import (
    Kind,
    WaveNetlist,
    check_balanced,
    check_equivalent_to_mig,
    check_fanout,
    insert_buffers,
    restrict_fanout,
    wave_pipeline,
)
from repro.core.wavepipe.kernels import _compile
from repro.core.wavepipe.verify import certify_equivalent, simulate_equivalent
from repro.suite import SUITE, get_benchmark

from strategies import random_migs

#: Small suite circuits of every family: controllers, decoders, arithmetic.
TIER1_CIRCUITS = (
    "ctrl", "dec", "int2float", "router", "cavlc", "priority", "i2c",
    "adder32",
)

CIRCUITS = (
    tuple(spec.name for spec in SUITE)
    if os.environ.get("REPRO_SUITE", "").lower() == "full"
    else TIER1_CIRCUITS
)

LIMITS = (None, 2, 3, 4, 5)
ORDERS = ("fo-first", "buf-first")

FANOUT_FIELDS = (
    "limit", "fogs_added", "buffers_added", "delayed_components",
    "depth_before", "depth_after",
)
BUFFER_FIELDS = (
    "buffers_added", "padding_buffers", "depth_before", "depth_after",
)


def pipeline(mig, limit, balance: bool, order: str):
    """``wave_pipeline``'s passes (verification is compared separately)."""
    result = wave_pipeline(
        mig, fanout_limit=limit, balance=balance, verify=False, order=order
    )
    return result.fanout_result, result.buffer_result, result.netlist


def assert_same_netlist(netlist: WaveNetlist, reference: ref.ListNetlist):
    kinds, fanins, outputs = netlist.arrays()
    ref_kinds, ref_fanins, ref_outputs = reference.arrays()
    assert kinds.dtype == np.int8 and fanins.dtype == np.int32
    assert outputs.dtype == np.int64
    np.testing.assert_array_equal(kinds, ref_kinds)
    np.testing.assert_array_equal(fanins, ref_fanins)
    np.testing.assert_array_equal(outputs, ref_outputs)
    assert netlist.inputs == reference.inputs
    assert netlist.input_names == reference.input_names
    assert netlist.output_names == reference.output_names
    assert netlist.levels().tolist() == reference.levels()
    assert netlist.depth() == reference.depth()
    # the order to_mig and the writers emit components in
    assert netlist.topological_order() == reference.topological_order()
    assert netlist.consumer_map() == reference.consumer_map()
    assert netlist.fanout_counts().tolist() == reference.fanout_counts()


def assert_same_compiled(netlist: WaveNetlist, reference: ref.ListNetlist):
    for p in (2, 3, 4):
        got = _compile(netlist, p)
        want = ref.compile_netlist(reference, p)
        for field in dataclasses.fields(want):
            a = getattr(got, field.name)
            b = getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype, field.name
                assert a.flags.c_contiguous, field.name
                np.testing.assert_array_equal(a, b, err_msg=field.name)
            else:
                assert type(a) is type(b) and a == b, field.name


def flip_fanin(netlist: WaveNetlist) -> WaveNetlist:
    """Copy with one complement bit flipped: fan-in 0 of the MAJ behind
    output 0 (found through its BUF/FOG chain)."""
    flipped = netlist.clone()
    node = int(flipped.outputs[0]) >> 1
    while flipped.kind(node) in (Kind.BUF, Kind.FOG):
        node = flipped.fanins(node)[0] >> 1
    if flipped.kind(node) == Kind.MAJ:
        flipped.set_fanin(node, 0, flipped.fanins(node)[0] ^ 1)
    else:  # output 0 is an input or a constant: flip the output itself
        flipped.set_output(0, int(flipped.outputs[0]) ^ 1)
    return flipped


def assert_same_verdicts(netlist: WaveNetlist, mig) -> None:
    assert check_equivalent_to_mig(netlist, mig) is True
    assert ref.check_equivalent_to_mig(ref.ListNetlist.from_arrays(netlist), mig)
    inverted = netlist.clone()
    inverted.set_output(0, int(inverted.outputs[0]) ^ 1)
    assert not certify_equivalent(inverted, mig)
    assert check_equivalent_to_mig(inverted, mig) is False
    # one flipped fan-in may leave a redundant circuit's function intact:
    # the verdicts must agree either way
    flipped = flip_fanin(netlist)
    assert not certify_equivalent(flipped, mig)
    assert check_equivalent_to_mig(flipped, mig) == ref.check_equivalent_to_mig(
        ref.ListNetlist.from_arrays(flipped), mig
    )


def run_both(mig, limit, balance: bool, order: str):
    """Run one configuration both ways and compare everything."""
    fanout, buffers, netlist = pipeline(mig, limit, balance, order)
    ref_fanout, ref_buffers, reference = ref.wave_pipeline(
        mig, limit, balance, order
    )
    assert_same_netlist(netlist, reference)
    if limit is not None:
        assert_same_netlist(fanout.netlist, ref_fanout.netlist)
        for name in FANOUT_FIELDS:
            assert getattr(fanout, name) == getattr(ref_fanout, name), name
        assert list(fanout.fog_counts.items()) == list(
            ref_fanout.fog_counts.items()
        )
        # incremental levels are exact in either pass order
        assert fanout.depth_after == fanout.netlist.depth()
    if balance:
        assert_same_netlist(buffers.netlist, ref_buffers.netlist)
        for name in BUFFER_FIELDS:
            assert getattr(buffers, name) == getattr(ref_buffers, name), name
        assert list(buffers.chain_lengths.items()) == list(
            ref_buffers.chain_lengths.items()
        )
    assert check_balanced(netlist) == ref.check_balanced(reference)
    for bound in (2, 3, 5):
        assert check_fanout(netlist, bound) == ref.check_fanout(
            reference, bound
        )
    assert_same_compiled(netlist, reference)
    # the flow only appends BUF/FOG rows and rewires fan-ins, so every
    # result is certified; the certificate never vouches for a netlist
    # that simulation would reject
    assert certify_equivalent(netlist, mig)
    assert simulate_equivalent(netlist, mig)
    return netlist


@pytest.mark.parametrize("name", CIRCUITS)
def test_flow_configurations_match_reference(name):
    mig = get_benchmark(name).build()
    for limit in LIMITS:
        for order in ORDERS:
            for balance in (True, False):
                netlist = run_both(mig, limit, balance, order)
                if limit in (None, 3) and order == "fo-first":
                    assert_same_verdicts(netlist, mig)


@pytest.mark.parametrize("name", ["ctrl", "i2c"])
def test_flipped_complement_rejected(name):
    # ctrl (7 inputs) takes the exhaustive branch, i2c (147) the seeded
    # random-simulation one
    mig = get_benchmark(name).build()
    _, _, netlist = pipeline(mig, 3, True, "fo-first")
    flipped = flip_fanin(netlist)
    assert flipped.version != netlist.version
    assert check_equivalent_to_mig(flipped, mig) is False
    assert not ref.check_equivalent_to_mig(
        ref.ListNetlist.from_arrays(flipped), mig
    )


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    mig=random_migs(max_gates=60, max_pis=16),
    limit=st.sampled_from(LIMITS),
    order=st.sampled_from(ORDERS),
    balance=st.booleans(),
)
def test_random_netlists_match_reference(mig, limit, order, balance):
    netlist = run_both(mig, limit, balance, order)
    assert_same_verdicts(netlist, mig)


@pytest.mark.parametrize("name", ["ctrl", "i2c"])
def test_buf_first_depth_is_exact(name):
    # buffer insertion leaves chain buffers at high indices driving
    # lower-index consumers; fan-out restriction must still see every
    # delay before it reads a level
    buffered = insert_buffers(WaveNetlist.from_mig(get_benchmark(name).build()))
    for limit in (2, 3, 4):
        result = restrict_fanout(buffered.netlist, limit)
        assert result.depth_after == result.netlist.depth()
