"""Property tests: the packed engine is bit-identical to the scalar oracle.

The scalar loop in ``simulator.py`` defines the semantics of the Fig. 4
model; the packed engine in ``batch.py`` must reproduce it exactly — same
outputs, same interference events (contents *and* order), same counters —
on balanced and deliberately unbalanced netlists, across phase counts and
injection modes, across the 64-lane word boundaries of the multi-word
layout (explicit ``lanes=`` forcings pin the word count of the tracked
step loop), and for batched independent streams (``simulate_streams``).
Wave-ready runs left to the default take the functional pass, so every
default comparison below checks it too.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.wavepipe import (
    ClockingScheme,
    WaveNetlist,
    compile_netlist,
    golden_outputs,
    random_vectors,
    simulate_streams,
    simulate_streams_packed,
    simulate_waves,
    simulate_waves_packed,
    plan_stream_batch,
    wave_pipeline,
)
from repro.core.wavepipe.batch import (
    _pack_injections,
    _pack_lanes,
    _plan_lanes,
    _unpack_lanes,
)
from repro.errors import SimulationError
from repro.suite.table import build_benchmark

from helpers import build_adder_mig, build_random_mig
from strategies import netlists, stream_lengths

_vectors = random_vectors  # the drivers' shared stimulus convention


def _assert_identical(netlist, vectors, n_phases=3, pipelined=True,
                      lanes=None):
    clocking = ClockingScheme(n_phases)
    scalar = simulate_waves(
        netlist, vectors, clocking=clocking, pipelined=pipelined
    )
    if lanes is None:
        packed = simulate_waves(
            netlist, vectors, clocking=clocking, pipelined=pipelined,
            engine="packed",
        )
    else:
        # a lane pin names a plan of the tracked step loop
        packed = simulate_waves_packed(
            netlist, vectors, clocking=clocking, pipelined=pipelined,
            lanes=lanes, track=True,
        )
    assert packed.outputs == scalar.outputs
    assert packed.interference == scalar.interference
    assert packed.steps_run == scalar.steps_run
    assert packed.latency_steps == scalar.latency_steps
    assert packed.waves_injected == scalar.waves_injected
    assert packed.waves_retired == scalar.waves_retired
    return scalar, packed


class TestEnginesAgree:
    @given(
        netlists(),
        st.integers(2, 4),
        st.booleans(),
        st.integers(1, 80),
        st.integers(0, 2**16),
        st.none() | st.integers(1, 160),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_reports(
        self, netlist, n_phases, pipelined, n_waves, seed, lanes
    ):
        # lanes > 64 forces the multi-word layout even on short streams
        vectors = _vectors(netlist.n_inputs, n_waves, seed)
        _assert_identical(netlist, vectors, n_phases, pipelined, lanes=lanes)

    @given(st.integers(2, 4), st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_balanced_matches_golden(self, n_phases, pipelined):
        netlist = wave_pipeline(build_adder_mig(3), fanout_limit=3).netlist
        vectors = _vectors(netlist.n_inputs, 40, seed=n_phases)
        scalar, packed = _assert_identical(
            netlist, vectors, n_phases, pipelined
        )
        assert packed.coherent
        assert packed.outputs == golden_outputs(netlist, vectors)
        assert scalar.waves_retired == len(vectors)

    @pytest.mark.parametrize("n_waves", [1, 63, 64, 65, 129, 200])
    def test_lane_chunking_boundaries(self, n_waves):
        # wave counts straddling the 64-lane packing must not disturb the
        # chunk/warm-up bookkeeping, balanced or not
        ready = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        raw = WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))
        for netlist in (ready, raw):
            vectors = _vectors(netlist.n_inputs, n_waves, seed=n_waves)
            _assert_identical(netlist, vectors)

    @pytest.mark.parametrize("n_waves", [63, 64, 65, 128, 129])
    @pytest.mark.parametrize("pipelined", [True, False])
    def test_word_boundaries_multi_word(self, n_waves, pipelined):
        # one lane per wave pins the word count: 65 waves -> 2 words,
        # 129 -> 3; outputs and events must not notice the word seams,
        # in pipelined and non-pipelined injection alike
        ready = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        raw = WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))
        for netlist in (ready, raw):
            vectors = _vectors(netlist.n_inputs, n_waves, seed=n_waves)
            _assert_identical(
                netlist, vectors, pipelined=pipelined, lanes=n_waves
            )

    def test_1024_waves_bit_identical(self):
        # the planner chooses the multi-word layout on its own here; the
        # report must still match the scalar oracle bit for bit
        netlist = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        vectors = _vectors(netlist.n_inputs, 1030, seed=5)
        scalar, packed = _assert_identical(netlist, vectors)
        assert packed.coherent
        assert packed.outputs == golden_outputs(netlist, vectors)

    def test_unbalanced_interference_is_reproduced(self):
        raw = WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))
        vectors = _vectors(raw.n_inputs, 32, seed=1)
        scalar, packed = _assert_identical(raw, vectors)
        assert not packed.coherent
        assert len(packed.interference) == len(scalar.interference) > 0

    def test_unbalanced_interference_multi_word(self):
        raw = WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))
        vectors = _vectors(raw.n_inputs, 130, seed=1)
        scalar, packed = _assert_identical(raw, vectors, lanes=130)
        assert len(packed.interference) == len(scalar.interference) > 0

    def test_strict_mode_raises_same_message(self):
        raw = WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))
        vectors = _vectors(raw.n_inputs, 10, seed=1)
        messages = []
        for engine in ("python", "packed"):
            with pytest.raises(SimulationError) as exc_info:
                simulate_waves(raw, vectors, strict=True, engine=engine)
            messages.append(str(exc_info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("lanes", [1, 7, 70, 100])
    def test_strict_message_identical_across_lane_plans(self, lanes):
        # the raised event must be the scalar loop's first event no matter
        # how the stream is chunked (including multi-word forcings)
        raw = WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))
        vectors = _vectors(raw.n_inputs, 100, seed=1)
        with pytest.raises(SimulationError) as reference:
            simulate_waves(raw, vectors, strict=True, engine="python")
        with pytest.raises(SimulationError) as forced:
            simulate_waves_packed(raw, vectors, strict=True, lanes=lanes)
        assert str(forced.value) == str(reference.value)


class TestStreams:
    """simulate_streams: batched independent streams == one-at-a-time."""

    def _assert_streams_identical(self, netlist, streams, **kwargs):
        oracle = simulate_streams(
            netlist, streams, engine="python", **kwargs
        )
        batched = simulate_streams(
            netlist, streams, engine="packed", **kwargs
        )
        assert len(batched) == len(oracle) == len(streams)
        for got, expected in zip(batched, oracle):
            assert got == expected  # dataclass ==: every report field
        return batched

    @given(
        netlists(),
        stream_lengths(max_streams=5, max_waves=70),
        st.booleans(),
        st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_streams_match_sequential_oracle(
        self, netlist, lengths, pipelined, seed
    ):
        streams = [
            _vectors(netlist.n_inputs, length, seed=seed + index)
            for index, length in enumerate(lengths)
        ]
        self._assert_streams_identical(
            netlist, streams, pipelined=pipelined
        )

    @given(
        netlists(wave_ready=True),
        stream_lengths(max_streams=6, max_waves=90),
        st.integers(2, 4),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**16),
    )
    @example(
        wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist,
        [0, 1, 63, 64, 65, 129], 3, True, True, 0,
    )
    @settings(max_examples=30, deadline=None)
    def test_overlap_free_batches_match_the_oracle(
        self, netlist, lengths, n_phases, pipelined, strict, seed
    ):
        # wave-ready batches: the functional pass and the overlap-free
        # tracked plans both equal the scalar oracle field for field
        clocking = ClockingScheme(n_phases)
        streams = [
            _vectors(netlist.n_inputs, length, seed=seed + index)
            for index, length in enumerate(lengths)
        ]
        oracle = simulate_streams(
            netlist, streams, clocking=clocking, pipelined=pipelined,
            strict=strict, engine="python",
        )
        for track in (None, True):
            packed = simulate_streams_packed(
                netlist, streams, clocking=clocking, pipelined=pipelined,
                strict=strict, track=track,
            )
            assert packed == oracle

    def test_streams_span_word_boundaries(self):
        # enough streams that the lane table crosses several words
        netlist = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        streams = [
            _vectors(netlist.n_inputs, 3, seed=index) for index in range(150)
        ]
        reports = self._assert_streams_identical(netlist, streams)
        for report, stream in zip(reports, streams):
            assert report.outputs == golden_outputs(netlist, stream)

    def test_empty_streams_mixed_in(self):
        netlist = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        streams = [
            _vectors(netlist.n_inputs, 4, seed=1),
            [],
            _vectors(netlist.n_inputs, 9, seed=2),
        ]
        reports = self._assert_streams_identical(netlist, streams)
        assert reports[1].steps_run == 0
        assert reports[1].outputs == []

    def test_no_streams(self):
        netlist = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        assert simulate_streams(netlist, [], engine="packed") == []
        assert simulate_streams(netlist, [], engine="python") == []

    @pytest.mark.parametrize("engine", ["python", "packed"])
    @pytest.mark.parametrize("streams", [[], [[]], [[], []]])
    def test_depth_zero_rejected_even_for_empty_batches(
        self, engine, streams
    ):
        # parity: both engines must refuse a depth-0 netlist before
        # looking at the batch, even when there is nothing to simulate
        netlist = WaveNetlist()
        netlist.add_output(netlist.add_input())
        with pytest.raises(SimulationError):
            simulate_streams(netlist, streams, engine=engine)

    def test_unbalanced_events_attributed_per_stream(self):
        raw = WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))
        streams = [
            _vectors(raw.n_inputs, length, seed=length)
            for length in (12, 30, 7)
        ]
        reports = self._assert_streams_identical(raw, streams)
        assert any(not report.coherent for report in reports)

    def test_strict_mode_same_error_as_sequential(self):
        raw = WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))
        streams = [
            _vectors(raw.n_inputs, length, seed=length)
            for length in (10, 25)
        ]
        messages = []
        for engine in ("python", "packed"):
            with pytest.raises(SimulationError) as exc_info:
                simulate_streams(raw, streams, strict=True, engine=engine)
            messages.append(str(exc_info.value))
        assert messages[0] == messages[1]

    def test_unknown_engine_rejected(self):
        netlist = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        with pytest.raises(SimulationError):
            simulate_streams(netlist, [], engine="verilator")

    def test_direct_entry_point_matches_front_end(self):
        netlist = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        streams = [_vectors(netlist.n_inputs, 6, seed=s) for s in range(3)]
        assert simulate_streams_packed(netlist, streams) == simulate_streams(
            netlist, streams
        )


#: Lane counts around the codec's byte and word seams.
CODEC_LANES = [1, 63, 64, 65, 127, 128, 129, 1100]


def _unequal_lengths(n_lanes, balanced):
    """Unequal stream lengths the planner packs on exactly *n_lanes*.

    A tiny balanced netlist gets one lane per wave up to the 16-word
    budget and one lane per stream past it; an unbalanced one gets one
    lane per stream of fewer waves than its warm-up.
    """
    if balanced and n_lanes <= 1024:
        lengths, left = [], n_lanes
        while left:
            lengths.append(min(left, 1 + len(lengths) % 3))
            left -= lengths[-1]
        return lengths
    return [1 + index % 2 for index in range(n_lanes)]


class TestLaneCodec:
    """``np.packbits`` lanes: lane b is bit b % 64 of word b // 64."""

    @pytest.mark.parametrize("n_lanes", CODEC_LANES)
    def test_round_trip_and_bit_layout(self, n_lanes):
        n_words = -(-n_lanes // 64)
        rng = np.random.default_rng(n_lanes)
        lanes = np.zeros((3, 5, 64 * n_words), dtype=bool)
        lanes[..., :n_lanes] = rng.random((3, 5, n_lanes)) < 0.5
        words = _pack_lanes(lanes)
        assert words.shape == (3, 5, n_words)
        lane = np.arange(n_lanes)
        bit = (words[..., lane // 64] >> (lane % 64).astype(np.uint64)) & 1
        assert np.array_equal(bit.astype(bool), lanes[..., :n_lanes])
        assert np.array_equal(
            _unpack_lanes(words, n_lanes).view(bool), lanes[..., :n_lanes]
        )

    @pytest.mark.parametrize("n_lanes", CODEC_LANES)
    def test_pinned_lanes_with_unequal_chunks(self, n_lanes):
        # 2L - 1 waves on L lanes: all chunks of 2 but the last
        ready = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        raw = WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))
        for netlist in (ready, raw):
            vectors = _vectors(
                netlist.n_inputs, 2 * n_lanes - 1, seed=n_lanes
            )
            scalar, packed = _assert_identical(
                netlist, vectors, lanes=n_lanes
            )
            assert packed == scalar

    @pytest.mark.parametrize("n_lanes", CODEC_LANES)
    def test_unequal_streams(self, n_lanes):
        ready = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        raw = WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))
        for netlist, balanced in ((ready, True), (raw, False)):
            lengths = _unequal_lengths(n_lanes, balanced)
            assert plan_stream_batch(
                netlist, lengths, track=True
            )["lanes"] == n_lanes
            streams = [
                _vectors(netlist.n_inputs, length, seed=index)
                for index, length in enumerate(lengths)
            ]
            assert simulate_streams_packed(netlist, streams, track=True) == (
                simulate_streams(netlist, streams, engine="python")
            )

    def test_packing_a_long_stream_stays_near_one_byte_per_bit(self):
        # the codec gathers one bool per (slot, lane, input) before
        # packing them; its transients must stay a small multiple of
        # that (a uint64 per bit would be 8x), not grow with the stream
        netlist = wave_pipeline(
            build_benchmark("ctrl"), fanout_limit=3, verify=False
        ).netlist
        compiled = compile_netlist(netlist)
        bits = np.random.default_rng(3).random(
            (100_000, netlist.n_inputs)
        ) < 0.5
        plan = _plan_lanes(
            (len(bits),), compiled.depth, compiled.n_phases, 3,
            compiled.balanced, compiled.n_components,
        )
        gathered = (
            int(plan.n_inj.max()) * plan.n_words * 64 * netlist.n_inputs
        )
        tracemalloc.start()
        try:
            _pack_injections(bits, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * gathered  # 2.6x measured


class TestEmptyWaveList:
    @pytest.mark.parametrize("engine", ["python", "packed"])
    def test_empty_is_clean(self, engine):
        # regression: this used to report steps_run == -1 and a negative
        # measured throughput
        netlist = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        report = simulate_waves(netlist, [], engine=engine)
        assert report.outputs == []
        assert report.steps_run == 0
        assert report.waves_injected == 0
        assert report.waves_retired == 0
        assert report.interference == []
        assert report.coherent
        assert report.measured_throughput() == 0.0
        assert report.latency_steps == netlist.depth()

    @pytest.mark.parametrize("engine", ["python", "packed"])
    def test_depth_zero_still_rejected(self, engine):
        netlist = WaveNetlist()
        netlist.add_output(netlist.add_input())
        with pytest.raises(SimulationError):
            simulate_waves(netlist, [], engine=engine)


class TestFrontEnd:
    def test_unknown_engine_rejected(self):
        netlist = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        with pytest.raises(SimulationError):
            simulate_waves(netlist, [], engine="verilator")

    def test_wrong_vector_width_same_error(self):
        netlist = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        for engine in ("python", "packed"):
            with pytest.raises(SimulationError):
                simulate_waves(netlist, [[True]], engine=engine)

    def test_direct_packed_entry_point(self):
        netlist = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        vectors = _vectors(netlist.n_inputs, 8)
        direct = simulate_waves_packed(netlist, vectors)
        assert direct.outputs == golden_outputs(netlist, vectors)


class TestCompileCache:
    def test_cache_hits_same_version(self):
        netlist = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        assert compile_netlist(netlist) is compile_netlist(netlist)

    def test_cache_invalidated_by_mutation(self):
        netlist = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        before = compile_netlist(netlist)
        source = netlist.outputs[0]
        netlist.set_output(0, int(netlist.add_buf(int(source))))
        after = compile_netlist(netlist)
        assert after is not before
        assert after.depth == before.depth + 1

    def test_distinct_phase_counts_cached_separately(self):
        netlist = wave_pipeline(build_adder_mig(2), fanout_limit=3).netlist
        two = compile_netlist(netlist, ClockingScheme(2))
        three = compile_netlist(netlist, ClockingScheme(3))
        assert two.n_phases == 2 and three.n_phases == 3
        assert compile_netlist(netlist, ClockingScheme(2)) is two
