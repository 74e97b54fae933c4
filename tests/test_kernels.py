"""Kernel-layer tests: the functional pass, the step loop, the planner.

``tests/test_batch_engine.py`` pins the packed engine's default path to
the scalar oracle; this module covers the two kernels of
`repro.core.wavepipe.kernels`:

* the functional pass and the tracked step loop both produce reports
  bit-identical to the scalar oracle; explicit ``lanes=`` overrides pin
  step-loop plans and are refused on a run that takes the functional
  pass;
* the functional pass is *never* taken on a netlist where the scalar
  oracle reports interference (the static safety proof), nor under
  ``track=True``, and demanding it there raises; it plans no lanes;
* strict-mode error messages are unchanged;
* the lane planner's cost model is monotone and respects the 16-word
  cap.
"""

import sys
import threading
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wavepipe import (
    ClockingScheme,
    WaveNetlist,
    can_elide_tracking,
    compile_netlist,
    describe_packed_run,
    open_packed_session,
    plan_stream_batch,
    random_vectors,
    simulate_streams,
    simulate_streams_packed,
    simulate_waves,
    simulate_waves_packed,
    wave_pipeline,
)
from repro.core.wavepipe.batch import (
    LANES_PER_WORD,
    MAX_PLANNED_WORDS,
    _default_lane_count,
    _overlap_slots,
    _plan_lanes,
)
from repro.core.wavepipe.kernels import FunctionalNetlist, _evaluate_levels
from repro.core.wavepipe.simulator import wave_separation
from repro.errors import SimulationError
from repro.suite.table import build_benchmark

from helpers import build_adder_mig, build_random_mig
from strategies import netlists, raw_netlists, stream_lengths

_vectors = random_vectors


@pytest.fixture
def balanced_netlist():
    return wave_pipeline(build_adder_mig(3), fanout_limit=3).netlist


@pytest.fixture
def unbalanced_netlist():
    return WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))


def _buf_only_phase_netlist() -> WaveNetlist:
    """Unbalanced netlist whose level-1 clock phase holds only a BUF.

    Regression shape: the fused tracked kernel once scattered
    *uninitialized* wave-id memory for phases with BUF/FOG components but
    no MAJ (the wave-id gather was guarded by ``n_maj``), producing
    phantom interference events with garbage wave ids.
    """
    netlist = WaveNetlist()
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    delayed = netlist.add_buf(int(a))  # level 1: a BUF-only phase (p=3)
    m = netlist.add_maj(int(delayed), int(b), int(c))  # level 2, unbalanced
    netlist.add_output(int(m))
    return netlist


class TestTrackingVariants:
    """The functional pass and the tracked step loop both equal the
    oracle."""

    @pytest.mark.parametrize("track", [None, True])
    @pytest.mark.parametrize("n_waves", [1, 40, 70])
    def test_balanced_identity(self, balanced_netlist, track, n_waves):
        vectors = _vectors(balanced_netlist.n_inputs, n_waves, seed=n_waves)
        scalar = simulate_waves(balanced_netlist, vectors, engine="python")
        packed = simulate_waves_packed(balanced_netlist, vectors, track=track)
        assert packed == scalar  # dataclass ==: every report field

    @pytest.mark.parametrize("n_waves", [1, 40, 70])
    def test_unbalanced_identity(self, unbalanced_netlist, n_waves):
        # interference events force the tracked kernels
        vectors = _vectors(
            unbalanced_netlist.n_inputs, n_waves, seed=n_waves
        )
        scalar = simulate_waves(unbalanced_netlist, vectors, engine="python")
        packed = simulate_waves_packed(unbalanced_netlist, vectors)
        assert packed == scalar
        if n_waves > 1:
            assert not packed.coherent  # the case actually interferes

    @pytest.mark.parametrize("track", [None, True])
    @pytest.mark.parametrize("lanes", [1, 7, 63, 64, 65, 100])
    def test_lanes_override_identity(
        self, balanced_netlist, unbalanced_netlist, track, lanes
    ):
        # lanes= pins a step-loop plan: report identity across word
        # boundaries wherever the step loop runs; a balanced run left to
        # take the functional pass (track=None) has no plan to pin
        for netlist in (balanced_netlist, unbalanced_netlist):
            vectors = _vectors(netlist.n_inputs, 70, seed=lanes)
            if netlist is balanced_netlist and track is None:
                with pytest.raises(SimulationError, match="functional"):
                    simulate_waves_packed(netlist, vectors, lanes=lanes)
                continue
            scalar = simulate_waves(netlist, vectors, engine="python")
            packed = simulate_waves_packed(
                netlist, vectors, track=track, lanes=lanes
            )
            assert packed == scalar

    @pytest.mark.parametrize("track", [None, True])
    @pytest.mark.parametrize("n_waves", [1, 16, 70])
    def test_buf_only_phase_identity(self, track, n_waves):
        # regression: a clock phase holding only BUF/FOG components must
        # still gather real wave ids in the tracked kernels (the fused
        # variant once scattered uninitialized memory here, emitting
        # phantom interference events with garbage wave ids)
        netlist = _buf_only_phase_netlist()
        vectors = _vectors(netlist.n_inputs, n_waves, seed=n_waves)
        scalar = simulate_waves(netlist, vectors, engine="python")
        packed = simulate_waves_packed(netlist, vectors, track=track)
        assert packed == scalar

    def test_streams_identity(self, balanced_netlist):
        streams = [
            _vectors(balanced_netlist.n_inputs, length, seed=length)
            for length in (5, 0, 31, 12)
        ]
        oracle = simulate_streams(balanced_netlist, streams, engine="python")
        packed = simulate_streams_packed(balanced_netlist, streams)
        assert packed == oracle

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_phase_counts_and_injection_modes(
        self, unbalanced_netlist, pipelined
    ):
        for n_phases in (2, 4):
            clocking = ClockingScheme(n_phases)
            vectors = _vectors(unbalanced_netlist.n_inputs, 25, seed=3)
            scalar = simulate_waves(
                unbalanced_netlist, vectors, clocking=clocking,
                pipelined=pipelined, engine="python",
            )
            packed = simulate_waves_packed(
                unbalanced_netlist, vectors, clocking=clocking,
                pipelined=pipelined,
            )
            assert packed == scalar


class TestKernelMatrixOnRandomNetlists:
    """The kernels on *random* netlists.

    :class:`TestTrackingVariants` sweeps hand-picked circuits; this class
    sweeps {balanced, unbalanced} x {1, 3} step-loop state words, plus
    the functional pass on the balanced ones, against the scalar oracle
    on randomly generated netlists, so word-boundary behaviour is pinned
    on structures nobody curated.
    """

    N_WAVES = 150
    #: lanes=30 keeps one state word; lanes=150 forces three.
    WORDS_TO_LANES = {1: 30, 3: 150}

    @staticmethod
    @lru_cache(maxsize=None)
    def _case(balanced: bool, seed: int):
        """(netlist, vectors, scalar oracle report), memoized.

        The scalar oracle is the expensive part of every sweep cell;
        cells sharing (balanced, seed) reuse one run.
        """
        mig = build_random_mig(n_gates=24, seed=seed, n_pis=5)
        if balanced:
            netlist = wave_pipeline(mig, fanout_limit=3).netlist
        else:
            netlist = WaveNetlist.from_mig(mig)
        vectors = _vectors(
            netlist.n_inputs,
            TestKernelMatrixOnRandomNetlists.N_WAVES,
            seed=seed + 1,
        )
        scalar = simulate_waves(netlist, vectors, engine="python")
        return netlist, vectors, scalar

    @pytest.mark.parametrize("balanced", [True, False])
    @pytest.mark.parametrize("words", [1, 3])
    @pytest.mark.parametrize("seed", [5, 23])
    def test_variant_parity(self, balanced, words, seed):
        netlist, vectors, scalar = self._case(balanced, seed)
        lanes = self.WORDS_TO_LANES[words]
        assert describe_packed_run(
            netlist, self.N_WAVES, lanes=lanes, track=True
        )["words"] == words
        # every netlist runs the pinned step loop; balanced ones also
        # take the functional pass (auto), which unbalanced ones never
        # may (TestElisionSafety pins that separately)
        packed = simulate_waves_packed(
            netlist, vectors, track=True, lanes=lanes
        )
        assert packed == scalar
        assert simulate_waves_packed(netlist, vectors) == scalar
        if not balanced and seed == 23:
            assert not scalar.coherent  # the sweep includes real events


class TestElisionSafety:
    """The functional pass engages exactly when interference cannot."""

    def test_balanced_netlist_elides(self, balanced_netlist):
        compiled = compile_netlist(balanced_netlist)
        assert compiled.balanced
        assert can_elide_tracking(compiled, compiled.n_phases)
        info = describe_packed_run(balanced_netlist, 16)
        assert info["functional"]

    def test_unbalanced_netlist_tracks(self, unbalanced_netlist):
        compiled = compile_netlist(unbalanced_netlist)
        assert not compiled.balanced
        assert not can_elide_tracking(compiled, compiled.n_phases)
        info = describe_packed_run(unbalanced_netlist, 16)
        assert not info["functional"]

    def test_only_wave_ready_untracked_runs_take_the_functional_pass(
        self, balanced_netlist, unbalanced_netlist, monkeypatch
    ):
        # an unbalanced netlist or track=True never reaches the
        # functional pass, one-shot, batched or in a session ...
        calls = []
        run = FunctionalNetlist.run
        monkeypatch.setattr(
            FunctionalNetlist, "run",
            lambda self, bits: calls.append(len(bits)) or run(self, bits),
        )
        for netlist, track in (
            (unbalanced_netlist, None), (balanced_netlist, True)
        ):
            vectors = _vectors(netlist.n_inputs, 20, seed=4)
            assert simulate_waves_packed(
                netlist, vectors, track=track
            ) == simulate_waves(netlist, vectors, engine="python")
            simulate_streams_packed(netlist, [vectors, vectors], track=track)
        with open_packed_session(balanced_netlist, track=True) as session:
            session.feed(vectors).report
        assert calls == []
        # ... and a wave-ready run takes it without planning lanes
        before = _plan_lanes.cache_info()
        simulate_waves_packed(balanced_netlist, vectors)
        simulate_streams_packed(balanced_netlist, [vectors] * 3)
        with open_packed_session(balanced_netlist) as session:
            session.feed(vectors)
            session.feed(vectors)
        plan_stream_batch(balanced_netlist, [20] * 7)
        describe_packed_run(balanced_netlist, 300)
        assert calls == [20, 60, 40]
        after = _plan_lanes.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_sub_minimal_separation_refused(self, balanced_netlist):
        # separations below the phase count never come out of the public
        # entry points, but the kernel-level guard must still hold
        compiled = compile_netlist(balanced_netlist)
        assert not can_elide_tracking(compiled, compiled.n_phases - 1)

    def test_demanding_elision_on_unsafe_netlist_raises(
        self, unbalanced_netlist
    ):
        vectors = _vectors(unbalanced_netlist.n_inputs, 8, seed=1)
        with pytest.raises(SimulationError, match="cannot be elided"):
            simulate_waves_packed(unbalanced_netlist, vectors, track=False)

    @given(
        raw_netlists(),
        st.integers(0, 2**16),
        st.integers(2, 4),
        st.integers(2, 40),
    )
    @settings(max_examples=30, deadline=None)
    def test_interfering_netlists_never_elide(
        self, netlist, seed, n_phases, n_waves
    ):
        # satellite property: wherever the scalar oracle reports
        # interference, the static proof must have refused the
        # functional pass (and the auto path, which follows the proof,
        # reproduces the events)
        clocking = ClockingScheme(n_phases)
        vectors = _vectors(netlist.n_inputs, n_waves, seed=seed)
        scalar = simulate_waves(
            netlist, vectors, clocking=clocking, engine="python"
        )
        compiled = compile_netlist(netlist, clocking)
        if scalar.interference:
            assert not can_elide_tracking(compiled, n_phases)
        packed = simulate_waves_packed(
            netlist, vectors, clocking=clocking
        )
        assert packed.interference == scalar.interference

    def test_strict_messages_unchanged(self, unbalanced_netlist):
        # strict-mode errors match the scalar oracle verbatim
        vectors = _vectors(unbalanced_netlist.n_inputs, 10, seed=1)
        with pytest.raises(SimulationError) as reference:
            simulate_waves(
                unbalanced_netlist, vectors, strict=True, engine="python"
            )
        with pytest.raises(SimulationError) as packed:
            simulate_waves_packed(unbalanced_netlist, vectors, strict=True)
        assert str(packed.value) == str(reference.value)

    def test_strict_elided_is_silent_on_balanced(self, balanced_netlist):
        # strict mode on the functional pass: no events can exist, so
        # the run completes exactly like the oracle's
        vectors = _vectors(balanced_netlist.n_inputs, 20, seed=2)
        scalar = simulate_waves(
            balanced_netlist, vectors, strict=True, engine="python"
        )
        packed = simulate_waves_packed(balanced_netlist, vectors, strict=True)
        assert packed == scalar


class TestPlanner:
    """Cost-model shape: monotone and word-capped."""

    @staticmethod
    def _lanes(n_waves, n_components=664, depth=15, n_phases=3):
        separation = n_phases
        warm, _ = _overlap_slots(depth, n_phases, separation, True)
        return _default_lane_count(
            n_waves, warm, separation, depth, n_components
        )

    def test_monotone_in_wave_count(self):
        counts = [
            self._lanes(n)
            for n in (1, 64, 65, 128, 500, 2000, 10_000, 200_000)
        ]
        assert counts == sorted(counts)
        assert counts[0] == 1 and counts[1] == 64  # 1 lane per wave

    def test_word_cap(self):
        lanes = self._lanes(10**7)
        assert lanes <= MAX_PLANNED_WORDS * LANES_PER_WORD
        assert lanes % LANES_PER_WORD == 0  # whole words only

    def test_describe_packed_run_reflects_overrides(self, balanced_netlist):
        info = describe_packed_run(
            balanced_netlist, 300, lanes=130, track=True
        )
        assert info["lanes"] == 130
        assert info["words"] == 3
        auto = describe_packed_run(balanced_netlist, 300, track=True)
        assert auto["lanes"] % LANES_PER_WORD == 0 or auto["lanes"] == 300
        # the functional pass: MAJ levels and ceil(waves / 64) words
        levels = len(compile_netlist(balanced_netlist).functional.levels)
        assert describe_packed_run(balanced_netlist, 300) == {
            "functional": True, "balanced": True, "levels": levels,
            "words": 5,
        }
        assert plan_stream_batch(balanced_netlist, [40, 0, 25])[
            "words"
        ] == 2

    @given(
        netlists(wave_ready=True),
        stream_lengths(max_streams=6, max_waves=300),
        st.integers(2, 4),
        st.booleans(),
        st.none() | st.integers(1, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_balanced_plans_are_overlap_free(
        self, netlist, lengths, n_phases, pipelined, lanes
    ):
        # a wave-ready run forced through the step loop: no warm-up, no
        # forward slots, and a lane stops when its last wave retires
        compiled = compile_netlist(netlist, ClockingScheme(n_phases))
        separation = wave_separation(compiled.depth, n_phases, pipelined)
        assert can_elide_tracking(compiled, separation)
        assert _overlap_slots(
            compiled.depth, n_phases, separation, compiled.balanced
        ) == (0, 0)
        live = tuple(length for length in lengths if length) or (1,)
        plan = _plan_lanes(
            live, compiled.depth, n_phases, separation, compiled.balanced,
            compiled.n_components,
            lanes=lanes if len(live) == 1 else None,
        )
        assert not plan.warm.any()
        assert (plan.n_inj == plan.chunk).all()  # forward == 0
        assert plan.local_steps == (
            (int(plan.chunk.max()) - 1) * separation + compiled.depth + 1
        )

    #: Plans of the unbalanced fixture, field for field as the planner
    #: built them before overlap-free plans existed: (stream lengths,
    #: pipelined, lanes) -> every plan field.
    UNBALANCED_PLANS = {
        ((12, 30, 7), True, None): dict(
            n_lanes=6, n_words=1, local_steps=67,
            stream=[0, 0, 1, 1, 1, 2], chunk=[6, 6, 10, 10, 10, 7],
            warm=[0, 6, 0, 10, 10, 0], base=[0, 0, 12, 12, 22, 42],
            wave0=[0, 0, 0, 0, 10, 0], n_inj=[9, 12, 13, 23, 20, 7],
            offset=[0, 0, 0, 0, 30, 0], keep_lo=[0, 18, 0, 30, 30, 0],
            keep_hi=[18, 43, 30, 60, 67, 28], stream_waves=[12, 30, 7],
            stream_base=[0, 12, 42], stream_steps=[43, 97, 28],
        ),
        ((40,), False, 7): dict(
            n_lanes=7, n_words=1, local_steps=91,
            stream=[0] * 7, chunk=[6, 6, 6, 6, 6, 5, 5],
            warm=[0, 4, 4, 4, 4, 4, 4], base=[0, 2, 8, 14, 20, 26, 31],
            wave0=[0, 2, 8, 14, 20, 26, 31], n_inj=[7, 11, 11, 11, 11, 10, 9],
            offset=[0, 18, 72, 126, 180, 234, 279],
            keep_lo=[0, 36, 36, 36, 36, 36, 36],
            keep_hi=[54, 90, 90, 90, 90, 81, 82], stream_waves=[40],
            stream_base=[0], stream_steps=[361],
        ),
    }

    @pytest.mark.parametrize("case", sorted(UNBALANCED_PLANS, key=str))
    def test_unbalanced_plans_are_unchanged(self, unbalanced_netlist, case):
        lengths, pipelined, lanes = case
        compiled = compile_netlist(unbalanced_netlist)
        plan = _plan_lanes(
            lengths, compiled.depth, compiled.n_phases,
            wave_separation(compiled.depth, compiled.n_phases, pipelined),
            compiled.balanced, compiled.n_components, lanes=lanes,
        )
        got = {
            name: value.tolist() if hasattr(value, "tolist") else value
            for name, value in vars(plan).items()
        }
        assert got == self.UNBALANCED_PLANS[case]

    def test_plans_are_memoized_read_only(self, balanced_netlist):
        compiled = compile_netlist(balanced_netlist)
        args = ((32,) * 5, compiled.depth, compiled.n_phases, 3,
                compiled.balanced, compiled.n_components)
        plan = _plan_lanes(*args)
        again = _plan_lanes(*args)
        assert again is plan
        with pytest.raises(ValueError):
            plan.chunk[0] = 0

    def test_a_served_batch_runs_the_plan_its_sizing_made(
        self, unbalanced_netlist
    ):
        # the batcher sizes a batch with plan_stream_batch; the tracked
        # pass that runs it must find that plan in the memo
        streams = [_vectors(unbalanced_netlist.n_inputs, 9, seed=s)
                   for s in range(7)]
        plan_stream_batch(unbalanced_netlist, [9] * 7)
        hits = _plan_lanes.cache_info().hits
        simulate_streams_packed(unbalanced_netlist, streams)
        assert _plan_lanes.cache_info().hits == hits + 1

    def test_plan_matches_simulation(self, balanced_netlist):
        # the described plan is the plan the run actually uses: forcing
        # the same lane count reproduces the default report bit for bit
        vectors = _vectors(balanced_netlist.n_inputs, 200, seed=9)
        info = describe_packed_run(balanced_netlist, 200, track=True)
        default = simulate_waves_packed(balanced_netlist, vectors, track=True)
        pinned = simulate_waves_packed(
            balanced_netlist, vectors, lanes=info["lanes"], track=True
        )
        assert default == pinned


class TestFunctionalPass:
    """The levelized evaluator itself."""

    def test_the_level_loop_allocates_nothing(self):
        # with the run's buffers made, the loop only takes views: no
        # array, not even an index copy (np.take copies read-only
        # indices on every call), is allocated per level.  One word
        # keeps numpy's broadcasting iterator, which the complement
        # masks need at wider runs, out of the measurement
        netlist = wave_pipeline(
            build_benchmark("i2c"), fanout_limit=3, verify=False
        ).netlist
        functional = compile_netlist(netlist).functional
        values = np.zeros((functional.n_rows, 1), dtype=np.uint64)
        gather = np.empty((3 * functional.width, 1), dtype=np.uint64)
        _evaluate_levels(values, gather, functional.levels)
        tracemalloc.start()
        try:
            _evaluate_levels(values, gather, functional.levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * functional.width * 8  # one level's indices

    def test_threads_share_one_compiled_netlist(self):
        # shard threads and session dispatchers evaluate one compiled
        # netlist at once: no run may see another's buffers
        netlist = wave_pipeline(
            build_benchmark("ctrl"), fanout_limit=3, verify=False
        ).netlist
        functional = compile_netlist(netlist).functional
        tables = [
            np.asarray(_vectors(netlist.n_inputs, 64 * (1 + k), seed=k),
                       dtype=bool)
            for k in range(4)
        ]
        expected = [
            simulate_waves_packed(netlist, table, track=True).bits
            for table in tables
        ]
        failures = []
        barrier = threading.Barrier(len(tables))

        def evaluate(index):
            barrier.wait()
            for _ in range(100):
                if not np.array_equal(
                    functional.run(tables[index]), expected[index]
                ):
                    failures.append(index)
                    return

        threads = [
            threading.Thread(target=evaluate, args=(index,))
            for index in range(len(tables))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
