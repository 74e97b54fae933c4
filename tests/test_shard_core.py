"""The shard execution core, driven in process (``repro.serve.core``).

``ShardCore.handle`` is what both shard transports run: a process
shard's worker is a pipe loop around one core, and thread shards call
one shared core directly.  These tests hand it decoded worker messages
and check each reply against the packed engine called on its own.
"""

import sys
import threading
from functools import lru_cache

import numpy as np
import pytest

from repro.core.wavepipe import WaveNetlist, random_vectors, wave_pipeline
from repro.core.wavepipe.batch import (
    open_packed_session,
    simulate_streams_packed,
)
from repro.errors import SimulationError
from repro.serve.core import ShardCore
from repro.suite import build_benchmark

from helpers import build_random_mig

TIMEOUT_S = 120.0


@lru_cache(maxsize=None)
def _fo3(name):
    return wave_pipeline(build_benchmark(name), fanout_limit=3).netlist


def _block(netlist, waves, seed):
    return np.array(
        random_vectors(netlist.n_inputs, waves, seed=seed), dtype=bool
    ).reshape(waves, netlist.n_inputs)


def _key(netlist):
    return (id(netlist), netlist.version)


def _solo_feeds(netlist, blocks):
    """Each block's report from one engine session fed *blocks*."""
    session = open_packed_session(netlist)
    handles = [session.feed(block) for block in blocks]
    session.close()
    return [handle.report for handle in handles]


class TestRun:
    @pytest.mark.parametrize("name", ["ctrl", "i2c"])
    def test_shipped_then_by_key_equals_the_engine(self, name):
        netlist = _fo3(name)
        streams = [_block(netlist, 40, 1), [], _block(netlist, 7, 2)]
        expected = simulate_streams_packed(netlist, streams)
        core = ShardCore()
        key = _key(netlist)
        shipped = core.handle(("run", key, netlist, 3, True, streams, None))
        by_key = core.handle(("run", key, None, 3, True, streams, None))
        assert shipped == ("ok", expected)
        assert by_key == ("ok", expected)

    def test_an_unknown_key_is_a_miss(self):
        netlist = _fo3("ctrl")
        reply = ShardCore().handle(
            ("run", (1, 2), None, 3, True, [_block(netlist, 3, 0)], None)
        )
        assert reply == ("miss", (1, 2))

    def test_warm_caches_the_netlist_without_a_reply(self):
        netlist = _fo3("ctrl")
        core = ShardCore()
        assert core.handle(("warm", _key(netlist), netlist, 3)) is None
        streams = [_block(netlist, 5, 3)]
        reply = core.handle(
            ("run", _key(netlist), None, 3, True, streams, None)
        )
        assert reply == ("ok", simulate_streams_packed(netlist, streams))


class TestSessions:
    def test_unknown_sessions(self):
        netlist = _fo3("ctrl")
        core = ShardCore()
        feed = ("s_feed", "nope", _block(netlist, 3, 0), True, None)
        assert core.handle(feed) == ("s_lost", "nope")
        assert core.handle(("s_close", "nope", True)) == ("s_lost", "nope")
        assert core.handle(("s_close", "nope", False)) == ("ok", [])

    def test_feeds_resolve_like_one_engine_session(self):
        netlist = _fo3("i2c")
        blocks = [_block(netlist, count, seed) for seed, count in
                  enumerate([9, 0, 30, 4])]
        core = ShardCore()
        assert core.handle(("s_open", "s", netlist, 3, True)) == ("ok", None)
        resolved = {}
        for position, block in enumerate(blocks):
            flush = position == 1  # one flush mid-stream, pumps otherwise
            status, pairs = core.handle(("s_feed", "s", block, flush, None))
            assert status == "ok"
            resolved.update(pairs)
        status, pairs = core.handle(("s_close", "s", True))
        assert status == "ok"
        resolved.update(pairs)
        assert sorted(resolved) == [0, 1, 2, 3]
        assert [resolved[i] for i in range(4)] == _solo_feeds(netlist, blocks)
        # the drain removed the session
        assert core.handle(("s_close", "s", True)) == ("s_lost", "s")

    def test_reopening_a_live_session_discards_its_state(self):
        netlist = _fo3("ctrl")
        first, second = _block(netlist, 12, 4), _block(netlist, 6, 5)
        core = ShardCore()
        core.handle(("s_open", "s", netlist, 3, True))
        core.handle(("s_feed", "s", first, False, None))
        core.handle(("s_open", "s", netlist, 3, True))
        status, pairs = core.handle(("s_feed", "s", second, True, None))
        assert status == "ok"
        assert pairs == [(0, _solo_feeds(netlist, [second])[0])]
        assert core.handle(("s_close", "s", True)) == ("ok", [])

    def test_an_engine_error_raises_its_own_type(self):
        unbalanced = WaveNetlist.from_mig(
            build_random_mig(seed=11, n_gates=40)
        )
        core = ShardCore()
        with pytest.raises(SimulationError, match="wave-ready"):
            core.handle(("s_open", "s", unbalanced, 3, True))
        assert core.handle(("s_close", "s", False)) == ("ok", [])


def test_threads_share_one_core():
    """Batches and sessions on more threads than cores, one core: every
    reply equals the engine's, and no session outlives its close."""
    netlists = [_fo3("ctrl"), _fo3("i2c")]
    core = ShardCore()
    errors = []

    def batches(index):
        netlist = netlists[index % 2]
        for round_ in range(6):
            streams = [_block(netlist, 8, 100 * index + round_)]
            reply = core.handle(
                ("run", _key(netlist), netlist, 3, True, streams, None)
            )
            if reply != ("ok", simulate_streams_packed(netlist, streams)):
                errors.append(f"batch thread {index}, round {round_}")

    def session(index):
        netlist = netlists[index % 2]
        sid = f"stream-{index}"
        blocks = [_block(netlist, 5, 10 * index + feed) for feed in range(6)]
        core.handle(("s_open", sid, netlist, 3, True))
        resolved = {}
        for block in blocks:
            feed = ("s_feed", sid, block, False, None)
            resolved.update(core.handle(feed)[1])
        resolved.update(core.handle(("s_close", sid, True))[1])
        if [resolved.get(i) for i in range(6)] != _solo_feeds(netlist, blocks):
            errors.append(f"session thread {index}")

    def guarded(target, index):
        try:
            target(index)
        except Exception as error:  # recorded, then asserted below
            errors.append(f"{target.__name__} {index}: {error!r}")

    threads = [
        threading.Thread(target=guarded, args=(target, index))
        for index in range(4)
        for target in (batches, session)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for index in range(4):
        sid = f"stream-{index}"
        assert core.handle(("s_close", sid, True)) == ("s_lost", sid)
