"""Network serving tier: the socket must be invisible in the results.

The contract under test (ISSUE 9 tentpole): a
:class:`repro.serve.SimulationClient` talking to a
:class:`repro.serve.SocketServer` over TCP behaves exactly like calling
the wrapped :class:`repro.serve.SimulationServer` in-process — reports
bit-identical to solo runs, admission errors raised synchronously with
their in-process types, per-request failures typed through the futures
— plus the unhappy paths only a network tier has: partial/garbage/
oversized frames, disconnects mid-request, drain during active
connections, and the queue-full wire round-trip.
"""

import json
import socket
import struct
import threading
import time
from functools import lru_cache

import pytest

from repro.core.wavepipe import (
    ClockingScheme,
    WaveNetlist,
    random_vectors,
    simulate_waves,
    wave_pipeline,
)
from repro.errors import (
    ConnectionLost,
    DeadlineExceeded,
    ServeError,
    ServerClosed,
    ServerQueueFull,
    SimulationError,
)
from repro.serve import SimulationClient, SimulationServer, SocketServer
from repro.serve.codec import (
    HEAD,
    LENGTH,
    MAGIC,
    REPLIES,
    REQUESTS,
    unwire_error,
    wire_error,
)

from helpers import build_adder_mig, build_random_mig


@lru_cache(maxsize=None)
def _netlists():
    balanced = wave_pipeline(build_adder_mig(3), fanout_limit=3).netlist
    unbalanced = WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))
    return balanced, unbalanced


@lru_cache(maxsize=None)
def _solo(netlist_index: int, n_waves: int, seed: int):
    netlist = _netlists()[netlist_index]
    vectors = random_vectors(netlist.n_inputs, n_waves, seed=seed)
    return simulate_waves(netlist, vectors, engine="python")


def _vectors(netlist_index: int, n_waves: int, seed: int):
    netlist = _netlists()[netlist_index]
    return random_vectors(netlist.n_inputs, n_waves, seed=seed)


def _read_frame(sock_file):
    header = sock_file.read(LENGTH.size)
    assert header is not None and len(header) == LENGTH.size
    (length,) = LENGTH.unpack(header)
    payload = sock_file.read(length)
    assert payload is not None and len(payload) == length
    return REPLIES.decode(payload)


def _raw_frame(meta: dict) -> bytes:
    """A frame whose metadata is *meta* as is: the codec's encoder would
    refuse to build a message of an unknown kind."""
    body = json.dumps(meta).encode()
    payload = HEAD.pack(MAGIC, len(body)) + body
    return LENGTH.pack(len(payload)) + payload


class _Tier:
    """One started SocketServer + its wrapped in-process server."""

    def __init__(self, **server_kwargs):
        self.server = SimulationServer(**server_kwargs)
        self.net = SocketServer(self.server).start()
        self.host, self.port = self.net.address

    def client(self, **kwargs) -> SimulationClient:
        return SimulationClient(self.host, self.port, **kwargs)

    def raw(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=10.0)
        sock.settimeout(10.0)
        return sock

    def close(self):
        self.net.close(drain=True)
        self.server.stop(drain=True)


@pytest.fixture()
def tier():
    t = _Tier(shards=2)
    yield t
    t.close()


class TestSocketServedReportsAreBitIdentical:
    def test_mixed_models_match_solo_scalar_runs(self, tier):
        corpus = [
            (0, 1, 1), (1, 5, 2), (0, 17, 3), (1, 17, 3),
            (0, 64, 4), (1, 40, 5), (0, 8, 8),
        ]
        with tier.client() as client:
            futures = []
            for netlist_index, n_waves, seed in corpus:
                futures.append(
                    client.submit(
                        _netlists()[netlist_index],
                        _vectors(netlist_index, n_waves, seed),
                    )
                )
            for future, (netlist_index, n_waves, seed) in zip(
                futures, corpus
            ):
                assert future.result(60.0) == _solo(
                    netlist_index, n_waves, seed
                )

    def test_submit_many_burst_matches_solo_runs(self, tier):
        specs = [(0, 3, 10), (0, 7, 11), (0, 1, 12)]
        streams = [_vectors(*spec) for spec in specs]
        with tier.client() as client:
            futures = client.submit_many(_netlists()[0], streams)
            assert len(futures) == len(streams)
            for future, spec in zip(futures, specs):
                assert future.result(60.0) == _solo(*spec)

    def test_simulate_blocks_for_the_report(self, tier):
        with tier.client() as client:
            report = client.simulate(
                _netlists()[0], _vectors(0, 5, 3), timeout_s=60.0
            )
        assert report == _solo(0, 5, 3)

    def test_explicit_clocking_round_trips(self, tier):
        vectors = _vectors(0, 4, 9)
        want = simulate_waves(
            _netlists()[0], vectors, clocking=ClockingScheme(4),
            engine="python",
        )
        with tier.client() as client:
            report = client.simulate(
                _netlists()[0], vectors,
                clocking=ClockingScheme(4), timeout_s=60.0,
            )
        assert report == want

    def test_netlist_ships_once_then_token_only(self, tier):
        with tier.client() as client:
            client.simulate(_netlists()[0], _vectors(0, 2, 1), timeout_s=60.0)
            client.simulate(_netlists()[0], _vectors(0, 3, 2), timeout_s=60.0)
            health = client.health()
        assert health["net"]["netlist_misses"] == 0
        # two submit bursts + the health probe went over the wire
        assert health["net"]["admitted_bursts"] == 2

    def test_empty_burst_returns_no_futures(self, tier):
        with tier.client() as client:
            assert client.submit_many(_netlists()[0], []) == []


class TestTypedErrorsRoundTrip:
    def test_validation_error_raises_synchronously(self, tier):
        bad = [[True, False]]  # wrong input width
        with tier.client() as client:
            with pytest.raises(SimulationError):
                client.submit(_netlists()[0], bad)

    def test_queue_full_raises_typed_from_submit(self):
        tier = _Tier(shards=1, max_pending=1, start=False)
        try:
            with tier.client() as client:
                first = client.submit(_netlists()[0], _vectors(0, 2, 1))
                with pytest.raises(ServerQueueFull):
                    client.submit(_netlists()[0], _vectors(0, 2, 2))
                health = client.health()
                assert health["net"]["rejected_bursts"] == 1
                # the per-request rejection count agrees with the wire
                assert health["metrics"]["rejected_queue_full"] == 1
                tier.server.start()
                assert first.result(60.0) == _solo(0, 2, 1)
        finally:
            tier.close()

    def test_deadline_exceeded_comes_through_the_future(self):
        tier = _Tier(shards=1, start=False)
        try:
            with tier.client() as client:
                future = client.submit(
                    _netlists()[0], _vectors(0, 2, 1), deadline_s=0.0
                )
                time.sleep(0.05)
                tier.server.start()
                with pytest.raises(DeadlineExceeded):
                    future.result(60.0)
        finally:
            tier.close()

    def test_submit_after_server_close_is_typed(self, tier):
        with tier.client() as client:
            client.simulate(_netlists()[0], _vectors(0, 2, 1), timeout_s=60.0)
            tier.server.close()
            with pytest.raises(ServerClosed):
                client.submit(_netlists()[0], _vectors(0, 2, 2))

    def test_wire_error_table_round_trips_every_kind(self):
        for error in (
            ServerQueueFull("full"),
            DeadlineExceeded("late"),
            ServerClosed("closed"),
            SimulationError("bad"),
            ConnectionLost("gone"),
            ServeError("serve"),
        ):
            kind, message = wire_error(error)
            decoded = unwire_error(kind, message)
            assert type(decoded) is type(error)
            assert str(decoded) == str(error)
        # unknown kinds decode to the base ServeError, never crash
        assert isinstance(unwire_error("martian", "x"), ServeError)


class TestProtocolUnhappyPaths:
    def test_partial_frame_then_disconnect_leaves_server_healthy(self, tier):
        raw = tier.raw()
        raw.sendall(LENGTH.pack(1024) + b"\x00" * 10)  # truncated payload
        raw.close()
        with tier.client() as client:
            assert client.simulate(
                _netlists()[0], _vectors(0, 2, 1), timeout_s=60.0
            ) == _solo(0, 2, 1)

    def test_garbage_frame_answers_fatal_and_closes(self, tier):
        raw = tier.raw()
        body = b"not a codec message"
        raw.sendall(LENGTH.pack(len(body)) + body)
        reply = _read_frame(raw.makefile("rb"))
        assert reply[0] == "fatal"
        assert reply[1] == "protocol"
        raw.close()
        assert tier.net.health()["net"]["protocol_errors"] == 1

    def test_oversized_frame_is_refused_not_buffered(self, tier):
        raw = tier.raw()
        # claim a frame far above the limit: the server must answer
        # fatal from the header alone, without allocating the payload
        raw.sendall(LENGTH.pack(2**31 - 1))
        reply = _read_frame(raw.makefile("rb"))
        assert reply[0] == "fatal"
        assert "exceeds" in reply[2]
        raw.close()
        # and the tier still serves
        with tier.client() as client:
            assert client.simulate(
                _netlists()[0], _vectors(0, 3, 2), timeout_s=60.0
            ) == _solo(0, 3, 2)

    def test_unknown_message_kind_is_fatal(self, tier):
        raw = tier.raw()
        raw.sendall(
            _raw_frame(
                {"kind": "teleport", "fields": {"tag": 1}, "buffers": []}
            )
        )
        reply = _read_frame(raw.makefile("rb"))
        assert reply == ("fatal", "protocol", "unknown message kind 'teleport'")
        raw.close()

    def test_unknown_token_answers_miss(self, tier):
        raw = tier.raw()
        raw.sendall(
            REQUESTS.frame(
                ("submit", 7, 99, None, [1], [], None, None, None)
            )
        )
        reply = _read_frame(raw.makefile("rb"))
        assert reply == ("miss", 7)
        raw.close()
        assert tier.net.health()["net"]["netlist_misses"] == 1

    def test_an_invalid_phase_count_is_refused_typed(self, tier):
        """A clocking the engine refuses answers like a local call's
        SimulationError, and the connection stays usable."""
        netlist = _netlists()[0]
        raw = tier.raw()
        reader = raw.makefile("rb")
        raw.sendall(
            REQUESTS.frame(
                ("submit", 3, 1, netlist, [1], [[]], 1, None, None)
            )
        )
        assert _read_frame(reader)[:3] == ("rejected", 3, "simulation")
        raw.sendall(REQUESTS.frame(("s_open", 4, 1, netlist, 0, None)))
        assert _read_frame(reader)[:3] == ("s_open_failed", 4, "simulation")
        raw.sendall(REQUESTS.frame(("ping", 5)))
        assert _read_frame(reader) == ("pong", 5)
        raw.close()
        assert tier.net.health()["net"]["protocol_errors"] == 0

    def test_mismatched_ids_and_streams_is_fatal(self, tier):
        netlist = _netlists()[0]
        raw = tier.raw()
        raw.sendall(
            REQUESTS.frame(
                ("submit", 3, 1, netlist, [1, 2], [], None, None, None)
            )
        )
        reply = _read_frame(raw.makefile("rb"))
        assert reply[0] == "fatal"
        raw.close()

    def test_ping_pong(self, tier):
        raw = tier.raw()
        raw.sendall(REQUESTS.frame(("ping", 42)))
        assert _read_frame(raw.makefile("rb")) == ("pong", 42)
        raw.close()


class TestConnectionLifecycle:
    def test_disconnect_mid_request_strands_nothing(self):
        tier = _Tier(shards=1, start=False)
        try:
            client = tier.client()
            client.submit_many(
                _netlists()[0],
                [_vectors(0, 4, seed) for seed in range(4)],
            )
            client.close()  # pending futures fail with ConnectionLost
            tier.server.start()
            # the server resolves the orphaned requests regardless —
            # drain would hang forever if a future stranded
            tier.server.stop(drain=True, timeout=60.0)
            health = tier.net.health()
            assert health["pending"] == 0
        finally:
            tier.net.close(drain=False)
            tier.server.stop(drain=False)

    def test_client_close_fails_pending_futures_typed(self):
        tier = _Tier(shards=1, start=False)
        try:
            client = tier.client()
            futures = client.submit_many(
                _netlists()[0],
                [_vectors(0, 4, seed) for seed in range(3)],
            )
            client.close()
            for future in futures:
                with pytest.raises(ConnectionLost):
                    future.result(10.0)
        finally:
            tier.server.start()
            tier.close()

    def test_drain_waits_for_active_requests(self):
        tier = _Tier(shards=1, start=False)
        client = tier.client()
        try:
            futures = client.submit_many(
                _netlists()[0],
                [_vectors(0, 4, seed) for seed in range(4)],
            )
            closer = threading.Thread(
                target=tier.net.close, kwargs={"drain": True}
            )
            closer.start()
            time.sleep(0.1)  # the drain is now waiting on inflight > 0
            tier.server.start()
            closer.join(60.0)
            assert not closer.is_alive()
            for index, future in enumerate(futures):
                assert future.result(60.0) == _solo(0, 4, index)
        finally:
            client.close()
            tier.server.stop(drain=True)

    def test_submissions_during_drain_are_refused_typed(self):
        tier = _Tier(shards=1, start=False)
        client = tier.client()
        try:
            client.submit(_netlists()[0], _vectors(0, 4, 0))
            closer = threading.Thread(
                target=tier.net.close, kwargs={"drain": True}
            )
            closer.start()
            time.sleep(0.1)
            with pytest.raises(ServerClosed):
                client.submit(_netlists()[0], _vectors(0, 4, 1))
            tier.server.start()
            closer.join(60.0)
        finally:
            client.close()
            tier.server.stop(drain=True)

    def test_abrupt_close_fails_clients_with_connection_lost(self):
        tier = _Tier(shards=1, start=False)
        client = tier.client()
        try:
            futures = client.submit_many(
                _netlists()[0],
                [_vectors(0, 4, seed) for seed in range(2)],
            )
            tier.net.close(drain=False)
            for future in futures:
                with pytest.raises(ConnectionLost):
                    future.result(10.0)
            with pytest.raises((ConnectionLost, ServeError)):
                client.submit(_netlists()[0], _vectors(0, 4, 9))
        finally:
            client.close()
            tier.server.start()
            tier.server.stop(drain=True)

    def test_health_reports_net_counters(self, tier):
        with tier.client() as client:
            client.simulate(_netlists()[0], _vectors(0, 2, 1), timeout_s=60.0)
            health = client.health()
        net = health["net"]
        assert net["listening"] is True
        assert net["address"] == [tier.host, tier.port]
        assert net["open_connections"] == 1
        assert net["frames_in"] >= 2
        assert net["frames_out"] >= 2
        assert net["bytes_in"] > 0
        assert health["metrics"]["completed"] == 1

    def test_close_is_idempotent_and_start_twice_raises(self, tier):
        tier.net.close(drain=True)
        tier.net.close(drain=True)
        with pytest.raises(ServeError):
            tier.net.start()

    def test_serve_forever_duration_returns_and_drains(self):
        tier = _Tier(shards=1)
        started_at = time.perf_counter()
        tier.net.serve_forever(duration_s=0.2)
        assert time.perf_counter() - started_at >= 0.2
        assert tier.net.health()["net"]["listening"] is False
        tier.server.stop(drain=True)

class TestSessionDisconnect:
    """Streaming sessions when the socket dies under them (ISSUE 10).

    The invariant: a lost connection fails every pending session feed
    future with :class:`~repro.errors.ConnectionLost` on the client and
    closes the session undrained on the server — nothing stranded on
    either side, and the server keeps draining cleanly afterwards.
    """

    @staticmethod
    def _stall_dispatch(monkeypatch) -> threading.Event:
        """Hold every session feed un-dispatched until the event is set.

        Gives the tests a deterministic window in which feed futures
        are provably pending when the connection drops.
        """
        from repro.serve.server import ServerSession

        release = threading.Event()
        original = ServerSession._process

        def stalled(self, item, flush):
            release.wait(60.0)
            original(self, item, flush)

        monkeypatch.setattr(ServerSession, "_process", stalled)
        return release

    def test_client_close_fails_session_futures_typed(self, monkeypatch):
        release = self._stall_dispatch(monkeypatch)
        tier = _Tier(shards=1)
        try:
            client = tier.client()
            stream = client.open_stream(_netlists()[0])
            futures = [
                stream.feed(_vectors(0, 4, seed)) for seed in range(3)
            ]
            client.close()  # abrupt: no s_close handshake
            for future in futures:
                with pytest.raises(ConnectionLost):
                    future.result(10.0)
            # feeds after a deliberate close are refused typed too
            with pytest.raises((ConnectionLost, ServeError)):
                stream.feed(_vectors(0, 1, 9))
            stream.close()  # lost connection: no-op, never raises
            release.set()
            # the orphaned server-side session was closed undrained by
            # the connection teardown; the server must drain cleanly
            tier.server.stop(drain=True, timeout=60.0)
            # the teardown finishes asynchronously on the net loop
            deadline = time.perf_counter() + 10.0
            while (
                tier.net.health()["net"]["sessions_closed"] < 1
                and time.perf_counter() < deadline
            ):
                time.sleep(0.01)
            counters = tier.net.health()["net"]
            assert counters["sessions_opened"] == 1
            assert counters["sessions_closed"] == 1
            assert tier.net.health()["pending"] == 0
        finally:
            release.set()
            tier.net.close(drain=False)
            tier.server.stop(drain=False)

    def test_abrupt_server_close_fails_session_futures_typed(
        self, monkeypatch
    ):
        release = self._stall_dispatch(monkeypatch)
        tier = _Tier(shards=1)
        client = tier.client()
        try:
            stream = client.open_stream(_netlists()[0])
            futures = [
                stream.feed(_vectors(0, 4, seed)) for seed in range(3)
            ]
            tier.net.close(drain=False)
            for future in futures:
                with pytest.raises(ConnectionLost):
                    future.result(10.0)
            with pytest.raises((ConnectionLost, ServeError)):
                stream.feed(_vectors(0, 1, 9))
            release.set()
            tier.server.stop(drain=True, timeout=60.0)
            assert tier.server.health()["sessions"] == []
        finally:
            release.set()
            client.close()
            tier.server.stop(drain=False)
