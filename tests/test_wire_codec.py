"""The serving codec: every message round-trips, nothing else decodes.

Decoding bytes from a peer may only ever produce a message or raise
:class:`~repro.errors.WireProtocolError`: truncated frames, random
bytes, broken metadata, unknown kinds and tags, wrong dtypes, shapes or
buffer lengths, and invalid netlists are all fuzzed below.  Over a live
socket a hostile frame costs only its own connection, and a pickle
payload is never unpickled.  A static check keeps pickle out of
:mod:`repro.serve` for good.
"""

import ast
import json
import pickle
import socket
import threading
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.wavepipe import (
    WaveInterference,
    WaveNetlist,
    random_vectors,
    simulate_waves,
    wave_pipeline,
)
from repro.core.wavepipe.components import Kind
from repro.errors import ConnectionLost, WireProtocolError
from repro.serve import SimulationClient, SimulationServer, SocketServer
from repro.serve.codec import (
    HEAD,
    LENGTH,
    MAGIC,
    REPLIES,
    REQUESTS,
    WORKER_REPLIES,
    WORKER_REQUESTS,
)
from repro.suite import build_benchmark

from helpers import build_adder_mig

SERVE = Path(__file__).resolve().parents[1] / "src" / "repro" / "serve"


@lru_cache(maxsize=None)
def _fo3(name):
    return wave_pipeline(build_benchmark(name), fanout_limit=3).netlist


@lru_cache(maxsize=None)
def _adder():
    return wave_pipeline(build_adder_mig(3), fanout_limit=3).netlist


def _report(seed=1, waves=5):
    netlist = _adder()
    vectors = random_vectors(netlist.n_inputs, waves, seed=seed)
    return simulate_waves(netlist, vectors, engine="packed")


def _block(seed=0, waves=4):
    netlist = _adder()
    return np.array(
        random_vectors(netlist.n_inputs, waves, seed=seed), dtype=bool
    )


def _interfering_report():
    report = _report(seed=2)
    report.interference.append(WaveInterference(7, 3, (0, 1)))
    return report


def _messages():
    """One message of every kind, per channel (the tuples the serving
    code builds, with the field types it sends)."""
    netlist = _adder()
    report = _report()
    return {
        REQUESTS: [
            ("submit", 7, 3, netlist, [11, 12], [_block(), []], 3, True, 0.5),
            ("submit", 8, 3, None, [13], [_block(1)], None, None, None),
            ("s_open", 1, 2, netlist, None, False),
            ("s_feed", 14, 2, _block(2), 1.5),
            ("s_feed", 15, 2, [], None),
            ("s_close", 3, 2, True),
            ("health", 4),
            ("ping", 42),
        ],
        REPLIES: [
            ("admitted", 7),
            ("rejected", 7, "queue_full", "server queue is full"),
            ("miss", 7),
            ("result", 11, report),
            ("result", 12, _interfering_report()),
            ("error", 12, "deadline", "too late"),
            ("s_opened", 1),
            ("s_open_failed", 1, "simulation", "unbalanced"),
            ("s_closed", 3),
            ("health", 4, {"net": {"address": ["127.0.0.1", 1]}, "x": 1.5}),
            ("pong", 42),
            ("fatal", "protocol", "bad frame"),
        ],
        WORKER_REQUESTS: [
            ("run", (140, 9), netlist, 3, True, [_block(), []], None),
            ("run", (140, 9), None, 4, False, [_block(3)], ("slow", 0.25)),
            ("warm", (140, 9), netlist, 3),
            ("s_open", "stream-1", netlist, 3, True),
            ("s_feed", "stream-1", _block(4), False, ("crash", 0.0)),
            ("s_close", "stream-1", True),
            ("ping",),
            ("stop",),
        ],
        WORKER_REPLIES: [
            ("ok", None),
            ("ok", [report, _report(seed=3, waves=0)]),
            ("ok", [(0, report), (2, _report(seed=4))]),
            ("error", "shard_failed", "worker lost"),
            ("miss", (140, 9)),
            ("s_lost", "stream-1"),
            ("pong", 1234),
        ],
    }


def _assert_same(got, want):
    """Structural equality: arrays by dtype, shape and bits, netlists
    by their arrays and names, everything else by type and value."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    elif isinstance(want, WaveNetlist):
        assert isinstance(got, WaveNetlist)
        for mine, theirs in zip(got.arrays(), want.arrays()):
            _assert_same(mine, theirs)
        assert got.name == want.name
        assert got.inputs == want.inputs
        assert got.input_names == want.input_names
        assert got.output_names == want.output_names
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for mine, theirs in zip(got, want):
            _assert_same(mine, theirs)
    else:
        assert type(got) is type(want)
        assert got == want


def _all_messages():
    return [
        (channel, message)
        for channel, messages in _messages().items()
        for message in messages
    ]


def _frame(meta, buffers=b""):
    """A payload with *meta* as is (bypassing the encoder's checks)."""
    body = json.dumps(meta).encode() if isinstance(meta, dict) else meta
    return HEAD.pack(MAGIC, len(body)) + body + buffers


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(-(10**400), 10**400) | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _places(node):
    """``(container, key)`` of every value nested in *node*."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, value in items:
        yield node, key
        yield from _places(value)


def _refused(channel, payload, match=None):
    with pytest.raises(WireProtocolError, match=match):
        channel.decode(payload)


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize(
        "index", range(len(_all_messages())),
    )
    def test_every_message_kind_decodes_to_what_was_sent(self, index):
        channel, message = _all_messages()[index]
        decoded = channel.decode(channel.encode(message))
        _assert_same(decoded, message)

    def test_every_kind_of_every_channel_is_covered(self):
        covered = {}
        for channel, message in _all_messages():
            covered.setdefault(channel.name, set()).add(message[0])
        for channel in (REQUESTS, REPLIES, WORKER_REQUESTS, WORKER_REPLIES):
            assert covered[channel.name] == set(channel.kinds)

    def test_decoded_reports_are_equal_and_read_only(self):
        report = _interfering_report()
        (_, _, decoded) = REPLIES.decode(REPLIES.encode(("result", 1, report)))
        assert decoded == report
        assert decoded.bits.dtype == bool
        assert not decoded.bits.flags.writeable
        assert decoded.outputs == report.outputs

    def test_keys_come_back_hashable(self):
        message = WORKER_REPLIES.decode(
            WORKER_REPLIES.encode(("miss", (140, 9)))
        )
        assert {message[1]: 1}[(140, 9)] == 1

    @pytest.mark.parametrize("name", ["ctrl", "i2c"])
    def test_fo3_netlists_round_trip(self, name):
        netlist = _fo3(name)
        (_, _, _, decoded, _, _) = REQUESTS.decode(
            REQUESTS.encode(("s_open", 1, 2, netlist, None, None))
        )
        _assert_same(decoded, netlist)
        assert decoded.levels().tolist() == netlist.levels().tolist()

    def test_socket_frame_is_length_prefixed_payload(self):
        message = ("ping", 42)
        frame = REQUESTS.frame(message)
        (length,) = LENGTH.unpack_from(frame)
        assert frame[LENGTH.size:] == REQUESTS.encode(message)
        assert length == len(frame) - LENGTH.size


# ----------------------------------------------------------------------
# fuzzing: WireProtocolError and nothing else
# ----------------------------------------------------------------------
_FUZZ = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestDecodeRefuses:
    @_FUZZ
    @given(data=st.data())
    def test_truncated_frames(self, data):
        channel, message = data.draw(st.sampled_from(_all_messages()))
        payload = channel.encode(message)
        cut = data.draw(st.integers(0, len(payload) - 1))
        _refused(channel, payload[:cut])

    @_FUZZ
    @given(data=st.data())
    def test_trailing_bytes(self, data):
        channel, message = data.draw(st.sampled_from(_all_messages()))
        extra = data.draw(st.binary(min_size=1, max_size=16))
        _refused(channel, channel.encode(message) + extra)

    @_FUZZ
    @given(payload=st.binary(max_size=200))
    def test_random_bytes(self, payload):
        for channel in (REQUESTS, REPLIES, WORKER_REQUESTS, WORKER_REPLIES):
            _refused(channel, payload)

    @_FUZZ
    @given(tail=st.binary(max_size=64), size=st.integers(0, 2**32 - 1))
    def test_metadata_lengths_past_the_payload(self, tail, size):
        if size <= len(tail):
            size = len(tail) + 1
        _refused(REQUESTS, HEAD.pack(MAGIC, size) + tail)

    @_FUZZ
    @given(body=st.binary(max_size=64))
    def test_non_utf8_or_non_json_metadata(self, body):
        try:
            meta = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            meta = None
        if isinstance(meta, dict):
            return  # well-formed JSON objects are fuzzed below
        _refused(REQUESTS, _frame(body))

    def test_deeply_nested_metadata(self):
        _refused(REQUESTS, _frame(b"[" * 100_000 + b"]" * 100_000))

    @_FUZZ
    @given(
        kind=st.text(max_size=12).filter(
            lambda kind: kind not in REQUESTS.kinds
        )
    )
    def test_unknown_kinds(self, kind):
        _refused(
            REQUESTS, _frame({"kind": kind, "fields": {}, "buffers": []})
        )

    @_FUZZ
    @given(
        meta=st.dictionaries(
            st.sampled_from(["kind", "fields", "buffers", "extra"]),
            st.one_of(
                st.none(), st.integers(), st.text(max_size=5),
                st.lists(st.integers(), max_size=3),
                st.dictionaries(st.text(max_size=5), st.integers(),
                                max_size=3),
            ),
        )
    )
    def test_malformed_metadata_objects(self, meta):
        _refused(REQUESTS, _frame(meta))

    @_FUZZ
    @given(tag=st.text(max_size=10).filter(
        lambda tag: tag not in ("none", "reports", "resolved")
    ))
    def test_unknown_tags(self, tag):
        meta = {
            "kind": "ok",
            "fields": {"payload": {"tag": tag, "value": None}},
            "buffers": [],
        }
        _refused(WORKER_REPLIES, _frame(meta))

    @pytest.mark.parametrize("tag", [[1], {"a": 1}, None, 3, True])
    def test_tags_that_are_not_strings(self, tag):
        meta = {
            "kind": "ok",
            "fields": {"payload": {"tag": tag, "value": None}},
            "buffers": [],
        }
        _refused(WORKER_REPLIES, _frame(meta), "unknown tag")

    @_FUZZ
    @given(data=st.data())
    def test_wrong_field_values(self, data):
        """Any JSON value at any place inside a valid message's fields."""
        channel, message = data.draw(st.sampled_from(_all_messages()))
        payload = channel.encode(message)
        (meta_size,) = HEAD.unpack_from(payload)[1:]
        meta = json.loads(payload[HEAD.size:HEAD.size + meta_size])
        buffers = payload[HEAD.size + meta_size:]
        places = list(_places(meta["fields"]))
        if not places:
            return
        parent, key = data.draw(st.sampled_from(places))
        parent[key] = data.draw(_JSON_VALUES)
        try:
            decoded = channel.decode(_frame(meta, buffers))
        except WireProtocolError:
            return
        # a value of another shape can still be a legal one (an int
        # field takes any int, an optional field takes None): it must
        # then re-encode to what it decoded from
        _assert_same(channel.decode(channel.encode(decoded)), decoded)

    @_FUZZ
    @given(
        dtype=st.sampled_from(
            ["<f8", ">i4", "|u1", "<u8", "|O", "|V8", "<c16", "S4", "bool"]
        )
    )
    def test_dtypes_outside_the_allowlist(self, dtype):
        meta, data = _feed_parts()
        meta["buffers"][0][0] = dtype
        _refused(REQUESTS, _frame(meta, data), "not allowed")

    @_FUZZ
    @given(
        shape=st.lists(st.integers(0, 6), max_size=3),
        spare=st.integers(-3, 3),
        dtype=st.sampled_from(["|b1", "|i1", "<i4", "<i8"]),
    )
    def test_buffer_shape_dtype_and_length(self, shape, spare, dtype):
        """A block's buffer is a 2-d bool matrix of exactly its length."""
        size = int(np.prod(shape)) * np.dtype(dtype).itemsize
        length = max(0, size + spare)
        if len(shape) == 2 and dtype == "|b1" and length == size:
            return  # a legal block
        meta, _ = _feed_parts()
        meta["buffers"][0] = [dtype, shape]
        _refused(REQUESTS, _frame(meta, b"\x01" * length))

    def test_a_buffer_larger_than_the_payload_allocates_nothing(self):
        meta, data = _feed_parts()
        meta["buffers"][0][1] = [2**15, 2**15]
        _refused(REQUESTS, _frame(meta, data), "truncated buffer")

    @pytest.mark.parametrize(
        "shape", [[2**63], [0, 2**63], [10**30, 0], [2**31 + 1, 0]]
    )
    def test_dimensions_past_the_cap(self, shape):
        meta, data = _feed_parts()
        meta["buffers"][0][1] = shape
        _refused(REQUESTS, _frame(meta, data), "bad buffer spec")

    @_FUZZ
    @given(byte=st.integers(2, 255), position=st.integers(0, 3))
    def test_bool_buffers_hold_only_zero_and_one(self, byte, position):
        meta, data = _feed_parts()
        data = bytearray(data)
        data[position] = byte
        _refused(REQUESTS, _frame(meta, bytes(data)), "other than 0/1")

    @_FUZZ
    @given(byte=st.integers(2, 255), position=st.integers(0, 64 * 128 - 1))
    def test_a_large_bool_buffer_holds_only_zero_and_one(self, byte, position):
        block = np.ones((64, 128), dtype=bool)
        payload = bytearray(REQUESTS.encode(("s_feed", 1, 2, block, None)))
        payload[len(payload) - block.size + position] = byte
        _refused(REQUESTS, bytes(payload), "other than 0/1")

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_number_too_large_for_a_float(self, sign):
        meta, data = _feed_parts()
        meta["fields"]["deadline_s"] = sign * 10**400
        _refused(REQUESTS, _frame(meta, data), "a number")

    def test_a_buffer_reference_out_of_range(self):
        meta, data = _feed_parts()
        meta["fields"]["block"] = 3
        _refused(REQUESTS, _frame(meta, data), "bad buffer reference")

    @pytest.mark.parametrize(
        "shape, match", [([4], "2-d"), ([1, 2, 2], "bad buffer spec")]
    )
    def test_a_block_must_be_two_dimensional(self, shape, match):
        meta, data = _feed_parts()
        meta["buffers"][0][1] = shape
        _refused(REQUESTS, _frame(meta, data), match)

    def test_the_unedited_feed_decodes(self):
        meta, data = _feed_parts()
        (_, _, _, block, _) = REQUESTS.decode(_frame(meta, data))
        assert block.shape == (2, 2) and block.all()


def _feed_parts():
    """Metadata and buffer bytes of a valid one-block ``s_feed`` (a 2x2
    block of ones), for the tests to edit one thing at a time."""
    payload = REQUESTS.encode(
        ("s_feed", 1, 2, np.ones((2, 2), dtype=bool), None)
    )
    (_, size) = HEAD.unpack_from(payload)
    meta = json.loads(payload[HEAD.size:HEAD.size + size])
    assert meta["buffers"] == [["|b1", [2, 2]]]
    return meta, payload[HEAD.size + size:]


def _netlist_frame(kinds, fanins, outputs, inputs=None):
    """An ``s_open`` request shipping the given netlist arrays."""
    kinds = np.ascontiguousarray(kinds, dtype="|i1")
    fanins = np.ascontiguousarray(fanins, dtype="<i4")
    outputs = np.ascontiguousarray(outputs, dtype="<i8")
    if inputs is None:
        inputs = np.flatnonzero(kinds == Kind.INPUT).tolist()
    meta = {
        "kind": "s_open",
        "fields": {
            "tag": 1, "session_id": 2, "n_phases": None, "pipelined": None,
            "netlist": {
                "name": "n", "kinds": 0, "fanins": 1, "outputs": 2,
                "inputs": inputs,
                "input_names": [f"i{k}" for k in range(len(inputs))],
                "output_names": [f"o{k}" for k in range(len(outputs))],
            },
        },
        "buffers": [
            [array.dtype.str, list(array.shape)]
            for array in (kinds, fanins, outputs)
        ],
    }
    return _frame(meta, kinds.tobytes() + fanins.tobytes() + outputs.tobytes())


def _adder_arrays():
    return [array.copy() for array in _adder().arrays()]


class TestNetlistsAreValidated:
    def test_the_valid_arrays_decode(self):
        kinds, fanins, outputs = _adder_arrays()
        (_, _, _, netlist, _, _) = REQUESTS.decode(
            _netlist_frame(kinds, fanins, outputs)
        )
        assert np.array_equal(netlist.arrays().fanins, fanins)

    @_FUZZ
    @given(data=st.data())
    def test_kind_out_of_range(self, data):
        kinds, fanins, outputs = _adder_arrays()
        row = data.draw(st.integers(1, len(kinds) - 1))
        kinds[row] = data.draw(
            st.one_of(st.integers(-128, -1), st.integers(5, 127),
                      st.just(int(Kind.CONST)))
        )
        _refused(REQUESTS, _netlist_frame(kinds, fanins, outputs))

    @_FUZZ
    @given(data=st.data())
    def test_arity_mismatch(self, data):
        kinds, fanins, outputs = _adder_arrays()
        row = data.draw(st.integers(1, len(kinds) - 1))
        arity = {Kind.INPUT: 0, Kind.MAJ: 3, Kind.BUF: 1, Kind.FOG: 1}[
            Kind(int(kinds[row]))
        ]
        if arity == 3:
            kinds[row] = data.draw(
                st.sampled_from([Kind.INPUT, Kind.BUF, Kind.FOG])
            )
        else:
            column = data.draw(st.integers(arity, 2))
            fanins[row, column] = data.draw(st.integers(1, 2 * len(kinds) - 1))
        _refused(REQUESTS, _netlist_frame(kinds, fanins, outputs))

    @_FUZZ
    @given(data=st.data())
    def test_fanin_or_output_out_of_range(self, data):
        kinds, fanins, outputs = _adder_arrays()
        bad = data.draw(
            st.one_of(st.integers(-(2**31), -1),
                      st.integers(2 * len(kinds), 2**31 - 1))
        )
        if data.draw(st.booleans()):
            rows = np.flatnonzero(kinds == Kind.MAJ)
            fanins[data.draw(st.sampled_from(rows.tolist())), 0] = bad
        else:
            outputs[data.draw(st.integers(0, len(outputs) - 1))] = bad
        _refused(REQUESTS, _netlist_frame(kinds, fanins, outputs))

    @_FUZZ
    @given(data=st.data())
    def test_input_row_that_is_not_input(self, data):
        kinds, fanins, outputs = _adder_arrays()
        inputs = np.flatnonzero(kinds == Kind.INPUT).tolist()
        others = np.flatnonzero(kinds != Kind.INPUT).tolist()
        inputs[data.draw(st.integers(0, len(inputs) - 1))] = data.draw(
            st.sampled_from(others)
        )
        _refused(REQUESTS, _netlist_frame(kinds, fanins, outputs, inputs))

    @_FUZZ
    @given(data=st.data())
    def test_cycle(self, data):
        kinds, fanins, outputs = _adder_arrays()
        levels = _adder().levels()
        # point a fan-in of some row at one of its own transitive
        # consumers: the deepest row reachable is a consumer of any row
        # below it on the same path, so use a row at the deepest level
        row = data.draw(
            st.sampled_from(np.flatnonzero(kinds == Kind.MAJ).tolist())
        )
        deeper = np.flatnonzero(levels > levels[row])
        consumers = [
            c for c in deeper.tolist() if _reaches(fanins, kinds, c, row)
        ]
        if not consumers:
            return
        fanins[row, 0] = data.draw(st.sampled_from(consumers)) << 1
        _refused(REQUESTS, _netlist_frame(kinds, fanins, outputs))


def _reaches(fanins, kinds, start, target):
    """True when *target* is a transitive fan-in of *start*."""
    arity = {0: 0, 1: 0, 2: 3, 3: 1, 4: 1}
    stack, seen = [start], set()
    while stack:
        row = stack.pop()
        for lit in fanins[row, : arity[int(kinds[row])]].tolist():
            node = lit >> 1
            if node == target:
                return True
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return False


# ----------------------------------------------------------------------
# live sockets
# ----------------------------------------------------------------------
class _Exploit:
    """Unpickling this calls ``open(path, "w")``: it creates a file."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def _read_reply(sock_file):
    header = sock_file.read(LENGTH.size)
    if not header:
        return None
    (length,) = LENGTH.unpack(header)
    return REPLIES.decode(sock_file.read(length))


@pytest.fixture()
def tier():
    server = SimulationServer(shards=1)
    net = SocketServer(server).start()
    yield net
    net.close(drain=True)
    server.stop(drain=True)


class TestLiveSocket:
    def _raw(self, net):
        sock = socket.create_connection(net.address, timeout=10.0)
        sock.settimeout(10.0)
        return sock

    def test_a_pickle_frame_is_refused_and_never_unpickled(
        self, tier, tmp_path
    ):
        target = tmp_path / "pwned"
        payload = pickle.dumps(("ping", _Exploit(target)))
        with self._raw(tier) as raw:
            raw.sendall(LENGTH.pack(len(payload)) + payload)
            reply = _read_reply(raw.makefile("rb"))
        assert reply[:2] == ("fatal", "protocol")
        assert not target.exists()
        assert tier.health()["net"]["protocol_errors"] == 1

    def test_a_hostile_frame_closes_only_its_own_connection(self, tier):
        netlist = _adder()
        with SimulationClient(*tier.address) as client:
            before = client.submit(netlist, _block(5))
            with self._raw(tier) as raw:
                raw.sendall(
                    LENGTH.pack(len(b"garbage")) + b"garbage"
                )
                reader = raw.makefile("rb")
                reply = _read_reply(reader)
                assert reply[:2] == ("fatal", "protocol")
                assert _read_reply(reader) is None  # then EOF
            after = client.submit(netlist, _block(6))
            for future, seed in ((before, 5), (after, 6)):
                want = simulate_waves(
                    netlist, _block(seed).tolist(), engine="python"
                )
                assert future.result(60.0) == want

    def test_client_refuses_a_pickle_reply(self, tmp_path):
        target = tmp_path / "pwned"
        listener = socket.create_server(("127.0.0.1", 0))
        payload = pickle.dumps(("pong", _Exploit(target)))

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.recv(1 << 16)  # the client's submit frame
                conn.sendall(LENGTH.pack(len(payload)) + payload)
                conn.recv(1 << 16)  # hold until the client hangs up

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with SimulationClient(*listener.getsockname()) as client:
                with pytest.raises(ConnectionLost, match="undecodable"):
                    client.submit(_adder(), _block(7))
        finally:
            thread.join(10.0)
            listener.close()
        assert not target.exists()

    @pytest.mark.parametrize("name", ["ctrl", "i2c"])
    def test_client_reports_equal_in_process_reports(self, name):
        """Reports crossing a process shard's pipe and the socket equal
        the in-process engine's under report equality."""
        netlist = _fo3(name)
        streams = [
            np.array(random_vectors(netlist.n_inputs, waves, seed=waves),
                     dtype=bool)
            for waves in (1, 32, 70)
        ] + [[]]
        with SimulationServer(process_shards=1) as server:
            with SocketServer(server).start() as net:
                with SimulationClient(*net.address) as client:
                    futures = client.submit_many(netlist, streams)
                    got = [future.result(120.0) for future in futures]
        for report, stream in zip(got, streams):
            want = simulate_waves(netlist, stream, engine="packed")
            assert report == want
            assert report.bits.shape == (len(stream), netlist.n_outputs)


# ----------------------------------------------------------------------
# no pickle in the serving package
# ----------------------------------------------------------------------
_PICKLING_MODULES = {"pickle", "marshal", "shelve", "copyreg"}


def _pickle_uses(path):
    """``(line, what)`` of every pickling import and pipe ``send``/
    ``recv`` call (those two pickle implicitly) in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _PICKLING_MODULES:
                    found.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in _PICKLING_MODULES:
                found.append((node.lineno, f"from {node.module} import"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("send", "recv")
        ):
            found.append((node.lineno, f".{node.func.attr}() call"))
    return found


def test_serve_package_never_pickles():
    modules = sorted(SERVE.glob("*.py"))
    assert len(modules) > 5
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in _pickle_uses(path)
    ]
    assert found == []


def test_the_pickle_check_sees_what_it_must(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text(
        "import pickle\nfrom marshal import loads\nimport copyreg as c\n"
        "conn.send(1)\nconn.recv()\nconn.send_bytes(b'')\n"
    )
    assert [line for line, _ in _pickle_uses(module)] == [1, 2, 3, 4, 5]
