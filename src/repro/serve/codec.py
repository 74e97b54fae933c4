"""The serving tier's one wire codec: typed messages, raw numpy buffers.

Every boundary of :mod:`repro.serve` — the TCP socket between
:class:`~repro.serve.client.SimulationClient` and
:class:`~repro.serve.net.SocketServer`, and the pipe between the parent
and each process shard — carries the same encoding.  Nothing on either
boundary is pickled, so no byte a peer sends can name a callable.

Message layout
--------------
::

    HEAD   struct "!4sI": the magic b"RWC1", then the metadata length
    META   UTF-8 JSON object {"kind": str, "fields": {...},
                              "buffers": [[dtype, [dim, ...]], ...]}
    BUFS   the buffers' raw C-order bytes, back to back, in list order

``fields`` names every field of the message kind's schema (a
:class:`Channel` fixes which kinds one direction of one boundary
carries, and each kind's field names and types, in the order of the
message tuples the serving code builds).  An array-valued field holds
the index of its buffer.  Reports travel as their scalar fields plus
one ``(waves, n_outputs)`` bool buffer each; wave blocks as one
``(waves, inputs)`` bool buffer each (an empty stream's ``[]`` as
``null``); netlists as their ``kinds`` / ``fanins`` / ``outputs``
buffers plus their names, rebuilt on arrival by
:meth:`~repro.core.wavepipe.components.WaveNetlist.from_arrays`, which
validates them.  Errors are the ``(kind, message)`` pair of
:func:`wire_error`.  JSON arrays come back as tuples wherever the
receiver hashes them (netlist cache keys).

Decoding is strict: a truncated payload, a bad header, metadata that is
not UTF-8 JSON of the expected shape, an unknown kind or union tag, a
field of the wrong type, a dtype outside :data:`DTYPES`, a buffer whose
length is not its shape times its item size, a bool byte other than 0
or 1, trailing bytes, or an invalid netlist all raise
:class:`~repro.errors.WireProtocolError` and nothing else.  Decoded
arrays are read-only views of the payload.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, Sequence

import numpy as np

from ..core.wavepipe.components import WaveNetlist
from ..core.wavepipe.simulator import WaveInterference, WaveSimulationReport
from ..errors import (
    ConnectionLost,
    DeadlineExceeded,
    NetlistError,
    ReproError,
    ServeError,
    ServerClosed,
    ServerQueueFull,
    SessionClosed,
    ShardFailed,
    SimulationError,
    WireProtocolError,
)

#: Length prefix of one socket frame: payload bytes, big-endian.
LENGTH = struct.Struct("!I")

#: Payload header: magic (with the codec version), metadata bytes.
HEAD = struct.Struct("!4sI")
MAGIC = b"RWC1"

#: :data:`LENGTH` and :data:`HEAD` together, for a frame's first bytes.
_FRAME_HEAD = struct.Struct("!I4sI")

_META_KEYS = frozenset(("kind", "fields", "buffers"))
_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)

#: The dtypes a buffer may have, by their little-endian ``dtype.str``.
DTYPES: dict[str, np.dtype] = {
    name: np.dtype(name) for name in ("|b1", "|i1", "<i4", "<i8")
}

#: Buffers are at most this many dimensions (blocks, bits, fan-ins),
#: and no dimension is larger than this (numpy refuses some larger
#: ones even for an empty array, and the frame cap rules them out).
MAX_NDIM = 2
MAX_DIM = 2**31

#: Error-type <-> wire-kind table, most specific first (the first
#: ``isinstance`` match encodes; the kind alone decodes).
_WIRE_ERRORS: "tuple[tuple[type[ReproError], str], ...]" = (
    (ServerQueueFull, "queue_full"),
    (DeadlineExceeded, "deadline"),
    (ShardFailed, "shard_failed"),
    (SessionClosed, "session_closed"),
    (ServerClosed, "closed"),
    (WireProtocolError, "protocol"),
    (ConnectionLost, "connection_lost"),
    (SimulationError, "simulation"),
    (ServeError, "serve"),
)

#: The stable wire-error kinds (documentation / exhaustiveness checks).
WIRE_ERROR_KINDS = tuple(kind for _, kind in _WIRE_ERRORS)

_KIND_TO_ERROR = {kind: err_type for err_type, kind in _WIRE_ERRORS}


def wire_error(error: BaseException) -> "tuple[str, str]":
    """Encode *error* as a ``(kind, message)`` wire pair."""
    for err_type, kind in _WIRE_ERRORS:
        if isinstance(error, err_type):
            return kind, str(error)
    return "serve", f"{type(error).__name__}: {error}"


def unwire_error(kind: str, message: str) -> ReproError:
    """Decode a wire pair back into its typed exception."""
    return _KIND_TO_ERROR.get(kind, ServeError)(message)


# ----------------------------------------------------------------------
# field types: value <-> JSON (array values go to the buffer list)
# ----------------------------------------------------------------------
class _Type:
    """One field type: ``pack`` to JSON (appending arrays to *buffers*),
    ``unpack`` back (arrays by index), raising WireProtocolError."""

    name = "value"

    def pack(self, value: object, buffers: list[np.ndarray]) -> object:
        raise NotImplementedError

    def unpack(self, value: object, arrays: Sequence[np.ndarray]) -> object:
        raise NotImplementedError

    def fail(self, value: object) -> WireProtocolError:
        return WireProtocolError(
            f"expected {self.name}, got {type(value).__name__}"
        )


class _Scalar(_Type):
    def __init__(self, name: str, kinds: tuple[type, ...]) -> None:
        self.name = name
        self._kinds = kinds

    def pack(self, value: object, buffers: list[np.ndarray]) -> object:
        if type(value) not in self._kinds:
            # numpy scalars and int subclasses become their plain form
            value = self._kinds[0](value)  # type: ignore[call-arg]
        return value

    def unpack(self, value: object, arrays: Sequence[np.ndarray]) -> object:
        if type(value) is self._kinds[0]:
            return value
        if type(value) not in self._kinds:
            raise self.fail(value)
        try:
            return self._kinds[0](value)  # type: ignore[call-arg]
        except OverflowError:  # an int too large for a float
            raise self.fail(value) from None


INT = _Scalar("an int", (int,))
FLOAT = _Scalar("a number", (float, int))
BOOL = _Scalar("a bool", (bool,))
STR = _Scalar("a string", (str,))


class _Optional(_Type):
    def __init__(self, inner: _Type) -> None:
        self.inner = inner
        self.name = f"null or {inner.name}"

    def pack(self, value: object, buffers: list[np.ndarray]) -> object:
        return None if value is None else self.inner.pack(value, buffers)

    def unpack(self, value: object, arrays: Sequence[np.ndarray]) -> object:
        return None if value is None else self.inner.unpack(value, arrays)


class _List(_Type):
    def __init__(self, inner: _Type, to_tuple: bool = False) -> None:
        self.inner = inner
        self.to_tuple = to_tuple
        self.name = f"a list of {inner.name}"

    def pack(self, value: object, buffers: list[np.ndarray]) -> object:
        return [self.inner.pack(item, buffers) for item in value]  # type: ignore[attr-defined]

    def unpack(self, value: object, arrays: Sequence[np.ndarray]) -> object:
        if type(value) is not list:
            raise self.fail(value)
        items = [self.inner.unpack(item, arrays) for item in value]
        return tuple(items) if self.to_tuple else items


class _Tuple(_Type):
    def __init__(self, *items: _Type) -> None:
        self.items = items
        self.name = f"a {len(items)}-item list"

    def pack(self, value: object, buffers: list[np.ndarray]) -> object:
        values = tuple(value)  # type: ignore[arg-type]
        if len(values) != len(self.items):
            raise self.fail(value)
        return [item.pack(v, buffers) for item, v in zip(self.items, values)]

    def unpack(self, value: object, arrays: Sequence[np.ndarray]) -> object:
        if type(value) is not list or len(value) != len(self.items):
            raise self.fail(value)
        return tuple(
            item.unpack(v, arrays) for item, v in zip(self.items, value)
        )


class _Json(_Type):
    """Any JSON value, as is (the health snapshot)."""

    name = "JSON"

    def pack(self, value: object, buffers: list[np.ndarray]) -> object:
        return value

    def unpack(self, value: object, arrays: Sequence[np.ndarray]) -> object:
        return value


class _Array(_Type):
    """One buffer of a fixed dtype and dimensionality."""

    def __init__(self, dtype: str, ndim: int) -> None:
        self.dtype = DTYPES[dtype]
        self.ndim = ndim
        self.name = f"a {ndim}-d {dtype} buffer index"

    def pack(self, value: object, buffers: list[np.ndarray]) -> object:
        array = np.ascontiguousarray(value, dtype=self.dtype)
        if array.ndim != self.ndim:
            raise WireProtocolError(
                f"expected a {self.ndim}-d array, got shape {array.shape}"
            )
        buffers.append(array)
        return len(buffers) - 1

    def unpack(self, value: object, arrays: Sequence[np.ndarray]) -> object:
        if type(value) is not int or not 0 <= value < len(arrays):
            raise WireProtocolError(f"bad buffer reference {value!r}")
        array = arrays[value]
        if array.dtype != self.dtype or array.ndim != self.ndim:
            raise WireProtocolError(
                f"expected a {self.ndim}-d {self.dtype.str} buffer, got "
                f"{array.dtype.str} of shape {array.shape}"
            )
        return array


class _Record(_Type):
    """A JSON object with exactly the named fields."""

    def __init__(self, name: str, fields: dict[str, _Type]) -> None:
        self.name = name
        self.fields = fields

    def pack_fields(
        self, values: dict[str, object], buffers: list[np.ndarray]
    ) -> dict[str, object]:
        return {
            key: kind.pack(values[key], buffers)
            for key, kind in self.fields.items()
        }

    def unpack_fields(
        self, value: object, arrays: Sequence[np.ndarray]
    ) -> dict[str, object]:
        _expect_keys(value, frozenset(self.fields), self.name)
        return {
            key: kind.unpack(value[key], arrays)  # type: ignore[index]
            for key, kind in self.fields.items()
        }


def _expect_keys(value: object, keys: "frozenset[str]", name: str) -> None:
    if type(value) is not dict or value.keys() != keys:
        raise WireProtocolError(f"expected {name} with fields {sorted(keys)}")


#: A 2-d bool matrix: a wave block, or a report's bits.
_BITS = _Array("|b1", 2)


class _Block(_Type):
    """One wave block: a ``(waves, inputs)`` bool matrix, or ``[]`` (an
    empty stream, whose report is synthesized without the kernels), sent
    as ``null``."""

    name = "a wave block"

    def pack(self, value: object, buffers: list[np.ndarray]) -> object:
        if not isinstance(value, np.ndarray) and not len(value):  # type: ignore[arg-type]
            return None
        return _BITS.pack(value, buffers)

    def unpack(self, value: object, arrays: Sequence[np.ndarray]) -> object:
        return [] if value is None else _BITS.unpack(value, arrays)


def _events(events: object) -> list[WaveInterference]:
    """A report's interference events from ``[[step, component, [wave
    ids]], ...]``."""
    if type(events) is not list:
        raise WireProtocolError("interference must be a list")
    decoded = []
    for event in events:
        if (
            type(event) is not list or len(event) != 3
            or type(event[0]) is not int or type(event[1]) is not int
            or type(event[2]) is not list
            or not all(type(wave) is int for wave in event[2])
        ):
            raise WireProtocolError(f"bad interference event {event!r}")
        decoded.append(WaveInterference(event[0], event[1], tuple(event[2])))
    return decoded


def _counters(report: WaveSimulationReport) -> list[int]:
    return [
        int(report.latency_steps), int(report.steps_run),
        int(report.waves_injected), int(report.waves_retired),
    ]


def _pack_events(events: list[WaveInterference]) -> list[object]:
    return [
        [int(event.step), int(event.component),
         [int(wave) for wave in event.wave_ids]]
        for event in events
    ]


class _Report(_Type):
    """One report: its bits as a 2-d bool buffer, its four counters
    ``[latency_steps, steps_run, waves_injected, waves_retired]``, its
    interference events.  Hand-written rather than a :class:`_Record`
    of :class:`_Tuple` fields: a report served over the socket crosses
    it four times, and the generic walk costs about twice as much."""

    name = "a report"
    _keys = frozenset(("bits", "counters", "interference"))

    def pack(self, value: object, buffers: list[np.ndarray]) -> object:
        report: WaveSimulationReport = value  # type: ignore[assignment]
        return {
            "bits": _BITS.pack(report.bits, buffers),
            "counters": _counters(report),
            "interference": _pack_events(report.interference),
        }

    def unpack(self, value: object, arrays: Sequence[np.ndarray]) -> object:
        _expect_keys(value, self._keys, self.name)
        bits = _BITS.unpack(value["bits"], arrays)  # type: ignore[index]
        counters = value["counters"]  # type: ignore[index]
        if (
            type(counters) is not list or len(counters) != 4
            or not all(type(count) is int for count in counters)
        ):
            raise WireProtocolError(f"bad report counters {counters!r}")
        events = value["interference"]  # type: ignore[index]
        return WaveSimulationReport(
            bits,  # type: ignore[arg-type]
            *counters,
            [] if events == [] else _events(events),
        )


class _Netlist(_Record):
    def __init__(self) -> None:
        super().__init__(
            "a netlist",
            {
                "name": STR,
                "kinds": _Array("|i1", 1),
                "fanins": _Array("<i4", 2),
                "outputs": _Array("<i8", 1),
                "inputs": _List(INT),
                "input_names": _List(STR),
                "output_names": _List(STR),
            },
        )

    def pack(self, value: object, buffers: list[np.ndarray]) -> object:
        netlist: WaveNetlist = value  # type: ignore[assignment]
        arrays = netlist.arrays()
        return self.pack_fields(
            {
                "name": netlist.name,
                "kinds": arrays.kinds,
                "fanins": arrays.fanins,
                "outputs": arrays.outputs,
                "inputs": netlist.inputs,
                "input_names": netlist.input_names,
                "output_names": netlist.output_names,
            },
            buffers,
        )

    def unpack(self, value: object, arrays: Sequence[np.ndarray]) -> object:
        fields = self.unpack_fields(value, arrays)
        try:
            return WaveNetlist.from_arrays(
                fields.pop("kinds"),  # type: ignore[arg-type]
                fields.pop("fanins"),  # type: ignore[arg-type]
                fields.pop("outputs"),  # type: ignore[arg-type]
                **fields,  # type: ignore[arg-type]
            )
        except NetlistError as error:
            raise WireProtocolError(f"invalid netlist: {error}") from None


class _Union(_Type):
    """``{"tag": name, "value": ...}``; *choose* picks the tag to encode."""

    def __init__(
        self, tags: dict[str, _Type], choose: Callable[[object], str]
    ) -> None:
        self.tags = tags
        self.choose = choose
        self.name = f"a tagged value ({', '.join(tags)})"

    def pack(self, value: object, buffers: list[np.ndarray]) -> object:
        tag = self.choose(value)
        return {"tag": tag, "value": self.tags[tag].pack(value, buffers)}

    def unpack(self, value: object, arrays: Sequence[np.ndarray]) -> object:
        if type(value) is not dict or value.keys() != {"tag", "value"}:
            raise self.fail(value)
        tag = value["tag"]
        kind = self.tags.get(tag) if type(tag) is str else None
        if kind is None:
            raise WireProtocolError(f"unknown tag {value['tag']!r}")
        return kind.unpack(value["value"], arrays)


class _None(_Type):
    name = "null"

    def pack(self, value: object, buffers: list[np.ndarray]) -> object:
        return None

    def unpack(self, value: object, arrays: Sequence[np.ndarray]) -> object:
        if value is not None:
            raise self.fail(value)
        return None


REPORT = _Report()
NETLIST = _Netlist()
BLOCK = _Block()
#: a batch's request streams, or its reports
_BLOCKS = _List(BLOCK)
_REPORTS = _List(REPORT)
#: a netlist cache key, ``(id, version)``: hashed on arrival
KEY = _List(INT, to_tuple=True)
#: an injected-fault directive, ``(name, delay_s)``
FAULT = _Optional(_Tuple(STR, FLOAT))


def _ok_tag(value: object) -> str:
    if value is None:
        return "none"
    if value and isinstance(value[0], tuple):  # type: ignore[index]
        return "resolved"
    return "reports"


#: a worker's ``ok`` payload: nothing (session open), a batch's
#: reports, or a session's newly resolved ``(feed index, report)`` pairs
OK_PAYLOAD = _Union(
    {
        "none": _None(),
        "reports": _REPORTS,
        "resolved": _List(_Tuple(INT, REPORT)),
    },
    _ok_tag,
)


# ----------------------------------------------------------------------
# channels: the message kinds one direction of one boundary carries
# ----------------------------------------------------------------------
class Channel:
    """Encoder/decoder for one direction of one boundary.

    *kinds* maps each message kind to its fields, in the order of the
    message tuple after the kind: ``("submit", burst_id, ...)``.
    """

    def __init__(
        self, name: str, kinds: "dict[str, tuple[tuple[str, _Type], ...]]"
    ) -> None:
        self.name = name
        self.kinds = kinds
        self._fields = {
            kind: frozenset(name for name, _ in schema)
            for kind, schema in kinds.items()
        }

    def _schema(self, kind: object) -> "tuple[tuple[str, _Type], ...]":
        schema = self.kinds.get(kind) if type(kind) is str else None  # type: ignore[call-overload]
        if schema is None:
            raise WireProtocolError(f"unknown message kind {kind!r}")
        return schema

    def _pack(self, message: tuple) -> "tuple[bytes, list[np.ndarray]]":
        """The metadata of *message* and the arrays its buffers hold."""
        schema = self._schema(message[0])
        if len(message) != len(schema) + 1:
            raise WireProtocolError(
                f"{message[0]!r} takes {len(schema)} fields, got "
                f"{len(message) - 1}"
            )
        buffers: list[np.ndarray] = []
        fields = {
            name: kind.pack(value, buffers)
            for (name, kind), value in zip(schema, message[1:])
        }
        meta = _JSON.encode(
            {
                "kind": message[0],
                "fields": fields,
                "buffers": [
                    [array.dtype.str, list(array.shape)] for array in buffers
                ],
            }
        ).encode()
        return meta, buffers

    def encode(self, message: tuple) -> bytes:
        """The payload of *message* (a pipe message, or a frame body)."""
        meta, buffers = self._pack(message)
        return b"".join(
            [HEAD.pack(MAGIC, len(meta)), meta]
            + [array.data for array in buffers]
        )

    def frame(self, message: tuple) -> bytes:
        """*message* as one socket frame: :data:`LENGTH` + payload."""
        meta, buffers = self._pack(message)
        size = HEAD.size + len(meta)
        for array in buffers:
            size += array.nbytes
        return b"".join(
            [_FRAME_HEAD.pack(size, MAGIC, len(meta)), meta]
            + [array.data for array in buffers]
        )

    def decode(self, payload: "bytes | bytearray | memoryview") -> tuple:
        """The message tuple *payload* encodes; WireProtocolError if none."""
        view = memoryview(payload).cast("B")
        if len(view) < HEAD.size:
            raise WireProtocolError(
                f"truncated message: {len(view)} bytes, header needs "
                f"{HEAD.size}"
            )
        magic, meta_size = HEAD.unpack_from(view)
        if magic != MAGIC:
            raise WireProtocolError(f"bad message header {magic!r}")
        start = HEAD.size + meta_size
        if start > len(view):
            raise WireProtocolError("truncated message metadata")
        try:
            meta = json.loads(str(view[HEAD.size:start], "utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as error:
            raise WireProtocolError(
                f"undecodable message metadata: {error}"
            ) from None
        if type(meta) is not dict or meta.keys() != _META_KEYS:
            raise WireProtocolError(
                "message metadata must be an object with kind, fields and "
                "buffers"
            )
        kind = meta["kind"]
        schema = self._schema(kind)
        fields = meta["fields"]
        if type(fields) is not dict or fields.keys() != self._fields[kind]:
            raise WireProtocolError(
                f"{kind!r} takes fields {[name for name, _ in schema]}"
            )
        arrays = _split_buffers(view, start, meta["buffers"])
        return (kind, *[
            field.unpack(fields[name], arrays) for name, field in schema
        ])


_BOOL = DTYPES["|b1"]


def _zeros_and_ones(view: memoryview, offset: int, size: int) -> bool:
    """True when every byte of ``view[offset:offset + size]`` is 0 or 1
    (numpy would read any other byte of a bool buffer as True, but keep
    it: equality of such arrays is then not equality of their bits).

    ``bytes.translate`` keeps the GIL; numpy's ``max`` releases it for
    all but tiny arrays, and the decoding thread (the event loop, a
    shard thread, a client reader) then queues to take it back.
    """
    return not view[offset:offset + size].tobytes().translate(
        None, b"\x00\x01"
    )


def _split_buffers(
    view: memoryview, offset: int, specs: object
) -> list[np.ndarray]:
    """Read-only arrays over the payload, one per ``[dtype, shape]``."""
    if type(specs) is not list:
        raise WireProtocolError("message buffers must be a list")
    arrays: list[np.ndarray] = []
    for spec in specs:
        if (
            type(spec) is not list
            or len(spec) != 2
            or type(spec[1]) is not list
            or len(spec[1]) > MAX_NDIM
        ):
            raise WireProtocolError(f"bad buffer spec {spec!r}")
        dtype = DTYPES.get(spec[0]) if type(spec[0]) is str else None
        if dtype is None:
            raise WireProtocolError(f"buffer dtype {spec[0]!r} not allowed")
        count = 1
        for dim in spec[1]:
            if type(dim) is not int or not 0 <= dim <= MAX_DIM:
                raise WireProtocolError(f"bad buffer spec {spec!r}")
            count *= dim
        size = count * dtype.itemsize
        if offset + size > len(view):
            raise WireProtocolError(
                f"truncated buffer: {size} bytes of {spec[0]} "
                f"{tuple(spec[1])} at offset {offset}, payload has "
                f"{len(view)}"
            )
        if dtype is _BOOL and size and not _zeros_and_ones(view, offset, size):
            raise WireProtocolError("bool buffer holds a byte other than 0/1")
        array = np.frombuffer(view, dtype, count, offset).reshape(spec[1])
        if not view.readonly:
            array.flags.writeable = False
        arrays.append(array)
        offset += size
    if offset != len(view):
        raise WireProtocolError(
            f"{len(view) - offset} trailing bytes after the buffers"
        )
    return arrays


_OPT_INT = _Optional(INT)
_OPT_BOOL = _Optional(BOOL)
_OPT_FLOAT = _Optional(FLOAT)
_ERROR = (("kind", STR), ("message", STR))

#: Client -> socket server (see :mod:`repro.serve.net`).
REQUESTS = Channel(
    "socket requests",
    {
        "submit": (
            ("burst_id", INT),
            ("token", INT),
            ("netlist", _Optional(NETLIST)),
            ("request_ids", _List(INT)),
            ("streams", _BLOCKS),
            ("n_phases", _OPT_INT),
            ("pipelined", _OPT_BOOL),
            ("deadline_s", _OPT_FLOAT),
        ),
        "s_open": (
            ("tag", INT),
            ("session_id", INT),
            ("netlist", NETLIST),
            ("n_phases", _OPT_INT),
            ("pipelined", _OPT_BOOL),
        ),
        "s_feed": (
            ("request_id", INT),
            ("session_id", INT),
            ("block", BLOCK),
            ("deadline_s", _OPT_FLOAT),
        ),
        "s_close": (("tag", INT), ("session_id", INT), ("drain", BOOL)),
        "health": (("tag", INT),),
        "ping": (("tag", INT),),
    },
)

#: Socket server -> client.
REPLIES = Channel(
    "socket replies",
    {
        "admitted": (("burst_id", INT),),
        "rejected": (("burst_id", INT),) + _ERROR,
        "miss": (("burst_id", INT),),
        "result": (("request_id", INT), ("report", REPORT)),
        "error": (("request_id", INT),) + _ERROR,
        "s_opened": (("tag", INT),),
        "s_open_failed": (("tag", INT),) + _ERROR,
        "s_closed": (("tag", INT),),
        "health": (("tag", INT), ("snapshot", _Json())),
        "pong": (("tag", INT),),
        "fatal": _ERROR,
    },
)

#: Parent -> shard worker (see :mod:`repro.serve.shards`).
WORKER_REQUESTS = Channel(
    "worker requests",
    {
        "run": (
            ("key", KEY),
            ("netlist", _Optional(NETLIST)),
            ("n_phases", INT),
            ("pipelined", BOOL),
            ("streams", _BLOCKS),
            ("fault", FAULT),
        ),
        "warm": (("key", KEY), ("netlist", NETLIST), ("n_phases", INT)),
        "s_open": (
            ("session_id", STR),
            ("netlist", NETLIST),
            ("n_phases", INT),
            ("pipelined", BOOL),
        ),
        "s_feed": (
            ("session_id", STR),
            ("block", BLOCK),
            ("flush", BOOL),
            ("fault", FAULT),
        ),
        "s_close": (("session_id", STR), ("drain", BOOL)),
        "ping": (),
        "stop": (),
    },
)

#: Shard worker -> parent.
WORKER_REPLIES = Channel(
    "worker replies",
    {
        "ok": (("payload", OK_PAYLOAD),),
        "error": _ERROR,
        "miss": (("key", KEY),),
        "s_lost": (("session_id", STR),),
        "pong": (("pid", INT),),
    },
)

