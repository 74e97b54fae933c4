"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class MigError(ReproError):
    """Structural misuse of a Majority-Inverter Graph (bad literal, cycle, ...)."""


class NetlistError(ReproError):
    """Structural misuse of a wave netlist (unknown component, bad edge, ...)."""


class BalanceError(ReproError):
    """A netlist that was expected to be path-balanced is not."""


class FanoutError(ReproError):
    """A netlist violates the configured fan-out restriction."""


class TechnologyError(ReproError):
    """Invalid or inconsistent technology model parameters."""


class SimulationError(ReproError):
    """Wave or Boolean simulation failed (interference, width mismatch, ...)."""


class EquivalenceError(ReproError):
    """Two networks that must be functionally equivalent are not."""


class ServeError(ReproError):
    """Misuse or failure of the micro-batching simulation server."""


class ServerQueueFull(ServeError):
    """Backpressure: the server's bounded request queue is at capacity.

    Raised by :meth:`repro.serve.SimulationServer.submit` when admitting
    the request would exceed ``max_pending``.  Callers are expected to
    retry after draining some of their outstanding futures (closed-loop
    clients never see this unless they overrun their own concurrency).
    """


class ServerClosed(ServeError):
    """A request was submitted to a server that is closed or closing."""


class ShardFailed(ServeError):
    """A batch was abandoned by the shard supervision machinery.

    Raised *through the affected requests' futures* when a batch
    exhausts its retry budget (every dispatch attempt killed or hung its
    worker — the poison-batch quarantine), or when every worker slot's
    crash-loop circuit breaker is open so the batch cannot be dispatched
    at all.  Only the quarantined batch fails: the server keeps serving
    other groups, and the ``shard_failed`` metric counts the affected
    requests.
    """


class WireProtocolError(ServeError):
    """A peer violated the socket framing or the wire codec.

    Raised by the serving codec (:mod:`repro.serve.codec`) for every
    payload it cannot decode — truncated, a bad header or metadata, an
    unknown message kind or tag, a dtype or buffer length it refuses,
    an invalid netlist — and by the network tier for a length prefix
    above the negotiated maximum.  The server answers with a typed
    ``fatal`` wire error and closes the offending connection; in-flight
    requests on *other* connections are unaffected.
    """


class ConnectionLost(ServeError):
    """The socket to the serving tier died with requests in flight.

    Raised *through every pending future* of a
    :class:`repro.serve.client.SimulationClient` whose connection is
    reset, reaches end-of-stream, or is closed locally while results
    are still outstanding — futures never strand.  Requests already
    admitted keep running server-side; only their replies are lost.
    """


class SessionClosed(ServeError):
    """A streaming session was used after :meth:`close`.

    Raised synchronously by ``feed`` on a session that has been closed
    (locally or by server shutdown), and *through every unresolved feed
    future* when a server discards a session without draining it.  A
    drained close (``close(drain=True)``) never raises this through
    futures: every in-flight feed resolves with its report first.
    """


class DeadlineExceeded(ServeError):
    """A request's deadline passed before it could be dispatched.

    Raised *through the request's future* by
    :class:`repro.serve.SimulationServer` when a request submitted with
    ``deadline_s`` (or under a server-wide ``default_deadline_s``) is
    still queued past its deadline.  Expired requests are dropped at
    batch-formation time — before any packing or simulation work is
    spent on them — and counted by the ``expired`` server metric.
    """


class ParseError(ReproError):
    """A netlist file (BLIF, .mig) could not be parsed."""


class SatError(ReproError):
    """The SAT substrate was used incorrectly (bad literal, empty clause set, ...)."""


class GenerationError(ReproError):
    """A benchmark generator could not satisfy its structural targets."""
