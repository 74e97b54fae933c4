"""Coalescing micro-batcher: pending requests -> one packed pass.

The batcher is pure batching *policy*.  It decides which group a shard
serves next (round-robin via the queue), how many requests one batch
carries (``max_batch_requests``), and how many total waves
(``max_batch_waves``) — and it asks the packed engine
(:func:`~repro.core.wavepipe.batch.plan_stream_batch`) how the batch will
pack, so sizing and execution share one source of truth.  Locking, the
linger wait, and running the batch belong to the server.

Why these defaults: every stream in a tracked pass occupies at least one
lane, so a batch of ``n`` requests needs at least ``ceil(n / 64)`` state
words.  :data:`DEFAULT_MAX_BATCH_REQUESTS` = 256 keeps a worst-case
one-lane-per-stream batch at 4 words, comfortably inside the planner's
:data:`~repro.core.wavepipe.batch.MAX_PLANNED_WORDS` soft cap (16 words),
while :data:`DEFAULT_MAX_BATCH_WAVES` bounds the injection-packing
footprint of one pass regardless of per-request stream lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..core.wavepipe.batch import (
    LANES_PER_WORD,
    MAX_PLANNED_WORDS,
    plan_stream_batch,
)
from ..core.wavepipe.clocking import ClockingScheme
from ..core.wavepipe.components import WaveNetlist
from .queue import GroupKey, RequestQueue, SimulationRequest

#: Default cap on requests coalesced into one packed pass (see module
#: docstring for the lane-planner rationale).
DEFAULT_MAX_BATCH_REQUESTS = 256

#: Default cap on the total waves of one packed pass.
DEFAULT_MAX_BATCH_WAVES = 65_536

#: Waves-per-lane multiplier of :func:`adaptive_max_batch_waves`: past
#: this many injection rounds per lane, adding waves to a pass only
#: deepens each lane's schedule without adding any parallelism, so the
#: batcher is better off cutting the batch and starting the next one.
ADAPTIVE_WAVES_PER_LANE = 8


def adaptive_max_batch_waves(
    max_words: int = MAX_PLANNED_WORDS,
    waves_per_lane: int = ADAPTIVE_WAVES_PER_LANE,
) -> int:
    """Wave cap of one packed pass, derived from the planner's word cap.

    The lane planner never plans more than *max_words* state words —
    ``max_words * 64`` lanes — per pass, so a batch wider than
    ``lanes x waves_per_lane`` waves cannot buy more parallelism: the
    surplus waves just stack extra injection slots onto every lane while
    the whole batch's futures wait for the last slot to retire.  Tying
    the cap to :data:`~repro.core.wavepipe.batch.MAX_PLANNED_WORDS`
    (instead of the static :data:`DEFAULT_MAX_BATCH_WAVES`) keeps the
    two in lockstep if the planner's budget ever changes — one source of
    truth, same as the request cap's rationale.
    """
    if max_words < 1:
        raise ValueError("max_words must be at least 1")
    if waves_per_lane < 1:
        raise ValueError("waves_per_lane must be at least 1")
    return max_words * LANES_PER_WORD * waves_per_lane


@dataclass
class Batch:
    """One group of requests about to share a single packed pass."""

    key: GroupKey
    requests: list[SimulationRequest] = field(default_factory=list)

    @property
    def netlist(self) -> WaveNetlist:
        """The shared netlist (every request in a batch agrees on it)."""
        return self.requests[0].netlist

    @property
    def clocking(self) -> ClockingScheme:
        """The shared clocking scheme (part of the group key)."""
        return self.requests[0].clocking

    @property
    def pipelined(self) -> bool:
        """The shared injection mode (part of the group key)."""
        return self.key.pipelined

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def n_waves(self) -> int:
        """Total waves across every request of the batch."""
        return sum(request.n_waves for request in self.requests)

    @property
    def earliest_deadline(self) -> Optional[float]:
        """Soonest ``deadline_at`` already *in* the batch, if any.

        The deadline-aware linger caps its wait on this (and on the
        queue's :meth:`~repro.serve.queue.RequestQueue.group_deadline`):
        lingering for stragglers must never push a request already
        admitted to the batch past its own deadline.
        """
        return min(
            (
                request.deadline_at
                for request in self.requests
                if request.deadline_at is not None
            ),
            default=None,
        )


class Batcher:
    """Forms per-netlist batches from a :class:`RequestQueue`.

    The queue-touching methods (:meth:`start_batch`, :meth:`top_up`)
    must be called with the server's lock held — the queue is not
    thread-safe.  :meth:`plan` and :meth:`is_full` touch no queue state;
    ``plan`` is called by shard workers *outside* the server lock.
    """

    def __init__(
        self,
        queue: RequestQueue,
        max_batch_requests: int = DEFAULT_MAX_BATCH_REQUESTS,
        max_batch_waves: int = DEFAULT_MAX_BATCH_WAVES,
    ) -> None:
        if max_batch_requests < 1:
            raise ValueError("max_batch_requests must be at least 1")
        if max_batch_waves < 1:
            raise ValueError("max_batch_waves must be at least 1")
        self.queue = queue
        self.max_batch_requests = int(max_batch_requests)
        self.max_batch_waves = int(max_batch_waves)

    def expire(
        self, now: float, key: Optional[GroupKey] = None
    ) -> list[SimulationRequest]:
        """Batch admission, step zero: evict requests past their deadline.

        Called (with the server's lock held, like every queue-touching
        method) before seeding a batch and between linger top-ups, so an
        expired request is never packed — no lane planning, no injection
        packing, no kernel step is ever spent on it.  The server fails
        the returned requests' futures with
        :class:`~repro.errors.DeadlineExceeded` outside the lock.
        """
        return self.queue.expire(now, key=key)

    def start_batch(self, busy: Iterable[GroupKey]) -> Optional[Batch]:
        """Seed a batch from the next non-busy group, or ``None``.

        Groups in *busy* are being simulated by another shard right now;
        skipping them is what lets independent netlist groups run
        concurrently without ever splitting one group across shards
        (which would reorder responses and defeat coalescing).  Group
        choice is the queue's: round-robin for deadline-free traffic,
        earliest-deadline-first once deadlines are queued.
        """
        key = self.queue.next_key(skip=busy)
        if key is None:
            return None
        requests = self.queue.take(
            key, self.max_batch_requests, self.max_batch_waves
        )
        return Batch(key=key, requests=requests)

    def top_up(self, batch: Batch) -> int:
        """Extend *batch* with requests that arrived since it was seeded.

        Called between linger waits; respects both caps strictly (a
        request that would overflow the wave budget stays queued for the
        next batch).  Returns the number of requests added.
        """
        more = self.queue.take(
            batch.key,
            self.max_batch_requests - batch.n_requests,
            self.max_batch_waves - batch.n_waves,
            always_take_first=False,
        )
        batch.requests.extend(more)
        return len(more)

    def is_full(self, batch: Batch) -> bool:
        """True when neither cap leaves room to coalesce more requests."""
        return (
            batch.n_requests >= self.max_batch_requests
            or batch.n_waves >= self.max_batch_waves
        )

    def plan(self, batch: Batch) -> dict:
        """How the packed engine will run *batch* (the metrics record its
        words, so operators see how traffic packs): the functional
        pass's ``ceil(waves / 64)`` words on a wave-ready netlist, else
        the step loop's lane plan, which the engine memoizes by batch
        shape, so with thread shards the pass that runs the batch
        reuses this very plan."""
        return plan_stream_batch(
            batch.netlist,
            [request.n_waves for request in batch.requests],
            clocking=batch.clocking,
            pipelined=batch.pipelined,
        )
