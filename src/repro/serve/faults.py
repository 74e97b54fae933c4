"""Deterministic, seeded fault injection for the serving tier.

The chaos tests of ISSUE 5 murdered workers at two hand-picked points;
this module replaces hand-picked with *systematic*: a :class:`FaultPlan`
compiled from a seed plus per-fault rates decides, at every dispatch,
whether that dispatch runs clean or suffers one of five named faults —
and the decision sequence is a pure function of the seed, so every chaos
failure is replayable as a reproducible test case (``repro serve-bench
--faults ... --fault-seed N`` prints the seed for exactly this reason).

Fault kinds (one decision per kind per dispatch, in priority order):

``crash_before_dispatch``
    The worker process is SIGKILLed by the parent *before* the batch is
    sent — the crash-between-batches case the pool discovers (and
    absorbs with a respawn) at its next dispatch.
``crash_mid_batch``
    The worker receives the batch and dies (``os._exit``) without
    replying — the mid-batch crash the retry/quarantine machinery must
    survive.
``pipe_eof``
    The worker closes its pipe cleanly and exits — the EOF-without-crash
    shutdown race.
``hang``
    The worker sleeps ``hang_s`` seconds before processing: with a
    dispatch timeout configured the parent detects the hang and reaps
    the worker; without one this is the wedged-worker scenario the
    timeout exists to prevent, so pair a nonzero ``hang`` rate with
    ``dispatch_timeout_s``.
``slow``
    The worker sleeps ``slow_s`` seconds, then serves the batch
    normally — latency jitter, not a failure.

Determinism
-----------
Each kind keeps its own visit counter, and the decision for visit *n* of
kind *k* is derived from ``(seed, k, n)`` alone — never from wall-clock,
thread identity, or cross-kind state.  Two plans built from the same
seed and rates therefore fire the same faults at the same per-kind visit
numbers even when shard threads interleave differently, which is what
makes a failing chaos seed replayable.

Poison batches
--------------
``FaultPlan(seed, poison={route_key, ...})`` marks specific route keys
as *poison*: every dispatch of those keys crashes its worker mid-batch,
deterministically — the reliable-killer batch the quarantine machinery
(:mod:`repro.serve.supervisor`) must contain without taking the server
down.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, fields
from typing import Collection, Dict, Optional, Tuple

from ..errors import ServeError

#: Fault kinds in decision priority order (first firing kind wins).
FAULT_KINDS: Tuple[str, ...] = (
    "crash_before_dispatch",
    "crash_mid_batch",
    "pipe_eof",
    "hang",
    "slow",
)

_KIND_INDEX = {kind: index for index, kind in enumerate(FAULT_KINDS)}

#: Wire directive names the worker loop understands (parent-side faults
#: have no directive).
_WIRE_NAME = {
    "crash_mid_batch": "crash",
    "pipe_eof": "eof",
    "hang": "hang",
    "slow": "slow",
}

#: CLI spec aliases (``FaultPlan.parse``) -> rate-field names.
_SPEC_ALIASES = {
    "crash": "crash_mid_batch",
    "crash-mid": "crash_mid_batch",
    "crash-pre": "crash_before_dispatch",
    "eof": "pipe_eof",
    "hang": "hang",
    "slow": "slow",
    "slow-s": "slow_s",
    "hang-s": "hang_s",
}


@dataclass(frozen=True)
class Fault:
    """One injected fault: the kind, and its delay where meaningful."""

    kind: str
    delay_s: float = 0.0

    def wire(self) -> Optional[Tuple[str, float]]:
        """Directive shipped to the worker (``None`` = parent-side)."""
        name = _WIRE_NAME.get(self.kind)
        return None if name is None else (name, self.delay_s)


@dataclass(frozen=True)
class FaultRates:
    """Per-dispatch firing probabilities (plus the two delay knobs)."""

    crash_before_dispatch: float = 0.0
    crash_mid_batch: float = 0.0
    pipe_eof: float = 0.0
    hang: float = 0.0
    slow: float = 0.0
    #: seconds a ``slow`` fault sleeps before serving the batch
    slow_s: float = 0.02
    #: seconds a ``hang`` fault sleeps; must exceed the dispatch timeout
    #: for the hang to be a hang (the parent reaps the worker mid-sleep)
    hang_s: float = 600.0

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ServeError(
                    f"fault rate {kind}={rate!r} must be in [0, 1]"
                )
        if self.slow_s < 0 or self.hang_s < 0:
            raise ServeError("fault delays must be >= 0")

    def any_enabled(self) -> bool:
        """True when at least one kind can ever fire."""
        return any(getattr(self, kind) > 0.0 for kind in FAULT_KINDS)


class FaultPlan:
    """Seeded fault schedule, consulted once per dispatch.

    Thread-safe: shard threads share one plan, and each kind's visit
    counter advances under the plan's lock.  The decision for a given
    (kind, visit) pair is a pure function of the seed — see the module
    docstring for the replayability contract.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[FaultRates] = None,
        *,
        poison: Collection[object] = (),
    ) -> None:
        self.seed = int(seed)
        self.rates = rates if rates is not None else FaultRates()
        self._poison = frozenset(poison)
        self._lock = threading.Lock()
        self._visits: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._skipped: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def _decision(self, kind: str, visit: int) -> float:
        """The [0, 1) draw of visit *visit* of *kind* — pure in the seed.

        A per-draw seeded PRNG keyed by integer mixing (no ``hash()``,
        which is process-seeded for strings) keeps the value independent
        of call interleaving across kinds and threads.
        """
        mix = (
            self.seed * 0x9E3779B1
            + _KIND_INDEX[kind] * 0x85EBCA77
            + visit * 0xC2B2AE35
        ) & 0xFFFFFFFF
        return random.Random(mix).random()

    def _delay(self, kind: str) -> float:
        if kind == "hang":
            return self.rates.hang_s
        if kind == "slow":
            return self.rates.slow_s
        return 0.0

    def next_fault(self, *, route_key: object = None) -> Optional[Fault]:
        """One dispatch's fault decision; ``None`` = dispatch runs clean.

        *route_key* (the sticky-routing key of the batch being
        dispatched) engages the poison set: a poison key crashes its
        worker mid-batch on every dispatch, rate configuration
        notwithstanding.
        """
        if route_key is not None and route_key in self._poison:
            with self._lock:
                self._injected["crash_mid_batch"] += 1
            return Fault("crash_mid_batch")
        with self._lock:
            for kind in FAULT_KINDS:
                rate = getattr(self.rates, kind)
                if rate <= 0.0:
                    continue
                visit = self._visits[kind]
                self._visits[kind] = visit + 1
                if self._decision(kind, visit) < rate:
                    self._injected[kind] += 1
                    return Fault(kind, self._delay(kind))
        return None

    def note_skipped(self, kind: str) -> None:
        """Move one drawn *kind* fault the transport could not run from
        :meth:`injected` to :meth:`skipped` (the draws stay as they were,
        so replays still match)."""
        with self._lock:
            self._injected[kind] -= 1
            self._skipped[kind] += 1

    def injected(self) -> Dict[str, int]:
        """Cumulative faults that ran so far, per kind (a snapshot copy)."""
        with self._lock:
            return dict(self._injected)

    def skipped(self) -> Dict[str, int]:
        """Cumulative drawn faults the transport skipped, per kind."""
        with self._lock:
            return dict(self._skipped)

    def describe(self) -> str:
        """One replayable line: the seed plus every nonzero rate."""
        parts = [f"seed={self.seed}"]
        parts.extend(
            f"{kind}={getattr(self.rates, kind):g}"
            for kind in FAULT_KINDS
            if getattr(self.rates, kind) > 0.0
        )
        if self.rates.slow > 0.0:
            parts.append(f"slow_s={self.rates.slow_s:g}")
        if self.rates.hang > 0.0:
            parts.append(f"hang_s={self.rates.hang_s:g}")
        if self._poison:
            parts.append(f"poison_keys={len(self._poison)}")
        return " ".join(parts)

    @classmethod
    def parse(cls, spec: str, *, seed: int = 0) -> "FaultPlan":
        """Build a plan from a CLI spec like ``'crash=0.1,hang=0.05'``.

        Accepted keys: ``crash``/``crash-mid`` (mid-batch crash),
        ``crash-pre`` (crash before dispatch), ``eof``, ``hang``,
        ``slow`` (rates in [0, 1]); ``slow-s``/``hang-s`` (delays, in
        seconds); ``seed`` (overrides the *seed* argument).  Full
        rate-field names are accepted too.
        """
        field_names = {field.name for field in fields(FaultRates)}
        values: Dict[str, float] = {}
        plan_seed = int(seed)
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise ServeError(
                    f"bad fault spec token {token!r}: expected key=value"
                )
            raw_key, _, raw_value = token.partition("=")
            key = raw_key.strip().lower()
            try:
                value = float(raw_value)
            except ValueError:
                raise ServeError(
                    f"bad fault spec value {raw_value!r} for {key!r}"
                ) from None
            if key == "seed":
                plan_seed = int(value)
                continue
            name = _SPEC_ALIASES.get(key, key)
            if name not in field_names:
                known = ", ".join(sorted(_SPEC_ALIASES) + ["seed"])
                raise ServeError(
                    f"unknown fault spec key {raw_key!r}; choose from "
                    f"{known}"
                )
            values[name] = value
        return cls(plan_seed, FaultRates(**values))
