"""Runtime lock sanitizer: turns stress tests into race detectors.

``REPRO_SANITIZE=1`` (see ``tests/conftest.py``) swaps the
``threading`` module *as seen by the serving tier and the kernel
cache* for a shim whose ``Lock``/``RLock``/``Condition`` constructors
return instrumented wrappers.  Every acquisition records, per thread,
which locks were already held:

* acquiring B while holding A adds the order edge ``A -> B``, keyed by
  each lock's **creation site** (``file:line``), so every instance of a
  class contributes to one logical edge;
* an edge whose *reverse* was ever observed — in any thread, any test —
  is a lock-order inversion (rule ``lock-inversion``): two threads
  interleaving those paths can deadlock, even if this run did not;
* releasing a lock held longer than ``REPRO_SANITIZE_HOLD_S`` seconds
  (default ``10``, generous enough for a worker-process respawn under
  ``worker.lock``) is a stall (rule ``lock-hold``) — a wait inside a
  ``Condition`` releases the lock, so blocking in ``wait()`` never
  counts as holding.

The shim is installed **per target module** (``module.threading =
shim``), never by patching the global ``threading`` module: pytest,
``concurrent.futures`` and friends keep their real primitives, so the
sanitizer's blast radius is exactly the code under test.  Locks created
*before* :func:`install` (module-import-time locks like the kernels'
``_COMPILE_LOCK``) stay uninstrumented; everything constructed
afterwards — every server, pool, worker — is tracked.

Violations surface as the shared :class:`~repro.devtools.report.Finding`
records; the conftest autouse fixture fails the test that produced
them.  ``repro lint`` runs :func:`self_check` — a synthetic ABBA
inversion plus an over-threshold hold against a private registry — so a
silently broken sanitizer is itself a lint finding.
"""

from __future__ import annotations

import importlib
import os
import threading as _real_threading
import time
import traceback
from typing import Optional

from .report import Finding

#: Modules whose ``threading`` binding the shim replaces.
TARGET_MODULES = (
    "repro.serve.server",
    "repro.serve.core",
    "repro.serve.metrics",
    "repro.serve.shards",
    "repro.serve.loadgen",
    "repro.core.wavepipe.kernels",
)

#: Default seconds a lock may be held before ``lock-hold`` fires.
DEFAULT_HOLD_THRESHOLD_S = 10.0


def enabled() -> bool:
    """True when ``REPRO_SANITIZE`` asks for instrumented locks."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "on", "true", "yes",
    )


def _hold_threshold() -> float:
    raw = os.environ.get("REPRO_SANITIZE_HOLD_S", "").strip()
    if not raw:
        return DEFAULT_HOLD_THRESHOLD_S
    try:
        return float(raw)
    except ValueError:
        return DEFAULT_HOLD_THRESHOLD_S


def _creation_site() -> tuple[str, int]:
    """First stack frame outside this module — the lock's birthplace."""
    for frame in reversed(traceback.extract_stack(limit=12)):
        if not frame.filename.endswith("sanitize.py"):
            return frame.filename, frame.lineno or 0
    return "<unknown>", 0


def _brief_stack() -> str:
    frames = [
        f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}"
        for frame in traceback.extract_stack(limit=8)
        if not frame.filename.endswith("sanitize.py")
    ]
    return " <- ".join(reversed(frames[-4:]))


class LockRegistry:
    """Order edges, per-thread held stacks, and recorded violations."""

    def __init__(self, hold_threshold_s: Optional[float] = None) -> None:
        self._meta = _real_threading.Lock()  # guards registry state
        self.hold_threshold_s = (
            _hold_threshold()
            if hold_threshold_s is None
            else hold_threshold_s
        )
        #: (site_a, site_b) -> (thread name, brief stack) of first sighting
        self.edges: dict = {}
        self._violations: list[Finding] = []
        self._reported: set = set()  # dedup keys
        self._held = _real_threading.local()

    # -- wrapper hooks ---------------------------------------------------
    def note_acquire(self, lock: "_SanitizedLock") -> None:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        thread = _real_threading.current_thread().name
        site = lock.site
        prior_sites = {entry[0] for entry in stack}
        stack.append((site, time.monotonic()))
        if site in prior_sites:
            return  # reentrant (RLock) — no self edges
        with self._meta:
            for prior in prior_sites:
                edge = (prior, site)
                if edge not in self.edges:
                    self.edges[edge] = (thread, _brief_stack())
                reverse = (site, prior)
                if reverse in self.edges:
                    key = ("inversion", frozenset(edge))
                    if key in self._reported:
                        continue
                    self._reported.add(key)
                    other_thread, other_stack = self.edges[reverse]
                    path, line = _site_parts(site)
                    self._violations.append(
                        Finding(
                            rule="lock-inversion",
                            path=path,
                            line=line,
                            message=(
                                f"lock {_site_label(site)} acquired "
                                f"while holding {_site_label(prior)} "
                                f"(thread {thread!r}, at "
                                f"{_brief_stack()}), but thread "
                                f"{other_thread!r} took them in the "
                                f"opposite order at {other_stack}; "
                                "the interleaving deadlocks"
                            ),
                            analyzer="sanitize",
                        )
                    )

    def note_release(self, lock: "_SanitizedLock") -> None:
        stack = getattr(self._held, "stack", None)
        if not stack:
            return
        site = lock.site
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][0] == site:
                _, since = stack.pop(index)
                held_for = time.monotonic() - since
                if held_for > self.hold_threshold_s:
                    self._hold_violation(site, held_for)
                return

    def _hold_violation(self, site: tuple, held_for: float) -> None:
        with self._meta:
            key = ("hold", site)
            if key in self._reported:
                return
            self._reported.add(key)
            path, line = _site_parts(site)
            self._violations.append(
                Finding(
                    rule="lock-hold",
                    path=path,
                    line=line,
                    message=(
                        f"lock {_site_label(site)} held for "
                        f"{held_for:.2f}s (threshold "
                        f"{self.hold_threshold_s:.2f}s) by thread "
                        f"{_real_threading.current_thread().name!r} "
                        f"at {_brief_stack()}; long holds serialize "
                        "the serving tier and hide deadlocks"
                    ),
                    analyzer="sanitize",
                )
            )

    # -- reporting -------------------------------------------------------
    def findings(self) -> list[Finding]:
        with self._meta:
            return list(self._violations)

    def reset(self) -> None:
        """Forget violations and edges (held stacks are left alone)."""
        with self._meta:
            self.edges.clear()
            self._violations.clear()
            self._reported.clear()


def _site_parts(site: tuple) -> tuple[str, int]:
    return site[0], site[1]


def _site_label(site: tuple) -> str:
    return f"{site[0].rsplit('/', 1)[-1]}:{site[1]}"


class _SanitizedLock:
    """``threading.Lock`` wrapper reporting into a :class:`LockRegistry`.

    Deliberately *not* attribute-delegating: ``threading.Condition``
    must fall back to calling the wrapper's own ``acquire``/``release``
    (so waits release the tracked hold), not reach through to the inner
    lock's private helpers.
    """

    _factory = staticmethod(_real_threading.Lock)

    def __init__(
        self,
        registry: LockRegistry,
        site: Optional[tuple[str, int]] = None,
    ) -> None:
        self._inner = self._factory()
        self._registry = registry
        # explicit sites serve the self-check: its locks are all born
        # inside this very module, which _creation_site skips over
        self.site = site if site is not None else _creation_site()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._registry.note_acquire(self)
        return got

    def release(self) -> None:
        self._registry.note_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} from {_site_label(self.site)} "
            f"wrapping {self._inner!r}>"
        )


class _SanitizedRLock(_SanitizedLock):
    _factory = staticmethod(_real_threading.RLock)

    def locked(self) -> bool:  # C RLock grew .locked() only in 3.12
        probe = getattr(self._inner, "locked", None)
        return bool(probe()) if probe is not None else False


class SanitizedCondition(_real_threading.Condition):
    """``Condition`` over a sanitized lock.

    With no *lock* argument a sanitized **non-reentrant** ``Lock`` is
    used (the stdlib defaults to ``RLock``; nothing in this codebase
    relies on reentrant condition locks, and the plain wrapper keeps
    ``wait()`` flowing through the tracked ``acquire``/``release``).
    """

    def __init__(
        self,
        registry: LockRegistry,
        lock: Optional[_SanitizedLock] = None,
    ) -> None:
        if lock is None:
            lock = _SanitizedLock(registry)
        # the wrapper quacks like a Lock (acquire/release/__enter__);
        # typeshed's Condition signature only admits the real types
        super().__init__(lock)  # type: ignore


class _ThreadingShim:
    """Stands in for the ``threading`` module inside target modules."""

    def __init__(self, registry: LockRegistry) -> None:
        self._registry = registry

    def Lock(self) -> _SanitizedLock:
        return _SanitizedLock(self._registry)

    def RLock(self) -> _SanitizedRLock:
        return _SanitizedRLock(self._registry)

    def Condition(
        self, lock: Optional[_SanitizedLock] = None
    ) -> SanitizedCondition:
        return SanitizedCondition(self._registry, lock)

    def __getattr__(self, name: str) -> object:
        return getattr(_real_threading, name)


#: (registry, {module name: saved threading binding}) while installed.
_ACTIVE: Optional[tuple] = None


def install(registry: Optional[LockRegistry] = None) -> LockRegistry:
    """Swap the target modules onto sanitized locks; idempotent."""
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE[0]
    registry = registry or LockRegistry()
    shim = _ThreadingShim(registry)
    saved = {}
    for name in TARGET_MODULES:
        module = importlib.import_module(name)
        saved[name] = module.threading
        setattr(module, "threading", shim)
    _ACTIVE = (registry, saved)
    return registry


def uninstall() -> None:
    """Restore the real ``threading`` bindings."""
    global _ACTIVE
    if _ACTIVE is None:
        return
    _, saved = _ACTIVE
    for name, binding in saved.items():
        setattr(importlib.import_module(name), "threading", binding)
    _ACTIVE = None


def active_registry() -> Optional[LockRegistry]:
    return _ACTIVE[0] if _ACTIVE is not None else None


def self_check() -> list[Finding]:
    """Prove the sanitizer machinery works; findings mean it is broken.

    Drives a synthetic ABBA inversion and an over-threshold hold
    through a *private* registry (nothing global is touched) and
    reports a ``sanitizer-broken`` finding for every detection the
    machinery missed — ``repro lint`` runs this so a silently dead
    sanitizer fails the lint gate.
    """
    registry = LockRegistry(hold_threshold_s=0.005)
    lock_a = _SanitizedLock(registry, site=("<self-check>", 1))
    lock_b = _SanitizedLock(registry, site=("<self-check>", 2))
    with lock_a:
        with lock_b:
            pass
    with lock_b:
        with lock_a:  # reverse order: must be flagged
            pass
    with lock_a:
        time.sleep(0.02)  # must exceed the 5ms threshold
    rules = {finding.rule for finding in registry.findings()}
    findings = []
    here = __file__
    if "lock-inversion" not in rules:
        findings.append(
            Finding(
                rule="sanitizer-broken",
                path=here,
                line=0,
                message=(
                    "self-check ABBA acquisition was not reported as "
                    "a lock-inversion; the runtime sanitizer is not "
                    "detecting lock-order violations"
                ),
                analyzer="sanitize",
            )
        )
    if "lock-hold" not in rules:
        findings.append(
            Finding(
                rule="sanitizer-broken",
                path=here,
                line=0,
                message=(
                    "self-check over-threshold hold was not reported "
                    "as a lock-hold; the runtime sanitizer is not "
                    "tracking hold times"
                ),
                analyzer="sanitize",
            )
        )
    return findings
