"""The work-queue scheduler for proof obligations.

``ObligationScheduler.run`` takes a list of :class:`Obligation` and
returns one :class:`ObligationOutcome` per obligation, **in input order**
regardless of completion order.  Three execution backends:

* ``backend='serial'`` (or ``jobs == 1``, or a single obligation) --
  each obligation's ``payload`` (:mod:`repro.exec.payload`) runs inline,
  in order, on the calling thread, over the caller's live objects.
* ``backend='process'`` (the default) -- a ``ProcessPoolExecutor`` of
  ``jobs`` workers.  The parent pickles each payload to a worker; terms
  cross the boundary in the structural wire format
  (:mod:`repro.logic.wire`), which re-interns them worker-side so
  hash-consing identity survives.
* ``backend='remote'`` -- a proof farm (:mod:`repro.exec.remote`, DESIGN.md
  §16): the same payloads are *leased* to worker processes on other
  hosts over sockets, with a shared networked cache tier.

Both parallel backends run one dispatcher
(:meth:`ObligationScheduler._dispatch`) over a narrow transport that
ships a dispatch unit (a ``BatchPayload``; a solo obligation is a batch
of one), polls for completions, and reports lost units with their blame
scope: the whole pool (:class:`_ProcessTransport`) or one connection
(:class:`_RemoteTransport`).  Group chaining (same-``group`` obligations
run serially, in order), cache-before-dispatch, batch-unit formation,
result decoding, ``stop_on``/``on_error`` and blame are written once, in
the dispatcher.  Every backend runs a payload through one attempt/retry
loop (:func:`_run_payload`) and lands its result tuple through
:meth:`ObligationScheduler._land`.  Cache and telemetry live in the
parent, identical on every backend.

Timeouts: workers arm a ``SIGALRM`` timer around each discharge, so an
overrun is preempted and reported ``timed_out``; a process worker that
ignores it is abandoned at a parent-side fallback deadline, an overdue
remote lease closes its connection.  Inline work is bounded by the
payload's own timeouts (e.g. ``AutoProver.timeout_seconds``).

Faults (DESIGN.md §12): retries follow a
:class:`~repro.exec.retry.RetryPolicy` with deterministic jitter; a
payload that still raises propagates (``on_error='raise'``) or is
recorded ``errored``.  Every member of a lost unit is blamed once and
re-run *solo*; ``QUARANTINE_AFTER`` blames quarantine an obligation as
``crashed``.  An unusable backend raises :class:`BackendUnusableError`
or, under ``on_backend_failure='degrade'``, falls back along
remote→process→serial, recording a ``degraded`` event.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait as _fut_wait,
)
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from . import events as ev
from .cache import default_cache
from .config import BACKENDS, ExecConfig
from .obligation import Obligation
from .payload import BatchPayload
from .retry import RetryPolicy
from .telemetry import default_telemetry

__all__ = ["ObligationOutcome", "ObligationScheduler", "BACKENDS",
           "BackendUnusableError"]

#: Fallback taken by ``on_backend_failure='degrade'`` when a backend is
#: unusable; ``serial`` has no fallback -- it cannot fail to exist.
DEGRADE_CHAIN = {"remote": "process", "process": "serial"}

OK = "ok"
CACHED = "cached"
TIMED_OUT = "timed_out"
ERRORED = "errored"
SKIPPED = "skipped"
CRASHED = "crashed"

#: Lost-unit blames after which an obligation is quarantined.
QUARANTINE_AFTER = 2


@dataclass
class ObligationOutcome:
    obligation: Obligation
    status: str          # ok | cached | timed_out | errored | skipped | crashed
    value: object = None
    wall_seconds: float = 0.0
    attempts: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in (OK, CACHED)


class BackendUnusableError(RuntimeError):
    """The selected execution backend cannot make progress at all --
    distinct from any single obligation failing.  Raised to the caller
    under ``on_backend_failure='raise'``; consumed by the degradation
    chain under ``on_backend_failure='degrade'``."""

    def __init__(self, backend: str, reason: str):
        super().__init__(f"backend {backend!r} unusable: {reason}")
        self.backend = backend
        self.reason = reason


class _HardTimeout(BaseException):
    """Worker-side: the per-obligation SIGALRM fired.  A BaseException so
    no ``except Exception`` inside a discharge can swallow it."""


def _run_payload(index: int, payload, retry_policy: RetryPolicy,
                 token: str) -> tuple:
    """Run one payload through the attempt/retry loop every backend
    shares.

    Returns ``(index, status, wire_value, wall, attempts, retry_errors,
    exception-or-None)``; ``status`` is ``'ok'``, ``'timed_out'`` (a
    worker's alarm fired, retries and backoff sleeps included) or
    ``'errored'``.  ``token`` feeds the deterministic jitter.
    """
    started = time.perf_counter()
    attempts = 0
    retry_errors: List[str] = []

    def result(status, wire=None, exc=None) -> tuple:
        return (index, status, wire, time.perf_counter() - started,
                attempts, tuple(retry_errors), exc)

    try:
        while True:
            attempts += 1
            try:
                return result("ok", payload.encode_result(payload.run()))
            except Exception as exc:   # noqa: BLE001 - boundary by design
                if attempts > retry_policy.retries:
                    return result("errored",
                                  f"{type(exc).__name__}: {exc}", exc)
                retry_errors.append(str(exc))
                pause = retry_policy.delay(attempts, token)
                if pause:
                    time.sleep(pause)
    except _HardTimeout:
        return result("timed_out")


def _process_worker(index: int, payload, retry_policy: RetryPolicy,
                    timeout_seconds: Optional[float], token: str) -> tuple:
    """Execute one obligation payload in a worker: :func:`_run_payload`
    under a ``SIGALRM`` timer of ``timeout_seconds``.  The result tuple
    is plain picklable data (an exception ships only if it pickles)."""
    alarmed = False
    if timeout_seconds and hasattr(signal, "SIGALRM"):
        def _on_alarm(signum, frame):
            raise _HardTimeout()

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_seconds)
        alarmed = True
    try:
        result = _run_payload(index, payload, retry_policy, token)
    finally:
        if alarmed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    if result[6] is not None:
        try:
            pickle.dumps(result[6])
        except Exception:   # noqa: BLE001 - anything may fail to pickle
            result = result[:6] + (None,)
    return result


def _batch_worker(batch, retry_policy: RetryPolicy,
                  timeout_seconds: Optional[float]) -> tuple:
    """Execute one :class:`~repro.exec.payload.BatchPayload`, the only
    dispatch unit, in a worker: each entry runs through
    :func:`_process_worker` (own alarm, retries and jitter per entry).
    One result tuple per entry."""
    return tuple(
        _process_worker(index, payload, retry_policy, timeout_seconds,
                        token)
        for index, payload, token, _key in batch.entries)


def _batch_of(obligations, indices):
    return BatchPayload(tuple((i, obligations[i].payload,
                               obligations[i].label,
                               obligations[i].cache_key) for i in indices))


class _BatchSizer:
    """Marginal-size meter for one forming batch (DESIGN.md §18).

    One shared pickler keeps its memo across items, so an object an
    admitted sibling already ships (a package AST, a theory) costs a
    back-reference -- exactly the sharing the real batch blob gets.
    ``measure`` returns None for an unpicklable payload (it ships solo,
    keeping the submission path's loud failure) and resets the meter,
    whose memo the failed dump may have corrupted.
    """

    __slots__ = ("_buf", "_pickler")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._buf = io.BytesIO()
        self._pickler = pickle.Pickler(self._buf,
                                       protocol=pickle.HIGHEST_PROTOCOL)

    @property
    def total(self) -> int:
        return self._buf.tell()

    def measure(self, payload) -> Optional[int]:
        before = self._buf.tell()
        try:
            self._pickler.dump(payload)
        except Exception:   # noqa: BLE001 - unpicklable payloads ship solo
            self.reset()
            return None
        return self._buf.tell() - before


class _Unit:
    """A shipped dispatch unit: members, send time, members still out,
    and their summed execution walls."""

    __slots__ = ("members", "sent", "live", "busy")

    def __init__(self, members: tuple):
        self.members = members
        self.sent = time.perf_counter()
        self.live = len(members)
        self.busy = 0.0


# -- transports: the backend-specific half of a parallel run ----------------
#
#   start()              acquire workers (may raise BackendUnusableError)
#   capacity             max units in flight, or None for unbounded
#   ship(members, avoid) send one unit; False when it cannot go now
#   poll(idle)           wait; returns ("result", index, result_tuple,
#                        worker, served) | ("lost", indices, scope, what) |
#                        ("timed_out", indices) | ("failed", indices, exc)
#   close()              release workers

class _ProcessTransport:
    """Units go to a ``ProcessPoolExecutor``.  A dead worker breaks the
    whole pool: a loss blames everything in flight and the pool is
    respawned.  Also owns the fallback deadline and the barren-crash
    limit."""

    capacity = None

    def __init__(self, sched: "ObligationScheduler", obligations):
        self.sched = sched
        self.obligations = obligations
        self.pool: Optional[ProcessPoolExecutor] = None
        #: Future -> (members, fallback deadline)
        self.futures: Dict[object, tuple] = {}
        self.broken: Optional[BaseException] = None
        self.barren = 0
        self.abandoned = False
        timeout = sched.timeout_seconds
        self.fallback = None if timeout is None \
            else timeout * 1.5 + sched.TIMEOUT_FALLBACK_SLACK

    def start(self) -> None:
        self.pool = self.sched._spawn_pool()

    def ship(self, members: tuple, avoid) -> bool:
        if self.broken is not None:
            return False
        sched = self.sched
        try:
            future = self.pool.submit(
                _batch_worker, _batch_of(self.obligations, members),
                sched.retry_policy, sched.timeout_seconds)
        except BrokenExecutor as exc:
            self.broken = exc   # never ran: requeued unblamed
            return False
        # SIGALRM bounds each member, so a batch's worst legitimate case
        # is the sum of the per-item budgets.
        deadline = None if self.fallback is None \
            else time.perf_counter() + self.fallback * len(members)
        self.futures[future] = (members, deadline)
        return True

    def poll(self, idle: bool) -> list:
        if self.broken is not None:
            return self._recover(self.broken)
        deadlines = [d for _, d in self.futures.values() if d is not None]
        wait_for = max(0.0, min(deadlines) - time.perf_counter()) \
            if deadlines else None
        done, _ = _fut_wait(set(self.futures), timeout=wait_for,
                            return_when=FIRST_COMPLETED)
        events = []
        now = time.perf_counter()
        for future, (members, deadline) in list(self.futures.items()):
            if future not in done and deadline is not None \
                    and deadline <= now:
                del self.futures[future]
                self.abandoned = True
                events.append(("timed_out", members))
        broken = None
        for future in done:
            if future not in self.futures:
                continue
            members = self.futures[future][0]
            try:
                raw = future.result()
            except BrokenExecutor as exc:
                broken = exc   # poisons every in-flight future: recover
                continue
            except Exception as exc:   # noqa: BLE001 - e.g. unpicklable
                del self.futures[future]
                events.append(("failed", members, exc))
                continue
            del self.futures[future]
            self.barren = 0
            for result in raw:
                events.append(("result", result[0], result, None, None))
        if broken is not None:
            events.extend(self._recover(broken))
        return events

    def _recover(self, cause: BaseException) -> list:
        """Blame everything in flight and respawn the pool."""
        if self.futures:
            self.barren = 0
        else:
            self.barren += 1
            if self.barren >= self.sched.BARREN_CRASH_LIMIT:
                raise BackendUnusableError(
                    "process", f"worker pool keeps dying with nothing in "
                               f"flight ({cause})")
        lost = [i for members, _ in self.futures.values() for i in members]
        self.futures.clear()
        self.broken = None
        try:
            self.pool.shutdown(wait=False, cancel_futures=True)
        except Exception:   # noqa: BLE001 - broken pools may misbehave
            pass
        self.pool = self.sched._spawn_pool()
        what = f"worker died ({type(cause).__name__})"
        return [("lost", lost, None, what)] if lost else []

    def close(self) -> None:
        if self.pool is None:
            return
        if self.abandoned:
            self.sched.telemetry.record(
                ev.WORKER_ABANDONED, "exec", "backend:process",
                detail="unresponsive worker process abandoned at pool "
                       "shutdown")
        # Wait unless an unresponsive worker would block shutdown forever.
        self.pool.shutdown(wait=not self.abandoned, cancel_futures=True)


class _RemoteTransport:
    """Units are leased to socket-connected workers through a
    :class:`~repro.exec.remote.coordinator.RemoteCoordinator`.  A dead
    connection (crash, kill -9, network drop, expired lease) blames
    exactly that worker's leases; their solo re-runs avoid it.  ``jobs``
    caps the leases in flight across the farm."""

    def __init__(self, sched: "ObligationScheduler", obligations):
        from .remote.coordinator import RemoteCoordinator
        self.sched = sched
        self.obligations = obligations
        self.capacity = sched.jobs
        # The shared cache tier: workers ask for a key before computing;
        # the lookup runs against this scheduler's own cache, re-encoded
        # to the obligation's wire form.
        by_key: Dict[str, Obligation] = {}
        for ob in obligations:
            if ob.cache_key is not None:
                by_key.setdefault(ob.cache_key, ob)

        def cache_lookup(key):
            ob = by_key.get(key)
            if ob is None:
                return None
            hit, value = sched.cache.get(key, decode=ob.decode)
            if not hit:
                return None
            try:
                return ob.encode(value) if ob.encode is not None \
                    else ob.payload.encode_result(value)
            except Exception:   # noqa: BLE001 - a cache miss, not a fault
                return None

        # Explicit lease_timeout_seconds wins; otherwise a worker's
        # REMOTE_PER_WORKER_INFLIGHT leases, each SIGALRM-bounded, plus
        # slack; with neither, leases never expire.
        lease_timeout = sched.lease_timeout_seconds
        if lease_timeout is None and sched.timeout_seconds is not None:
            lease_timeout = (sched.REMOTE_PER_WORKER_INFLIGHT
                             * sched.timeout_seconds * 1.5
                             + sched.TIMEOUT_FALLBACK_SLACK)
        shared = sched.remote_shared_cache and sched.cache is not None
        self.coordinator = RemoteCoordinator(
            listen=sched.remote_listen, dial=sched.remote_workers,
            cache_lookup=cache_lookup if shared else None,
            lease_timeout=lease_timeout,
            per_worker=sched.REMOTE_PER_WORKER_INFLIGHT)

    def start(self) -> None:
        try:
            self.coordinator.start()
        except OSError as exc:
            raise BackendUnusableError(
                "remote", f"cannot start coordinator: {exc}")
        self.sched.remote_bound_address = self.coordinator.bound_address
        self._await_worker("no workers joined")

    def _await_worker(self, why: str) -> None:
        grace = self.sched.REMOTE_WORKER_GRACE
        if not self.coordinator.wait_for_workers(1, grace):
            raise BackendUnusableError("remote", f"{why} within {grace}s")

    def ship(self, members: tuple, avoid) -> bool:
        sched = self.sched
        return self.coordinator.lease(
            members, _batch_of(self.obligations, members),
            sched.retry_policy, sched.timeout_seconds,
            avoid=avoid) is not None

    def poll(self, idle: bool) -> list:
        if idle and self.coordinator.live_workers() == 0:
            self._await_worker("every worker was lost or quarantined and "
                               "no replacement joined")
            return []
        event = self.coordinator.poll(timeout=0.25)
        if event is None or event[0] == "joined":
            return []
        if event[0] == "result":
            return [event]
        if event[0] == "lost":
            _, name, indices, reason = event
            return [("lost", indices, name, f"worker {name} lost ({reason})")]
        _, name, reason = event   # a flapping host was quarantined
        self.sched.telemetry.record(ev.QUARANTINED, "exec",
                                    f"worker:{name}", detail=reason)
        return []

    def close(self) -> None:
        self.coordinator.stop()


_TRANSPORTS = {"process": _ProcessTransport, "remote": _RemoteTransport}


class ObligationScheduler:
    #: (Re)spawn attempts granted to the process pool.
    POOL_SPAWN_ATTEMPTS = 2
    #: Consecutive pool breaks with *nothing in flight* (workers dying
    #: before executing anything) after which the backend is unusable.
    BARREN_CRASH_LIMIT = 2
    #: Parent-side slack (seconds) on top of the per-obligation timeout
    #: before an unresponsive worker is abandoned.
    TIMEOUT_FALLBACK_SLACK = 5.0
    #: Seconds the remote backend waits for a worker to join (at start-up
    #: and after losing every worker) before it is unusable.
    REMOTE_WORKER_GRACE = 10.0
    #: Leases one remote worker may hold: 2 keeps one unit queued behind
    #: the one executing, hiding the coordinator's dispatch latency.
    REMOTE_PER_WORKER_INFLIGHT = 2

    def __init__(self, jobs: Optional[int] = None, **options):
        """``jobs=None`` selects ``os.cpu_count()``; every other keyword
        is an :class:`~repro.exec.config.ExecConfig` field, validated
        there (``ValueError`` on a bad value)."""
        config = ExecConfig(jobs=jobs, **options)
        self.jobs = config.jobs or os.cpu_count() or 1
        self.backend = config.backend
        #: ``cache=None`` selects the process default; ``cache=False``
        #: disables caching outright.
        self.cache = default_cache() if config.cache is None \
            else None if config.cache is False else config.cache
        self.telemetry = config.telemetry if config.telemetry is not None \
            else default_telemetry()
        self.timeout_seconds = config.timeout_seconds
        self.retry_policy: RetryPolicy = config.retries
        self.on_error = config.on_error
        self.on_backend_failure = config.on_backend_failure
        self.remote_workers = config.remote_workers
        self.remote_listen = config.remote_listen
        self.lease_timeout_seconds = config.lease_timeout_seconds
        self.remote_shared_cache = config.remote_shared_cache
        self.batch_size = config.batch_size
        self.batch_bytes_cap = config.batch_bytes_cap
        #: The coordinator's bound "host:port" once a remote run with
        #: ``remote_listen`` has started (port 0 resolved); workers dial it.
        self.remote_bound_address: Optional[str] = None

    # -- public -------------------------------------------------------------

    def run(self, obligations: Sequence[Obligation],
            stop_on: Optional[Callable[[ObligationOutcome], bool]] = None
            ) -> List[ObligationOutcome]:
        """Execute all obligations; results in input order.

        ``stop_on(outcome)`` returning True stops scheduling further
        obligations (remaining ones come back ``skipped``), e.g. a
        differential check stopping at the first counterexample.  When
        the backend degrades (``on_backend_failure='degrade'``), outcomes
        already reached stay final and only the unfinished obligations
        re-run on the fallback backend.
        """
        obligations = list(obligations)
        outcomes: List[Optional[ObligationOutcome]] = [None] * len(obligations)
        for ob in obligations:
            self.telemetry.record(ev.SUBMITTED, ob.kind, ob.label)
        backend = self.backend
        # The remote backend is exempt from the small-batch serial
        # shortcut: even one obligation ships to a worker host (that is
        # the point of a farm -- the parent may be a thin coordinator).
        if backend == "process" and (self.jobs == 1 or len(obligations) <= 1):
            backend = "serial"
        while True:
            try:
                if backend == "serial":
                    self._run_serial(obligations, stop_on, outcomes)
                else:
                    self._dispatch(_TRANSPORTS[backend](self, obligations),
                                   obligations, stop_on, outcomes)
                break
            except BackendUnusableError as exc:
                fallback = DEGRADE_CHAIN.get(backend)
                if self.on_backend_failure != "degrade" or fallback is None:
                    raise
                self.telemetry.record(ev.DEGRADED, "exec",
                                      f"{backend}->{fallback}",
                                      detail=exc.reason)
                backend = fallback
        for i, ob in enumerate(obligations):
            if outcomes[i] is None:
                self.telemetry.record(ev.SKIPPED, ob.kind, ob.label)
                outcomes[i] = ObligationOutcome(obligation=ob, status=SKIPPED)
        return outcomes  # type: ignore[return-value]

    # -- serial path --------------------------------------------------------

    def _run_serial(self, obligations, stop_on, outcomes) -> None:
        for i, ob in enumerate(obligations):
            if outcomes[i] is not None:
                continue
            outcome = self._execute(ob)
            if outcome.status == ERRORED and self.on_error == "raise":
                raise outcome._exception    # type: ignore[attr-defined]
            outcomes[i] = outcome
            if stop_on is not None and stop_on(outcome):
                return    # the unfilled tail is skipped by run()

    # -- parallel path ------------------------------------------------------

    def _spawn_pool(self) -> ProcessPoolExecutor:
        last: Optional[BaseException] = None
        for _ in range(self.POOL_SPAWN_ATTEMPTS):
            try:
                return ProcessPoolExecutor(max_workers=self.jobs)
            except Exception as exc:   # noqa: BLE001 - backend boundary
                last = exc
        raise BackendUnusableError(
            "process", f"cannot (re)spawn worker pool: {last}")

    def _dispatch(self, transport, obligations, stop_on, outcomes) -> None:
        """The one dispatcher of the parallel backends.

        An obligation becomes ready once its group predecessor has a
        terminal outcome.  A ready obligation settles on the parent on a
        cache hit or joins a dispatch unit
        (:meth:`_units`).  Every member of a lost unit is blamed once --
        the parent cannot tell which member killed the worker -- and
        re-runs solo, one in flight at a time, so a second loss assigns
        guilt precisely: the killer is quarantined, bystanders finish,
        and total losses stay below ``QUARANTINE_AFTER * len(obligations)``.
        Each shipped unit records one ``dispatched`` event when its last
        member settles -- returned, lost or abandoned alike.
        """
        remaining = [i for i, o in enumerate(outcomes) if o is None]
        if not remaining:
            return
        ready: deque = deque()
        successors: Dict[int, List[int]] = {}
        last_in_group: Dict[str, int] = {}
        for i in remaining:
            group = obligations[i].group
            if group in last_in_group:
                successors.setdefault(last_in_group[group], []).append(i)
            else:
                ready.append(i)
            if group is not None:
                last_in_group[group] = i
        formed: deque = deque()     # units formed, waiting for capacity
        suspects: deque = deque()   # blamed, re-run solo
        blame: Dict[int, int] = {}
        blamed_on: Dict[int, str] = {}      # index -> scope that lost it
        in_flight: Dict[int, _Unit] = {}
        live: Dict[_Unit, None] = {}        # shipped units, in ship order
        finished = 0
        stopped = False
        raise_exc: Optional[BaseException] = None

        def halted() -> bool:
            return stopped or raise_exc is not None

        def finalize(index: int, outcome: ObligationOutcome) -> None:
            nonlocal finished, stopped, raise_exc
            outcomes[index] = outcome
            finished += 1
            ready.extend(successors.get(index, ()))
            if outcome.status == ERRORED and self.on_error == "raise" \
                    and raise_exc is None:
                raise_exc = getattr(
                    outcome, "_exception",
                    RuntimeError(outcome.error or "obligation errored"))
            if stop_on is not None and not stopped and stop_on(outcome):
                stopped = True

        def settle_local(index: int) -> bool:
            outcome = self._cached(obligations[index])
            if outcome is None:
                return False
            finalize(index, outcome)
            return True

        def ship(members: tuple) -> bool:
            if transport.capacity is not None \
                    and len(live) >= transport.capacity:
                return False
            avoid = {blamed_on[i] for i in members if i in blamed_on}
            if not transport.ship(members, avoid):
                return False
            unit = _Unit(members)
            live[unit] = None
            for i in members:
                self.telemetry.record(ev.STARTED, obligations[i].kind,
                                      obligations[i].label)
                in_flight[i] = unit
            return True

        def flush() -> None:
            while formed and not halted() and ship(formed[0]):
                formed.popleft()

        def pump() -> None:
            while not halted():
                if suspects:
                    # Nothing else may fly until each suspect has been
                    # re-tried alone.
                    if in_flight:
                        return
                    if settle_local(suspects[0]):
                        suspects.popleft()
                        continue
                    if ship((suspects[0],)):
                        suspects.popleft()
                    return
                if not ready:
                    flush()
                    return
                for unit in self._units(ready, obligations, settle_local,
                                        halted):
                    formed.append(unit)
                    flush()

        def unit_settled(unit: _Unit) -> None:
            del live[unit]
            items = len(unit.members)
            # Dispatch overhead: round trip minus the members' execution.
            self.telemetry.record(
                ev.DISPATCHED, "exec", f"dispatch[{items}]",
                wall=max(0.0, time.perf_counter() - unit.sent - unit.busy),
                detail=f"items={items}", items=items)

        def settle(index: int, wall: float = 0.0) -> None:
            unit = in_flight.pop(index)
            unit.live -= 1
            unit.busy += wall
            if not unit.live:
                unit_settled(unit)

        try:
            transport.start()
            while finished < len(remaining):
                pump()
                if finished >= len(remaining) or raise_exc is not None:
                    break
                if not in_flight and (stopped or not (formed or suspects)):
                    break   # stopped: the tail is skipped by run()
                for event in transport.poll(not in_flight):
                    kind = event[0]
                    if kind == "result":
                        _, index, result, worker, served = event
                        if index in in_flight:   # else stale: requeued
                            settle(index, result[3])
                            finalize(index, self._land(
                                obligations[index], result, worker, served,
                                index in blame))
                        continue
                    for index in event[1]:
                        if index not in in_flight:
                            continue
                        settle(index)
                        ob = obligations[index]
                        if kind == "lost":
                            scope, what = event[2], event[3]
                            count = blame[index] = blame.get(index, 0) + 1
                            if scope is not None:
                                blamed_on[index] = scope
                            self.telemetry.record(
                                ev.CRASHED, ob.kind, ob.label,
                                detail=f"{what}; blame "
                                       f"{count}/{QUARANTINE_AFTER}")
                            if count < QUARANTINE_AFTER:
                                suspects.append(index)
                                continue
                            self.telemetry.record(
                                ev.QUARANTINED, ob.kind, ob.label,
                                detail=f"lost a worker {count} times")
                            outcome = ObligationOutcome(
                                obligation=ob, status=CRASHED,
                                attempts=count,
                                error=f"obligation lost a worker {count} "
                                      f"times ({what}); quarantined")
                        elif kind == "timed_out":
                            wall = self.timeout_seconds or 0.0
                            self.telemetry.record(ev.TIMED_OUT, ob.kind,
                                                  ob.label, wall=wall)
                            outcome = ObligationOutcome(
                                obligation=ob, status=TIMED_OUT,
                                wall_seconds=wall,
                                error=f"no result within "
                                      f"{self.timeout_seconds}s (worker "
                                      f"unresponsive)")
                        else:
                            outcome = self._errored(ob, event[2])
                        finalize(index, outcome)
            if raise_exc is not None:
                raise raise_exc
        finally:
            for unit in list(live):
                unit_settled(unit)   # still out when the run aborted
            transport.close()

    def _units(self, ready: deque, obligations, settle_local, halted):
        """Drain the ready queue into dispatch units (DESIGN.md §18):
        units of at most ``min(batch_size, ceil(len(ready) / jobs))``
        small payloads, so a burst spreads over ``jobs`` workers, admitted
        by *marginal* pickled size (:class:`_BatchSizer`) so large VCs
        ship alone.  Composition depends on the queue's order, ``jobs``
        and the batching knobs only; transport capacity decides *when* a
        unit ships, never what it holds."""
        chunk = min(self.batch_size, -(-len(ready) // self.jobs))
        join_cap = max(1, self.batch_bytes_cap // self.batch_size)
        sizer = _BatchSizer()
        pending: List[int] = []
        while ready and not halted():
            index = ready.popleft()
            if settle_local(index):
                continue
            if chunk == 1:
                yield (index,)
                continue
            if pending and (len(pending) >= chunk
                            or sizer.total >= self.batch_bytes_cap):
                yield tuple(pending)
                pending = []
                sizer.reset()
            payload = obligations[index].payload
            size = sizer.measure(payload)
            if size is not None and pending and size > join_cap:
                # Too big to join: flush, then let the item re-open a
                # fresh batch where its measured size includes the
                # objects its former batchmates would have shared.
                yield tuple(pending)
                pending = []
                sizer.reset()
                size = sizer.measure(payload)
            if size is None:
                # Unpicklable: ship solo so the submission path's loud
                # failure is preserved.
                yield (index,)
                continue
            pending.append(index)
        if pending:
            yield tuple(pending)

    # -- one obligation -----------------------------------------------------

    def _errored(self, ob: Obligation, exc: BaseException,
                 error: Optional[str] = None, wall: float = 0.0,
                 attempts: int = 0) -> ObligationOutcome:
        """An ``errored`` outcome carrying ``exc`` for ``on_error='raise'``;
        ``error`` defaults to ``"ExcType: message"``."""
        self.telemetry.record(ev.ERRORED, ob.kind, ob.label, wall=wall,
                              detail=error or str(exc))
        outcome = ObligationOutcome(
            obligation=ob, status=ERRORED, wall_seconds=wall,
            attempts=attempts,
            error=error or f"{type(exc).__name__}: {exc}")
        outcome._exception = exc   # type: ignore[attr-defined]
        return outcome

    def _cached(self, ob: Obligation) -> Optional[ObligationOutcome]:
        """The cached outcome of ``ob``, or None on a miss (or no key)."""
        if ob.cache_key is None or self.cache is None:
            return None
        started = time.perf_counter()
        hit, value = self.cache.get(ob.cache_key, decode=ob.decode)
        if not hit:
            return None
        wall = time.perf_counter() - started
        self.telemetry.record(ev.CACHED, ob.kind, ob.label, wall=wall)
        return ObligationOutcome(obligation=ob, status=CACHED, value=value,
                                 wall_seconds=wall)

    def _finished(self, ob: Obligation, value, wall: float, attempts: int,
                  where: str = "", recovered: str = "") -> ObligationOutcome:
        """Record a computed result, cache it, and wrap it up."""
        keyed = ob.cache_key is not None and self.cache is not None
        self.telemetry.record(
            ev.FINISHED, ob.kind, ob.label, wall=wall,
            detail=" ".join(filter(None, (where, "keyed" if keyed else ""))))
        if attempts > 1 or recovered:
            self.telemetry.record(
                ev.RETRIED_OK, ob.kind, ob.label,
                detail=f"succeeded on attempt {attempts}{recovered}")
        if keyed:
            self.cache.put(ob.cache_key, value, encode=ob.encode)
        return ObligationOutcome(obligation=ob, status=OK, value=value,
                                 wall_seconds=wall, attempts=attempts)

    def _land(self, ob: Obligation, result: tuple, worker: Optional[str],
              served: Optional[str], blamed: bool) -> ObligationOutcome:
        """Turn one result tuple (see :func:`_run_payload`) into an
        outcome, decoding the value and recording telemetry."""
        _, status, wire, wall, attempts, retry_errors, exc_obj = result
        for message in retry_errors:
            self.telemetry.record(ev.RETRIED, ob.kind, ob.label,
                                  detail=message)
        if status == "ok":
            try:
                value = ob.decode(wire) if ob.decode is not None else wire
            except Exception as exc:   # noqa: BLE001 - bad wire data
                source = f" from {worker}" if worker else ""
                return self._errored(
                    ob, exc, f"undecodable result{source}: {exc}")
            return self._finished(
                ob, value, wall, attempts,
                where=f"worker={worker} served={served}" if worker else "",
                recovered=", after a lost worker" if blamed else "")
        if status == "timed_out":
            self.telemetry.record(ev.TIMED_OUT, ob.kind, ob.label, wall=wall)
            return ObligationOutcome(
                obligation=ob, status=TIMED_OUT, wall_seconds=wall,
                attempts=attempts,
                error=f"hard timeout after {self.timeout_seconds}s"
                      + (f" on {worker}" if worker else ""))
        return self._errored(
            ob, exc_obj if exc_obj is not None else RuntimeError(str(wire)),
            str(wire), wall=wall, attempts=attempts)

    def _execute(self, ob: Obligation) -> ObligationOutcome:
        """Run one obligation inline: the serial backend."""
        cached = self._cached(ob)
        if cached is not None:
            return cached
        self.telemetry.record(ev.STARTED, ob.kind, ob.label)
        return self._land(ob, _run_payload(0, ob.payload, self.retry_policy,
                                           ob.label), None, None, False)
