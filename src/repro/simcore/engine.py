"""The discrete-event simulation environment (clock + event queue).

:class:`Environment` owns the simulation clock (microseconds, ``float``) and
a binary-heap event queue.  Determinism: ties at equal ``(time, priority)``
are broken by a monotonically increasing sequence number, so two runs with
the same seed replay identically.

Two scheduling APIs share the one heap (see docs/ARCHITECTURE.md, "Two
scheduling APIs"):

* **Processes** — generators yielding :class:`Event` objects.  Expressive
  (interrupts, conditions, error propagation); one object per occurrence.
  Use for the cold control plane: connect/handshake, recovery, experiment
  orchestration.
* **Plain callbacks** — :meth:`Environment.call_later` /
  :meth:`Environment.call_at` enqueue a bare ``fn(arg)`` with no Event, no
  callback list, no generator frame.  Use on per-packet/per-command hot
  paths.

Both entry kinds are 5-tuples ``(time, priority, seq, fn, arg)`` and are
dispatched identically (``fn(arg)``; events ride with ``fn`` set to the
event processor), so callbacks and events interleave with exactly the same
``(time, priority, seq)`` tie-breaking — the fast path cannot perturb replay
order.

Batched scheduling (see docs/ARCHITECTURE.md, "Batched dispatch"):
:meth:`Environment.call_later_batch` schedules ``fn(arg)`` for a whole list
of args at one timestamp as a *single* heap entry that reserves a
contiguous run of sequence numbers — one heap push and one heap pop per
batch instead of per item, while replaying bit-identically to the
equivalent loop of ``call_later`` calls.  The run loop additionally drains
runs of same-timestamp entries into a reusable list and dispatches them
without re-entering the heap, falling back to heap order the moment a
dispatched callback schedules something that must sort earlier.

Typical usage::

    env = Environment()

    def hello(env):
        yield env.timeout(5.0)
        return env.now

    proc = env.process(hello(env))
    env.run()
    assert proc.value == 5.0
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import SimulationError, StopSimulation
from .events import AllOf, AnyOf, Event, NORMAL, Timeout, URGENT
from .process import Process

Infinity = float("inf")

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Cap on pooled Timeout objects kept for reuse (bounds memory after bursts).
_POOL_LIMIT = 1024

_RESUME = Process._resume  # the one callback whose events are pool-safe


def _process_event(event: Event) -> None:
    """Uniform-dispatch shim: process one triggered :class:`Event`.

    Runs the event's callbacks, re-raises unhandled failures, and recycles
    pool-managed timeouts whose sole consumer was a process resume (the only
    case where no live reference can observe the object afterwards — a
    condition or a second waiter would appear as an extra callback).
    """
    callbacks = event.callbacks
    if callbacks is None:  # pragma: no cover - defensive
        raise SimulationError(f"{event!r} processed twice")
    event.callbacks = None
    if len(callbacks) == 1:
        # Single consumer — the overwhelmingly common case on hot paths.
        callback = callbacks[0]
        callback(event)
        if event._ok:
            if event._pooled:
                try:
                    is_resume = callback.__func__ is _RESUME
                except AttributeError:
                    is_resume = False
                if is_resume:
                    event._value = None
                    pool = event.env._timeout_pool
                    if len(pool) < _POOL_LIMIT:
                        callbacks.clear()
                        event._spare = callbacks
                        pool.append(event)
            return
    else:
        for callback in callbacks:
            callback(event)
        if event._ok:
            return
    if not event._defused:
        # An unhandled failure (e.g. a process crashed and nobody was
        # waiting on it) aborts the simulation loudly rather than being
        # silently dropped.
        raise event._value


class Environment:
    """Execution environment for a single simulation run."""

    __slots__ = ("now", "_queue", "_seq", "_active_proc", "_timeout_pool", "_batch")

    def __init__(self, initial_time: float = 0.0) -> None:
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Callable[[Any], None], Any]] = []
        # A plain int, not itertools.count: a batch reserves a contiguous
        # run of sequence numbers with one addition instead of len(batch)
        # next() calls.
        self._seq = 0
        self._active_proc: Optional[Process] = None
        #: Free list of recycled :class:`Timeout` objects (see ``timeout()``).
        self._timeout_pool: List[Timeout] = []
        #: Reusable same-timestamp drain list for the run loop (never
        #: reallocated; cleared between drains).
        self._batch: List[Tuple[float, int, int, Callable[[Any], None], Any]] = []

    # -- clock & introspection -----------------------------------------------
    # ``now`` is a plain data attribute, not a property: the clock is read on
    # every hot-path callback across every layer, and a slot read is the
    # cheapest access Python offers.  Treat it as read-only outside the run
    # loop.

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (if any)."""
        return self._active_proc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when the queue is empty."""
        return self._queue[0][0] if self._queue else Infinity

    def __len__(self) -> int:
        return len(self._queue)

    # -- scheduling -----------------------------------------------------------
    def _bad_delay(self, delay: float) -> SimulationError:
        if isinstance(delay, (int, float)) and not math.isfinite(delay):
            return SimulationError(
                f"delay must be finite (got {delay!r}); NaN/inf would corrupt "
                f"heap ordering"
            )
        return SimulationError(f"cannot schedule into the past (delay={delay!r})")

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Enqueue ``event`` for processing at ``now + delay``."""
        if not 0.0 <= delay < Infinity:  # rejects negatives, NaN and inf alike
            raise self._bad_delay(delay)
        seq = self._seq
        self._seq = seq + 1
        _heappush(
            self._queue,
            (self.now + delay, priority, seq, _process_event, event),
        )

    def call_later(
        self,
        delay: float,
        fn: Callable[[Any], None],
        arg: Any = None,
        priority: int = NORMAL,
    ) -> None:
        """Schedule ``fn(arg)`` at ``now + delay`` — the zero-allocation path.

        No :class:`Event` is created: the callback rides directly on the heap
        with the same ``(time, priority, seq)`` tie-breaking as events, so
        replacing an Event-per-completion call site with ``call_later`` at
        the same program point preserves replay order bit-for-bit.  The
        callback cannot be cancelled; use a token/deadline re-check in ``fn``
        for restartable timers (see ``net.tcp._RestartableTimer``).
        """
        if not 0.0 <= delay < Infinity:
            raise self._bad_delay(delay)
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self.now + delay, priority, seq, fn, arg))

    def call_at(
        self,
        t: float,
        fn: Callable[[Any], None],
        arg: Any = None,
        priority: int = NORMAL,
    ) -> None:
        """Schedule ``fn(arg)`` at absolute time ``t`` (must be >= now, finite)."""
        if not self.now <= t < Infinity:  # rejects the past, NaN and inf alike
            if isinstance(t, (int, float)) and not math.isfinite(t):
                raise SimulationError(f"call_at time must be finite (got {t!r})")
            raise SimulationError(f"call_at time {t!r} lies in the past (now={self.now})")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (t, priority, seq, fn, arg))

    def call_later_batch(
        self,
        delay: float,
        fn: Callable[[Any], None],
        args: Sequence[Any],
        priority: int = NORMAL,
    ) -> None:
        """Schedule ``fn(arg)`` for every ``arg`` in ``args`` at ``now + delay``.

        Semantically identical to ``for arg in args: call_later(delay, fn,
        arg)`` — the batch reserves the same contiguous run of sequence
        numbers, so replay order is bit-for-bit the same — but it costs one
        heap entry and one heap operation for the whole batch instead of
        one per item.  Use it where a hot layer completes or emits many
        items at one timestamp (device channel batches, coalesced windows,
        telemetry flushes).

        The engine takes ownership of ``args``: callers must not mutate the
        sequence after scheduling.  An empty batch is a no-op (the delay is
        still validated).
        """
        if not 0.0 <= delay < Infinity:
            raise self._bad_delay(delay)
        n = len(args)
        if n == 0:
            return
        seq = self._seq
        self._seq = seq + n
        _heappush(
            self._queue,
            (self.now + delay, priority, seq, self._dispatch_batch, (fn, args, priority, seq)),
        )

    def _dispatch_batch(
        self, token: Tuple[Callable[[Any], None], Sequence[Any], int, int]
    ) -> None:
        """Run one batch entry: ``fn(arg)`` per item, preserving heap order.

        Items dispatch back-to-back with no per-item heap traffic.  The one
        thing that could legally sort *between* two items of the batch is an
        entry scheduled — by one of the batch's own callbacks — at the same
        timestamp with a more urgent priority (same-priority entries always
        carry later sequence numbers, and past timestamps cannot be
        scheduled).  Callbacks only ever push onto the queue, so the guard
        watches ``len(queue)``: while the length is unchanged nothing new
        can preempt, and the common case pays one C-level ``len()`` per
        item.  On preemption the batch's tail is pushed back as a new batch
        entry keyed by the next undispatched item's sequence number, which
        restores exact heap semantics.
        """
        fn, args, priority, seq = token
        queue = self._queue
        now = self.now
        qlen = len(queue)
        i = 0
        try:
            for arg in args:
                if len(queue) != qlen:
                    head = queue[0]
                    if head[0] == now and head[1] < priority:
                        _heappush(
                            queue,
                            (
                                now,
                                priority,
                                seq + i,
                                self._dispatch_batch,
                                (fn, args[i:], priority, seq + i),
                            ),
                        )
                        return
                    qlen = len(queue)
                i += 1
                fn(arg)
        except BaseException:
            # Keep the heap resumable: the undispatched tail goes back as
            # its own batch entry (same contiguous sequence numbers).
            if i < len(args):
                _heappush(
                    queue,
                    (now, priority, seq + i, self._dispatch_batch, (fn, args[i:], priority, seq + i)),
                )
            raise

    def step(self) -> None:
        """Process exactly one entry, advancing the clock to its time."""
        try:
            self.now, _, _, fn, arg = _heappop(self._queue)
        except IndexError:
            raise SimulationError("the event queue is empty") from None
        fn(arg)

    def advance(
        self,
        max_events: Optional[int] = None,
        until_time: Optional[float] = None,
        stop: Optional[Event] = None,
    ) -> int:
        """Budgeted incremental stepping: process up to ``max_events`` heap
        entries, none scheduled after ``until_time``, halting immediately
        after ``stop`` is processed.  Returns the number of entries run.

        This is the non-blocking slice the service control plane multiplexes
        sessions on: each entry dispatches exactly as :meth:`step` would (one
        pop, clock set, ``fn(arg)``), so interleaving ``advance`` calls with
        phase-transition code between them replays bit-identically to one
        uninterrupted :meth:`run` — the budget boundaries are invisible to
        the simulation.  An exhausted budget simply returns; the queue stays
        resumable.  Unlike :meth:`run`, no stop callback is registered on
        ``stop`` — the caller polls :attr:`Event.processed` — so a budgeted
        driver adds zero heap entries and zero sequence numbers.
        """
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be >= 0 (got {max_events!r})")
        if until_time is not None and not self.now <= until_time < Infinity:
            raise SimulationError(
                f"until_time {until_time!r} must be finite and >= now ({self.now!r})"
            )
        queue = self._queue
        n = 0
        while queue:
            if max_events is not None and n >= max_events:
                break
            if until_time is not None and queue[0][0] > until_time:
                break
            self.now, _, _, fn, arg = _heappop(queue)
            fn(arg)
            n += 1
            if stop is not None and stop.callbacks is None:
                break
        return n

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue drains.
            * a number — run until the clock reaches that time.
            * an :class:`Event` — run until that event is processed and
              return its value (raising if it failed).
        """
        if until is None:
            stop: Optional[Event] = None
        elif isinstance(until, Event):
            stop = until
            if stop.callbacks is None:
                return stop.value if stop.ok else self._reraise(stop.value)
            stop.callbacks.append(self._stop_callback)
        else:
            at = float(until)
            if at < self.now:
                raise SimulationError(f"until={at} lies in the past (now={self.now})")
            stop = Event(self)
            stop._ok = True
            stop._value = None
            # URGENT: fire before any NORMAL event at the same timestamp.
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(self._queue, (at, URGENT, seq, _process_event, stop))
            stop.callbacks.append(self._stop_callback)

        # Inlined step() loop: one attribute fetch per run, not per event.
        # Runs of same-timestamp entries are drained into a reusable list
        # and dispatched without re-entering the heap; a per-item guard
        # (cheap tuple compare against the heap head) restores exact heap
        # order the moment a dispatched callback schedules something that
        # must sort earlier — so the drain cannot perturb replay order.
        queue = self._queue
        pop = _heappop
        push = _heappush
        batch = self._batch
        i = n = 0
        try:
            while queue:
                t, _p, _s, fn, arg = pop(queue)
                self.now = t
                fn(arg)
                # Same-timestamp drain only pays off for runs of >= 2
                # entries; a single queued successor (the common chained
                # shape) skips it on one cheap len() check.
                while len(queue) > 1 and queue[0][0] == t:
                    batch.clear()
                    append = batch.append
                    while queue and queue[0][0] == t:
                        append(pop(queue))
                    i = 0
                    n = len(batch)
                    while i < n:
                        e = batch[i]
                        if queue and queue[0] < e:
                            # Return the undispatched tail to the heap and
                            # let the outer loop re-establish order.
                            while n > i:
                                n -= 1
                                push(queue, batch[n])
                            break
                        i += 1
                        e[3](e[4])
        except BaseException as exc:
            # An exception mid-drain (a stop callback, a failed event) must
            # not lose the undispatched tail: the heap has to stay resumable
            # for a later run() call.
            while n > i:
                n -= 1
                push(queue, batch[n])
            batch.clear()
            if isinstance(exc, StopSimulation):
                return exc.args[0]
            raise
        batch.clear()

        if stop is not None and not stop.triggered:
            raise SimulationError("run(until=event) finished but the event never triggered")
        return None

    @staticmethod
    def _reraise(exc: BaseException) -> None:
        raise exc

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        raise event._value

    # -- factories -------------------------------------------------------------
    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires after ``delay`` microseconds.

        Returned objects are **pool-managed**: once the timeout has resumed
        the single process that yielded it, the engine may recycle the object
        for a later ``timeout()`` call.  Keep the yielded *value*, not the
        Timeout object — inspecting a consumed Timeout is undefined.  (Plain
        ``Timeout(env, delay)`` construction opts out of pooling.)
        """
        if not 0.0 <= delay < Infinity:
            raise self._bad_delay(delay)
        pool = self._timeout_pool
        if pool:
            t = pool.pop()
            t.callbacks = t._spare
            t._value = value
            t.delay = delay
        else:
            t = Timeout.__new__(Timeout)
            t.env = self
            t.callbacks = []
            t._value = value
            t._ok = True
            t._defused = False
            t._pooled = True
            t.delay = delay
        seq = self._seq
        self._seq = seq + 1
        _heappush(
            self._queue,
            (self.now + delay, NORMAL, seq, _process_event, t),
        )
        return t

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event over all ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition event over any of ``events``."""
        return AnyOf(self, events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Environment now={self.now} queued={len(self._queue)}>"
