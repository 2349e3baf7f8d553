"""The discrete-event simulation environment (clock + event queue).

:class:`Environment` owns the simulation clock (microseconds, ``float``) and
a binary-heap event queue.  Determinism: ties at equal ``(time, priority)``
are broken by a monotonically increasing sequence number, so two runs with
the same seed replay identically.

Two scheduling APIs share the one heap (see docs/ARCHITECTURE.md, "Two
scheduling APIs"):

* **Processes** — generators yielding :class:`Event` objects.  Expressive
  (conditions, error propagation); one object per occurrence.
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

Every entry leaves the heap in one place, :meth:`Environment.advance`;
:meth:`Environment.run` finds or builds its stop event and calls it.
Drivers step a run in budgeted ``advance`` slices or drain it with one
``run()`` and see the same timeline: state changes a run needs at a given
moment (a scenario's workload launch and quiesce) ride the heap as event
callbacks, not as driver code between slices.

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
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple, Union

from ..errors import SimulationError
from .events import AllOf, AnyOf, Event, NORMAL, Timeout, URGENT
from .process import Process

Infinity = float("inf")

_heappush = heapq.heappush
_heappop = heapq.heappop


def _process_event(event: Event) -> None:
    """Uniform-dispatch shim: process one triggered :class:`Event`.

    Runs the event's callbacks and re-raises unhandled failures.
    """
    callbacks = event.callbacks
    if callbacks is None:  # pragma: no cover - defensive
        raise SimulationError(f"{event!r} processed twice")
    event.callbacks = None
    for callback in callbacks:
        callback(event)
    if not event._ok and not event._defused:
        # An unhandled failure (e.g. a process crashed and nobody was
        # waiting on it) aborts the simulation loudly rather than being
        # silently dropped.
        raise event._value


class Environment:
    """Execution environment for a single simulation run."""

    __slots__ = ("now", "_queue", "_seq")

    def __init__(self, initial_time: float = 0.0) -> None:
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Callable[[Any], None], Any]] = []
        # A plain int, not itertools.count: hot schedule sites (``Link.send``)
        # take a sequence number inline.
        self._seq = 0

    # -- clock & introspection -----------------------------------------------
    # ``now`` is a plain data attribute, not a property: the clock is read on
    # every hot-path callback across every layer, and a slot read is the
    # cheapest access Python offers.  Treat it as read-only outside the run
    # loop.

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

    def advance(
        self,
        max_events: Optional[int] = None,
        until_time: Optional[float] = None,
        stop: Optional[Event] = None,
    ) -> int:
        """Process up to ``max_events`` heap entries, none scheduled after
        ``until_time``, halting immediately after ``stop`` is processed.
        Returns the number of entries run.

        This is the engine's only dispatch loop: :meth:`run` is a thin
        wrapper around it, and the service control plane multiplexes
        sessions on budgeted slices of it.  Each entry is one pop, a clock
        set and ``fn(arg)``, so a sequence of ``advance`` calls replays
        bit-identically to one uninterrupted :meth:`run` — the budget
        boundaries are invisible to the simulation.  An exhausted budget simply returns; the queue stays
        resumable, also after a callback raises.  Nothing is registered on
        ``stop`` (the loop polls :attr:`Event.processed`), so a budgeted
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
            * a number — run until the clock reaches that (finite) time.
            * an :class:`Event` — run until that event is processed and
              return its value (raising if it failed).
        """
        if until is None:
            stop: Optional[Event] = None
        elif isinstance(until, Event):
            stop = until
        else:
            at = float(until)
            if not self.now <= at < Infinity:
                if not math.isfinite(at):
                    raise SimulationError(f"until must be finite (got {at!r})")
                raise SimulationError(f"until={at} lies in the past (now={self.now})")
            stop = Event(self)
            stop._ok = True
            stop._value = None
            # URGENT: fire before any NORMAL event at the same timestamp.
            seq = self._seq
            self._seq = seq + 1
            _heappush(self._queue, (at, URGENT, seq, _process_event, stop))

        if stop is None:
            self.advance()
            return None
        if stop.callbacks is not None:
            self.advance(stop=stop)
            if stop.callbacks is not None:
                raise SimulationError("run(until=event) finished but the event never triggered")
        if stop._ok:
            return stop._value
        raise stop._value

    # -- factories -------------------------------------------------------------
    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires after ``delay`` microseconds."""
        if not 0.0 <= delay < Infinity:
            raise self._bad_delay(delay)
        # Built inline: the same object and heap entry as ``Timeout(self,
        # delay, value)`` without its three nested Python calls, which cost
        # about a third of the generator microbenchmark's throughput.
        t = Timeout.__new__(Timeout)
        t.env = self
        t.callbacks = []
        t._value = value
        t._ok = True
        t._defused = False
        t.delay = delay
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self.now + delay, NORMAL, seq, _process_event, t))
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
