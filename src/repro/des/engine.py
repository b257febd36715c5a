"""Discrete-event core: event heap, simulated clock, process primitives.

The engine is deliberately minimal and fully deterministic: a binary
heap of ``(time, sequence)``-ordered callbacks, a simulated clock that
only moves when events fire, and generator-based processes that yield
:class:`Timeout` and :class:`Signal` requests.  There is **no**
wall-clock access and **no** randomness anywhere in the loop -- two
runs of the same schedule produce bit-identical event orders, which
``tests/des/test_engine.py`` asserts.

This is the substrate the rank actors (:mod:`repro.des.rank`) and
resource models (:mod:`repro.des.resources`) run on; nothing in this
module knows about MPI, gates or networks.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.errors import DesError

__all__ = ["Timeout", "Until", "Signal", "Process", "Engine"]


class Timeout:
    """Yieldable request: resume the process after a simulated delay."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        if seconds < 0:
            raise DesError(f"timeout must be >= 0, got {seconds}")
        self.seconds = seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.seconds!r})"


class Until:
    """Yieldable request: resume the process at an absolute simulated time.

    For a process that has already worked out its wake-up instant by the
    clock arithmetic a run of :class:`Timeout` waits would have done:
    ``Timeout(t - now)`` lands on ``now + (t - now)``, which can differ
    from ``t`` in the last bit.
    """

    __slots__ = ("time",)

    def __init__(self, time: float):
        self.time = time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Until({self.time!r})"


class Signal:
    """A one-shot event processes can wait on.

    Waiting on an already-fired signal resumes immediately (same
    simulated instant, deterministic order).  Firing twice is an error:
    one-shot semantics keep rendezvous logic honest.
    """

    __slots__ = ("_engine", "fired", "value", "_waiters")

    def __init__(self, engine: "Engine"):
        self._engine = engine
        self.fired = False
        self.value = None
        self._waiters: list[Process] = []

    def fire(self, value=None) -> None:
        """Mark the signal done and resume every waiter at the current time."""
        if self.fired:
            raise DesError("signal fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self._engine.schedule(0.0, process._advance, value)

    def _add_waiter(self, process: "Process") -> None:
        self._waiters.append(process)


class Process:
    """A generator coroutine driven by the engine.

    The generator may yield :class:`Timeout`, :class:`Until` or
    :class:`Signal` instances; anything else is a programming error.
    When it returns, ``done`` fires with the generator's return value.
    """

    __slots__ = ("engine", "_gen", "alive", "done")

    def __init__(self, engine: "Engine", gen):
        self.engine = engine
        self._gen = gen
        self.alive = True
        self.done = Signal(engine)
        engine.schedule(0.0, self._advance, None)

    def _advance(self, value=None) -> None:
        while True:
            try:
                request = self._gen.send(value)
            except StopIteration as stop:
                self.alive = False
                self.done.fire(stop.value)
                return
            if isinstance(request, Timeout):
                self.engine.schedule(request.seconds, self._advance, None)
                return
            if isinstance(request, Until):
                self.engine.schedule_at(request.time, self._advance, None)
                return
            if isinstance(request, Signal):
                if request.fired:
                    # Already satisfied: continue inline at the same
                    # simulated instant (no extra heap traffic).
                    value = request.value
                    continue
                request._add_waiter(self)
                return
            raise DesError(
                f"process yielded {request!r}; expected Timeout, Until "
                f"or Signal"
            )


class Engine:
    """The event loop: simulated clock plus a deterministic event heap.

    Ties on time break by scheduling order (a monotonically increasing
    sequence number), so identical inputs replay identically.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, object, object]] = []
        self._seq = 0
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    def schedule(self, delay: float, callback, arg=None) -> None:
        """Run ``callback(arg)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise DesError(f"cannot schedule into the past (delay {delay})")
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, callback, arg))

    def schedule_at(self, time: float, callback, arg=None) -> None:
        """Run ``callback(arg)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise DesError(
                f"cannot schedule into the past (t={time} < now={self._now})"
            )
        self._seq += 1
        heappush(self._heap, (time, self._seq, callback, arg))

    def signal(self) -> Signal:
        """A fresh one-shot signal bound to this engine."""
        return Signal(self)

    def process(self, gen) -> Process:
        """Register a generator as a process; it starts at the current time."""
        return Process(self, gen)

    def run(self, until: float | None = None) -> float:
        """Drain the heap (optionally stopping at ``until``); returns the clock."""
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                self._now = until
                return self._now
            time, _, callback, arg = heappop(heap)
            if time < self._now:
                raise DesError("event heap went backwards in time")
            self._now = time
            self.events_processed += 1
            callback(arg)
        return self._now
