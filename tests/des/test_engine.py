"""Tests for the discrete-event core: clock, heap, processes, signals."""

import pytest

from repro.des import Engine, Signal, Timeout, Until
from repro.errors import DesError


class TestTimeout:
    def test_negative_rejected(self):
        with pytest.raises(DesError):
            Timeout(-1.0)

    def test_zero_allowed(self):
        assert Timeout(0.0).seconds == 0.0


class TestUntil:
    def test_resumes_at_the_absolute_time(self):
        engine = Engine()
        woke = []

        def proc():
            yield Timeout(0.1)
            yield Until(0.4)
            woke.append(engine.now)

        engine.process(proc())
        engine.run()
        assert woke == [0.4]

    def test_past_time_rejected(self):
        engine = Engine()

        def proc():
            yield Timeout(1.0)
            yield Until(0.5)

        engine.process(proc())
        with pytest.raises(DesError):
            engine.run()


class TestEngine:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(3.0, fired.append, "c")
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(2.0, fired.append, "b")
        assert engine.run() == 3.0
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        engine = Engine()
        fired = []
        for tag in "abcde":
            engine.schedule(1.0, fired.append, tag)
        engine.run()
        assert fired == list("abcde")

    def test_negative_delay_rejected(self):
        with pytest.raises(DesError):
            Engine().schedule(-0.1, lambda _: None)

    def test_run_until_stops_the_clock(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, fired.append, "early")
        engine.schedule(5.0, fired.append, "late")
        assert engine.run(until=2.0) == 2.0
        assert fired == ["early"]
        # The remaining event is still there; draining finishes it.
        assert engine.run() == 5.0
        assert fired == ["early", "late"]

    def test_events_processed_counted(self):
        engine = Engine()
        for _ in range(4):
            engine.schedule(1.0, lambda _: None)
        engine.run()
        assert engine.events_processed == 4

    def test_determinism_identical_event_orders(self):
        """Two engines fed the same process structure replay identically."""

        def build():
            engine = Engine()
            order = []

            def worker(tag, delay):
                yield Timeout(delay)
                order.append((tag, engine.now))
                yield Timeout(delay)
                order.append((tag, engine.now))

            for tag in range(8):
                engine.process(worker(tag, 0.5 + (tag % 3) * 0.25))
            engine.run()
            return order, engine.events_processed

        first, n1 = build()
        second, n2 = build()
        assert first == second
        assert n1 == n2


class TestSignal:
    def test_fire_resumes_waiter_with_value(self):
        engine = Engine()
        signal = engine.signal()
        got = []

        def waiter():
            got.append((yield signal))

        def firer():
            yield Timeout(2.0)
            signal.fire("payload")

        engine.process(waiter())
        engine.process(firer())
        engine.run()
        assert got == ["payload"]

    def test_waiting_on_fired_signal_resumes_immediately(self):
        engine = Engine()
        signal = engine.signal()
        signal.fire(42)
        times = []

        def late_waiter():
            yield Timeout(1.0)
            value = yield signal
            times.append((engine.now, value))

        engine.process(late_waiter())
        engine.run()
        assert times == [(1.0, 42)]

    def test_double_fire_rejected(self):
        signal = Engine().signal()
        signal.fire()
        with pytest.raises(DesError):
            signal.fire()


class TestProcess:
    def test_done_fires_with_return_value(self):
        engine = Engine()

        def job():
            yield Timeout(1.5)
            return "result"

        process = engine.process(job())
        engine.run()
        assert not process.alive
        assert process.done.fired
        assert process.done.value == "result"

    def test_yielding_garbage_rejected(self):
        engine = Engine()

        def bad():
            yield "not a request"

        engine.process(bad())
        with pytest.raises(DesError):
            engine.run()

    def test_process_chaining_via_done(self):
        engine = Engine()
        finishes = []

        def first():
            yield Timeout(2.0)
            return "first done"

        def second(prior):
            value = yield prior.done
            finishes.append((value, engine.now))

        p = engine.process(first())
        engine.process(second(p))
        engine.run()
        assert finishes == [("first done", 2.0)]
