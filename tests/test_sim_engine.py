"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.future import Future, FutureError, all_of
from repro.sim.process import Process, ProcessError
from repro.sim.timebase import MS, US, ns_to_ms, ns_to_s, ns_to_us
from repro.sim.timerwheel import LEVEL_SHIFTS, LEVEL_SPAN


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run_until_idle()
        assert order == ["a", "b", "c"]
        assert sim.now == 30

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(10, order.append, tag)
        sim.run_until_idle()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.at(50, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, fired.append, 1)
        event.cancel()
        sim.run_until_idle()
        assert fired == []
        assert not event.pending

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=500)
        assert sim.now == 500

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1000, fired.append, 1)
        sim.run(until=500)
        assert fired == []
        sim.run_until_idle()
        assert fired == [1]

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(sim.now)
            sim.schedule(5, inner)

        def inner():
            seen.append(sim.now)

        sim.schedule(10, outer)
        sim.run_until_idle()
        assert seen == [10, 15]

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        stamps = []
        sim.schedule(7, lambda: sim.call_soon(lambda: stamps.append(sim.now)))
        sim.run_until_idle()
        assert stamps == [7]

    def test_events_fired_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1, lambda: None)
        sim.run_until_idle()
        assert sim.events_fired == 4

    def test_runaway_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(1, rearm)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_determinism_same_seed(self):
        def run(seed):
            sim = Simulator(seed=seed)
            values = []
            for _ in range(10):
                sim.schedule(sim.uniform_ns(1, 100),
                             lambda: values.append(sim.now))
            sim.run_until_idle()
            return values

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestRandomHelpers:
    def test_uniform_bounds(self):
        sim = Simulator(seed=1)
        for _ in range(100):
            value = sim.uniform_ns(10, 20)
            assert 10 <= value <= 20

    def test_uniform_empty_range_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.uniform_ns(20, 10)

    def test_jitter_stays_positive_and_near_base(self):
        sim = Simulator(seed=2)
        for _ in range(100):
            value = sim.jitter(1000, 0.1)
            assert 900 <= value <= 1100

    def test_jitter_zero_fraction_identity(self):
        sim = Simulator()
        assert sim.jitter(1234, 0.0) == 1234


class TestTimebase:
    def test_conversions(self):
        assert ns_to_us(1500) == 1.5
        assert ns_to_ms(2 * MS) == 2.0
        assert ns_to_s(3_000 * MS) == 3.0
        assert 5 * US == 5_000


class TestFuture:
    def test_resolve_and_result(self):
        future = Future("x")
        future.resolve(42)
        assert future.done
        assert future.result == 42

    def test_result_before_resolution_raises(self):
        future = Future()
        with pytest.raises(FutureError):
            _ = future.result

    def test_double_resolution_raises(self):
        future = Future()
        future.resolve(1)
        with pytest.raises(FutureError):
            future.resolve(2)

    def test_callback_after_resolution_runs_immediately(self):
        future = Future()
        future.resolve("v")
        seen = []
        future.add_callback(lambda f: seen.append(f.result))
        assert seen == ["v"]

    def test_fail_propagates_exception(self):
        future = Future()
        future.fail(ValueError("boom"))
        with pytest.raises(ValueError):
            _ = future.result

    def test_all_of_waits_for_everything(self):
        futures = [Future(str(i)) for i in range(3)]
        agg = all_of(futures)
        futures[0].resolve(0)
        futures[2].resolve(2)
        assert not agg.done
        futures[1].resolve(1)
        assert agg.done
        assert agg.result == [0, 1, 2]

    def test_all_of_empty_resolves_immediately(self):
        agg = all_of([])
        assert agg.done
        assert agg.result == []

    def test_all_of_failure(self):
        futures = [Future(), Future()]
        agg = all_of(futures)
        futures[0].fail(RuntimeError("x"))
        futures[1].resolve(1)
        assert agg.done
        assert isinstance(agg.exception, RuntimeError)

    def test_all_of_already_failed_inputs_first_in_input_order_wins(self):
        first, second = Future(), Future()
        second.fail(KeyError("second"))
        first.fail(ValueError("first"))
        agg = all_of([first, second])
        assert agg.done
        assert isinstance(agg.exception, ValueError)

    def test_all_of_failure_after_successes(self):
        futures = [Future() for _ in range(4)]
        agg = all_of(futures)
        futures[0].resolve(0)
        futures[1].resolve(1)
        assert not agg.done
        futures[2].fail(RuntimeError("late"))
        assert agg.done
        assert isinstance(agg.exception, RuntimeError)

    def test_all_of_ignores_resolutions_after_failure(self):
        futures = [Future() for _ in range(3)]
        agg = all_of(futures)
        futures[1].fail(ValueError("boom"))
        futures[0].resolve(0)
        futures[2].fail(KeyError("later"))
        assert isinstance(agg.exception, ValueError)

    def test_all_of_all_already_resolved(self):
        futures = [Future() for _ in range(3)]
        for i, future in enumerate(futures):
            future.resolve(i * 10)
        agg = all_of(futures)
        assert agg.done
        assert agg.result == [0, 10, 20]

    def test_all_of_same_future_twice_fills_both_slots(self):
        shared, other = Future(), Future()
        agg = all_of([shared, other, shared])
        other.resolve("o")
        assert not agg.done
        shared.resolve("s")
        assert agg.done
        assert agg.result == ["s", "o", "s"]

    def test_all_of_work_is_linear_in_inputs(self, monkeypatch):
        """Resolving N inputs one by one reads ``done``/``exception`` a
        small constant number of times per input, not O(N) each."""
        reads = [0]

        def counted(name):
            def get(future):
                reads[0] += 1
                return getattr(future, name)
            return property(get)
        monkeypatch.setattr(Future, "done", counted("_done"))
        monkeypatch.setattr(Future, "exception", counted("_exception"))
        n = 4000
        futures = [Future() for _ in range(n)]
        agg = all_of(futures)
        for i, future in enumerate(futures):
            future.resolve(i)
        assert agg.result == list(range(n))
        assert reads[0] <= 4 * n


class TestProcess:
    def test_sleep_and_return(self):
        sim = Simulator()

        def worker():
            yield 100
            yield 200
            return "done"

        proc = Process(sim, worker())
        sim.run_until_idle()
        assert proc.done
        assert proc.result == "done"
        assert sim.now == 300

    def test_wait_on_future_receives_value(self):
        sim = Simulator()
        gate = Future()

        def worker():
            value = yield gate
            return value * 2

        proc = Process(sim, worker())
        sim.schedule(50, gate.resolve, 21)
        sim.run_until_idle()
        assert proc.result == 42

    def test_wait_on_other_process(self):
        sim = Simulator()

        def child():
            yield 10
            return "child-done"

        def parent():
            result = yield Process(sim, child())
            return result

        proc = Process(sim, parent())
        sim.run_until_idle()
        assert proc.result == "child-done"

    def test_exception_captured(self):
        sim = Simulator()

        def worker():
            yield 10
            raise ValueError("inner")

        proc = Process(sim, worker())
        sim.run_until_idle()
        assert proc.done
        with pytest.raises(ValueError):
            _ = proc.result

    def test_bad_yield_raises_process_error(self):
        sim = Simulator()

        def worker():
            yield "not-a-delay"

        proc = Process(sim, worker())
        sim.run_until_idle()
        with pytest.raises(ProcessError):
            _ = proc.result

    def test_failed_future_propagates_into_generator(self):
        sim = Simulator()
        gate = Future()
        caught = []

        def worker():
            try:
                yield gate
            except RuntimeError as exc:
                caught.append(str(exc))
            return "recovered"

        proc = Process(sim, worker())
        sim.schedule(5, gate.fail, RuntimeError("bad"))
        sim.run_until_idle()
        assert proc.result == "recovered"
        assert caught == ["bad"]

    def test_failed_future_uncaught_fails_process(self):
        sim = Simulator()
        gate = Future()

        def worker():
            yield gate  # no try/except: the failure must surface

        proc = Process(sim, worker())
        sim.schedule(5, gate.fail, RuntimeError("unhandled"))
        sim.run_until_idle()
        assert proc.done
        assert isinstance(proc.finished.exception, RuntimeError)
        with pytest.raises(RuntimeError, match="unhandled"):
            _ = proc.result

    def test_failed_child_process_propagates_to_parent(self):
        sim = Simulator()

        def child():
            yield 10
            raise ValueError("child blew up")

        def parent():
            yield Process(sim, child())
            return "unreachable"

        proc = Process(sim, parent())
        sim.run_until_idle()
        assert proc.done
        with pytest.raises(ValueError, match="child blew up"):
            _ = proc.result

    def test_negative_sleep_throws_process_error(self):
        sim = Simulator()
        caught = []

        def worker():
            try:
                yield -5
            except ProcessError as exc:
                caught.append(str(exc))
                return "caught"

        proc = Process(sim, worker())
        sim.run_until_idle()
        assert proc.result == "caught"
        assert "negative sleep" in caught[0]

    def test_negative_sleep_uncaught_fails_process(self):
        sim = Simulator()

        def worker():
            yield -1

        proc = Process(sim, worker())
        sim.run_until_idle()
        assert proc.done
        with pytest.raises(ProcessError):
            _ = proc.result

    def test_throw_handler_raising_new_exception_fails_process(self):
        sim = Simulator()
        gate = Future()

        def worker():
            try:
                yield gate
            except RuntimeError:
                raise KeyError("translated")

        proc = Process(sim, worker())
        sim.schedule(5, gate.fail, RuntimeError("original"))
        sim.run_until_idle()
        assert proc.done
        assert isinstance(proc.finished.exception, KeyError)

    def test_recovered_process_can_keep_yielding(self):
        sim = Simulator()
        gate = Future()

        def worker():
            try:
                yield gate
            except RuntimeError:
                pass
            yield 100  # the throw path must re-dispatch this sleep
            return sim.now

        proc = Process(sim, worker())
        sim.schedule(5, gate.fail, RuntimeError("transient"))
        sim.run_until_idle()
        assert proc.result == 105


class TestTimerWheelBoundaries:
    """Slot-edge and cascade behavior of the hierarchical wheel's
    read-only probes (``earliest_until`` / ``events_until``).

    The fleet fast-forward trusts these probes to classify a quiet
    window exactly: an event reported one slot early or late would let a
    sweep absorb a round that a foreign tick should have interrupted.
    """

    SLOT = 1 << LEVEL_SHIFTS[0]

    def test_exact_slot_boundary(self):
        """A timer at exactly ``k << 16`` sits on a slot edge: the probe
        must report by expiry time, not slot membership."""
        sim = Simulator()
        expiry = 4 * self.SLOT
        sim.schedule_timer(expiry, lambda: None)
        wheel = sim._wheel
        assert wheel.earliest_until(expiry - 1) is None
        assert wheel.earliest_until(expiry) == expiry
        assert wheel.events_until(expiry - 1) == []
        assert [e.time for e in wheel.events_until(expiry)] == [expiry]

    def test_adjacent_slots(self):
        """Timers one tick apart across a slot edge resolve
        independently."""
        sim = Simulator()
        below = 7 * self.SLOT - 1
        above = 7 * self.SLOT
        sim.schedule_timer(below, lambda: None)
        sim.schedule_timer(above, lambda: None)
        wheel = sim._wheel
        assert wheel.earliest_until(below) == below
        assert [e.time for e in wheel.events_until(below)] == [below]
        assert sorted(e.time for e in wheel.events_until(above)) \
            == [below, above]

    def test_limit_inside_occupied_slot(self):
        """A limit that lands mid-slot must not surface a later timer
        filed in the same slot."""
        sim = Simulator()
        expiry = 9 * self.SLOT + 1000
        sim.schedule_timer(expiry, lambda: None)
        wheel = sim._wheel
        assert wheel.earliest_until(expiry - 1) is None
        assert wheel.events_until(9 * self.SLOT + 999) == []
        assert wheel.earliest_until(expiry) == expiry

    def test_coarse_level_reports_exact_expiry(self):
        """An event beyond level 0's span files coarsely, but the probes
        still answer with its exact expiry, not its slot start."""
        sim = Simulator()
        expiry = (LEVEL_SPAN + 10) * self.SLOT + 12345
        sim.schedule_timer(expiry, lambda: None)
        wheel = sim._wheel
        # Filed above level 0: no level-0 slot holds it.
        assert not wheel._slots[0]
        assert wheel._slots[1]
        assert wheel.earliest_until(expiry - 1) is None
        assert wheel.earliest_until(expiry) == expiry
        assert [e.time for e in wheel.events_until(expiry)] == [expiry]

    def test_probes_exact_across_cascade(self):
        """``promote_until`` re-files a coarse slot into a finer level
        when the limit passes the slot's start but not the expiry; the
        probes and the firing time must be unchanged by the cascade."""
        sim = Simulator()
        expiry = (LEVEL_SPAN + 10) * self.SLOT + 777
        fired = []
        sim.schedule_timer(expiry, lambda: fired.append(sim.now))
        wheel = sim._wheel
        assert wheel._slots[1] and not wheel._slots[0]
        promoted = []
        # Past the level-1 slot's start, short of the expiry: the event
        # must cascade to level 0, not surface to the heap.
        wheel.promote_until((LEVEL_SPAN + 2) * self.SLOT,
                            promoted.append)
        assert promoted == []
        assert wheel._slots[0] and not wheel._slots[1]
        assert wheel.earliest_until(expiry - 1) is None
        assert wheel.earliest_until(expiry) == expiry
        assert [e.time for e in wheel.events_until(expiry)] == [expiry]
        sim.run_until_idle()
        assert fired == [expiry]

    def test_live_surface_exact_while_clock_advances(self):
        """The engine may migrate wheel timers to the heap as the clock
        advances; the combined ``live_events_until`` surface (what the
        storm coalescer's quiet-window proofs read) must stay exact
        through every stride."""
        sim = Simulator()
        expiry = (LEVEL_SPAN + 10) * self.SLOT + 777
        fired = []
        sim.schedule_timer(expiry, lambda: fired.append(sim.now))
        stride = (LEVEL_SPAN - 1) * self.SLOT
        now = 0
        while now + stride < expiry:
            now += stride
            sim.run(until=now)
            assert sim.live_events_until(expiry - 1) == []
            assert [e.time for e in sim.live_events_until(expiry)] \
                == [expiry]
        sim.run_until_idle()
        assert fired == [expiry]

    def test_cancelled_timer_invisible_after_cascade(self):
        """A cancelled coarse timer is dropped by the cascade, not
        re-filed; a live timer in a later coarse slot is untouched."""
        sim = Simulator()
        expiry = (LEVEL_SPAN + 4) * self.SLOT
        fired = []
        event = sim.schedule_timer(expiry, lambda: fired.append(True))
        keep = 2 * expiry
        sim.schedule_timer(keep, lambda: None)
        event.cancel()
        wheel = sim._wheel
        assert wheel.earliest_until(expiry) is None
        promoted = []
        wheel.promote_until((LEVEL_SPAN + 8) * self.SLOT,
                            promoted.append)
        assert promoted == []
        assert wheel.earliest_until(expiry) is None
        assert wheel.events_until(expiry) == []
        assert wheel.earliest_until(keep) == keep
        sim.run_until_idle()
        assert fired == []

    def test_jitter_matches_documented_stream(self):
        """``Simulator.jitter`` docstring: same stream consumption as
        ``rng.randint(-spread, spread)`` — pinned here."""
        import random as _random
        for seed in (0, 3, 50):
            sim = Simulator(seed=seed)
            reference = _random.Random(seed)
            for base in (1000, 54321, 999_983):
                spread = int(base * 0.1)
                expected = max(0, base + reference.randint(-spread,
                                                           spread))
                assert sim.jitter(base, 0.1) == expected
