"""Unit tests for generator processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestProcess:
    def test_requires_generator(self, sim):
        def not_a_generator():
            return 42

        with pytest.raises(SimulationError, match="generator"):
            sim.spawn(not_a_generator())

    def test_join_returns_value(self, sim):
        def child():
            yield sim.timeout(2)
            return "child-result"

        def parent():
            value = yield sim.spawn(child())
            return (sim.now, value)

        assert sim.run_process(parent()) == (2, "child-result")

    def test_is_alive(self, sim):
        def child():
            yield sim.timeout(5)

        process = sim.spawn(child())
        assert process.is_alive
        sim.run()
        assert not process.is_alive

    def test_strict_mode_raises_process_exception(self, sim):
        def bad():
            yield sim.timeout(1)
            raise RuntimeError("bug in process")

        sim.spawn(bad())
        with pytest.raises(RuntimeError, match="bug in process"):
            sim.run()

    def test_non_strict_mode_stores_exception(self):
        sim = Simulator(strict=False)

        def bad():
            yield sim.timeout(1)
            raise RuntimeError("stored")

        process = sim.spawn(bad())
        sim.run()
        assert process.triggered and not process.ok

    def test_exception_thrown_into_joiner(self):
        sim = Simulator(strict=False)

        def bad():
            yield sim.timeout(1)
            raise ValueError("inner")

        def parent():
            try:
                yield sim.spawn(bad())
            except ValueError as exc:
                return f"caught {exc}"

        assert sim.run_process(parent()) == "caught inner"

    def test_yield_non_event_rejected(self, sim):
        def bad():
            yield 42

        sim.spawn(bad())
        with pytest.raises(SimulationError, match="yield"):
            sim.run()

    def test_immediate_return(self, sim):
        def instant():
            return "now"
            yield  # pragma: no cover

        assert sim.run_process(instant()) == "now"

    def test_unjoined_finish_leaves_no_calendar_entry(self, sim):
        """A process that ends with nobody joined schedules nothing; a
        later join resumes at once with its value."""
        def child():
            yield sim.timeout(1)
            return "done"

        process = sim.spawn(child())
        sim.run()
        pushed = []
        sim.schedule_observer = lambda event, delay: pushed.append(event)
        assert sim.events_processed == 2  # bootstrap + timeout only
        assert process.triggered and process.value == "done"
        assert process.callbacks is None

        def joiner():
            value = yield process
            return (sim.now, value)

        joined = sim.spawn(joiner())
        sim.run()
        assert joined.value == (1, "done")
        # Only the joiner's bootstrap: the join itself took no entry.
        assert len(pushed) == 1

    def test_joined_finish_still_wakes_joiner_through_calendar(self, sim):
        def child():
            yield sim.timeout(1)
            return 7

        pushed = []
        sim.schedule_observer = lambda event, delay: pushed.append(event)

        def parent():
            return (yield sim.spawn(child()))

        assert sim.run_process(parent()) == 7
        # Two bootstraps, the timeout, and the child's completion event.
        assert len(pushed) == 4
