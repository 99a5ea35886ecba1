"""Unit tests for processes, signals and combinators."""

import pytest

from repro.simkernel import AllOf, ProcessError, Signal, Simulator, Timeout


class TestProcessBasics:
    def test_process_advances_through_timeouts(self):
        sim = Simulator()
        trace = []

        def worker():
            trace.append(("start", sim.now))
            yield Timeout(2.0)
            trace.append(("mid", sim.now))
            yield Timeout(3.0)
            trace.append(("end", sim.now))
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert trace == [("start", 0.0), ("mid", 2.0), ("end", 5.0)]
        assert proc.done
        assert proc.result == "done"
        assert proc.error is None

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected_at_construction(self, bad):
        # ``nan < 0`` is false: these used to pass the constructor and fail
        # one step later, inside the resume of whichever process yielded them.
        with pytest.raises(ValueError, match=f"Timeout delay must be a finite number >= 0, got {bad!r}"):
            Timeout(bad)

    def test_yielding_non_waitable_is_type_error(self):
        sim = Simulator()

        def bad():
            yield 42

        proc = sim.process(bad())
        with pytest.raises(ProcessError):
            sim.run()
        assert isinstance(proc.error, TypeError)

    def test_process_waits_on_child_process(self):
        sim = Simulator()
        order = []

        def child():
            yield Timeout(5.0)
            order.append("child")
            return 99

        def parent():
            value = yield sim.process(child())
            order.append(("parent", value, sim.now))

        sim.process(parent())
        sim.run()
        assert order == ["child", ("parent", 99, 5.0)]

    def test_child_error_raised_in_parent(self):
        sim = Simulator()
        caught = []

        def child():
            yield Timeout(1.0)
            raise RuntimeError("child failed")

        def parent():
            try:
                yield sim.process(child())
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(parent())
        sim.run()
        assert caught == ["child failed"]

    def test_waiting_on_finished_process_resumes_immediately(self):
        sim = Simulator()

        def child():
            return 7
            yield  # pragma: no cover - makes this a generator

        def parent():
            proc = sim.process(child())
            yield Timeout(10.0)
            assert proc.done
            value = yield proc
            return value

        parent_proc = sim.process(parent())
        sim.run()
        assert parent_proc.result == 7
        assert sim.now == 10.0


class TestSignals:
    def test_fire_wakes_waiters_with_value(self):
        sim = Simulator()
        signal = Signal("data-ready")
        got = []

        def waiter(tag):
            value = yield signal
            got.append((tag, value, sim.now))

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.schedule(3.0, signal.fire, {"k": 1})
        sim.run()
        assert got == [("a", {"k": 1}, 3.0), ("b", {"k": 1}, 3.0)]

    def test_wait_on_already_fired_signal(self):
        sim = Simulator()
        signal = Signal(name="s")
        signal.fire("early")
        got = []

        def waiter():
            value = yield signal
            got.append(value)

        sim.process(waiter())
        sim.run()
        assert got == ["early"]

    def test_double_fire_is_error(self):
        signal = Signal(name="s")
        signal.fire()
        with pytest.raises(RuntimeError):
            signal.fire()

    def test_fail_raises_in_waiter(self):
        sim = Simulator()
        signal = Signal(name="s")
        caught = []

        def waiter():
            try:
                yield signal
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        sim.schedule(1.0, signal.fail, ValueError("no"))
        sim.run()
        assert caught == ["no"]


class TestCombinators:
    def test_all_of_collects_in_input_order(self):
        sim = Simulator()
        result = []

        def slow():
            yield Timeout(5.0)
            return "slow"

        def fast():
            yield Timeout(1.0)
            return "fast"

        def parent():
            values = yield AllOf([sim.process(slow()), sim.process(fast())])
            result.append((values, sim.now))

        sim.process(parent())
        sim.run()
        assert result == [(["slow", "fast"], 5.0)]

    def test_all_of_empty_resolves_immediately(self):
        sim = Simulator()
        seen = []

        def parent():
            values = yield AllOf([])
            seen.append(values)

        sim.process(parent())
        sim.run()
        assert seen == [[]]

    def test_all_of_propagates_first_error(self):
        sim = Simulator()
        caught = []

        def ok():
            yield Timeout(10.0)

        def bad():
            yield Timeout(1.0)
            raise KeyError("broken")

        def parent():
            try:
                yield AllOf([sim.process(ok()), sim.process(bad())])
            except KeyError:
                caught.append(sim.now)

        sim.process(parent())
        sim.run()
        assert caught == [1.0]
