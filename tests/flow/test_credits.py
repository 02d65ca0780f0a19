"""Credit-based backpressure: window mechanics and end-to-end bounding."""

from __future__ import annotations

from repro.flow.config import FlowConfig
from repro.flow.credits import CreditLedger, CreditWindow
from repro.net.address import AddressSemantic, ObjectAddress
from repro.security.environment import CallEnvironment
from repro.trace.recorder import SpanRecorder
from tests.core.conftest import EchoImpl, start_object

# ----------------------------------------------------------------- unit level


def test_window_grants_until_empty_then_parks_waiters():
    window = CreditWindow(2)
    assert window.try_acquire() is None
    assert window.try_acquire() is None
    assert not window.headroom
    first = window.try_acquire()
    second = window.try_acquire()
    assert first is not None and not first.done()
    assert second is not None and not second.done()
    # A release hands the credit straight to the oldest waiter (FIFO).
    window.release()
    assert first.done() and not second.done()
    window.release()
    assert second.done()
    # Waiters consumed the released credits; the pool is still empty.
    assert window.available == 0


def test_release_never_overfills_the_window():
    window = CreditWindow(3)
    for _ in range(5):
        window.release()
    assert window.available == 3
    assert window.try_acquire() is None
    assert window.available == 2


def test_release_works_as_future_done_callback():
    window = CreditWindow(1)
    assert window.try_acquire() is None
    waiter = window.try_acquire()
    window.release(object())  # the settled future arg is ignored
    assert waiter.done()


def test_ledger_keys_windows_and_reports_headroom():
    ledger = CreditLedger(1)
    window = ledger.window("loid-1", "host:1")
    assert window is ledger.window("loid-1", "host:1")
    assert window is not ledger.window("loid-1", "host:2")
    assert ledger.has_headroom("loid-9", "host:9")  # unknown => no debt
    assert ledger.has_headroom("loid-1", "host:1")
    window.try_acquire()
    assert not ledger.has_headroom("loid-1", "host:1")


# ----------------------------------------------------------- integration level


def test_credit_window_bounds_concurrency_end_to_end(services):
    services.flow = FlowConfig(credit_window=2)
    caller = start_object(services, EchoImpl("caller"), host=1)
    callee = start_object(services, EchoImpl("callee"), host=2)
    caller.runtime.seed_binding(callee.binding())
    callee.runtime.seed_binding(caller.binding())
    kernel = services.kernel
    futs = [
        kernel.spawn(caller.runtime.invoke(callee.loid, "Slow", 2.0))
        for _ in range(6)
    ]
    peak = [0]

    def sample():
        peak[0] = max(peak[0], callee.in_flight)
        if not all(f.done() for f in futs):
            kernel.post(0.25, sample)

    kernel.post(0.25, sample)
    kernel.run()
    assert all(f.exception() is None for f in futs)
    # Two credits per (identity, element): never more than 2 dispatched.
    assert peak[0] == 2
    # Six sends against two credits: exactly four had to park first.
    assert caller.runtime.stats.credit_waits == 4
    assert caller.runtime.stats.requests_sent == 6
    assert caller.runtime.stats.replies_received == 6


def test_timeouts_release_credits_so_traffic_resumes(services):
    services.flow = FlowConfig(credit_window=1)
    caller = start_object(services, EchoImpl("caller"), host=1)
    callee = start_object(services, EchoImpl("callee"), host=2)
    caller.runtime.seed_binding(callee.binding())
    callee.runtime.seed_binding(caller.binding())
    kernel = services.kernel
    # A call that times out client-side while the server still grinds.
    slow = kernel.spawn(
        caller.runtime.invoke(callee.loid, "Slow", 50.0, timeout=5.0)
    )
    quick_holder = []
    kernel.post(
        1.0,
        lambda: quick_holder.append(
            kernel.spawn(caller.runtime.invoke(callee.loid, "Echo", "next"))
        ),
    )
    kernel.run(until=40.0)
    (quick,) = quick_holder
    assert slow.done() and slow.exception() is not None
    # The timeout settled the wire future, which released the credit: the
    # second call went through instead of deadlocking on a lost credit.
    assert quick.done() and quick.result() == "callee:next"
    assert caller.runtime.stats.credit_waits == 1


def test_fan_out_parks_on_an_exhausted_window_and_records_the_wait(services):
    services.flow = FlowConfig(credit_window=1)
    recorder = services.tracer = SpanRecorder(services.kernel)
    caller = start_object(services, EchoImpl("caller"), host=1)
    replicas = [start_object(services, EchoImpl(f"r{i}"), host=2 + i) for i in range(2)]
    group = ObjectAddress(
        elements=tuple(r.element for r in replicas), semantic=AddressSemantic.ALL
    )
    target = replicas[0].loid
    env = CallEnvironment.originating(caller.loid)
    kernel = services.kernel
    # One slow call holds the only credit toward the first replica...
    slow = kernel.spawn(
        caller.runtime.call_element(replicas[0].element, target, "Slow", (5.0,), env)
    )
    kernel.run(until=1.0)
    # ...so the fan-out's first leg has to wait for it, like any other send.
    fan_out = kernel.spawn(
        caller.runtime.call_address(group, target, "Echo", ("x",), env)
    )
    assert sorted(kernel.run_until_complete(fan_out)) == ["r0:x", "r1:x"]
    assert slow.done()
    assert caller.runtime.stats.credit_waits == 1
    waits = [s for s in recorder.spans if s.kind == "credit"]
    assert [s.name for s in waits] == ["credit-wait Echo"]
    assert waits[0].annotations == {"window": 1}
