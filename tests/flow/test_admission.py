"""Admission control: bounded queues, deadline/priority shedding, pushback."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import SystemServices
from repro.core.method import MethodResult
from repro.core.runtime import RetryPolicy
from repro.core.server import ObjectServer
from repro.errors import InvalidArgument, Overloaded
from repro.faults.log import FaultLog
from repro.flow.config import FlowConfig
from repro.metrics.counters import ComponentKind, MetricsRegistry
from repro.naming.loid import LOID
from repro.net.latency import LatencyModel, LinkClass
from repro.net.network import Network
from repro.simkernel.kernel import SimKernel
from repro.simkernel.rng import RngStreams
from tests.core.conftest import EchoImpl, start_object

NO_RETRY = RetryPolicy(max_attempts=1)


def _flow_server(services, impl, host, seq, **flow_kwargs) -> ObjectServer:
    """A server built under its own FlowConfig: the config is installed
    system-wide only while the server is constructed."""
    loid = LOID.for_instance(91, seq, services.secret)
    previous, services.flow = services.flow, FlowConfig(**flow_kwargs)
    try:
        return ObjectServer(services, loid, impl, host=host)
    finally:
        services.flow = previous


def _sheds(services, server) -> int:
    return services.metrics.labelled_counts(MetricsRegistry.SHED).get(
        str(server.component), 0
    )


def _pair(services, **flow_kwargs):
    """(caller, flow-governed callee) with seeded bindings."""
    caller = start_object(services, EchoImpl("caller"), host=1)
    callee = _flow_server(services, EchoImpl("callee"), 2, 901, **flow_kwargs)
    caller.runtime.seed_binding(callee.binding())
    callee.runtime.seed_binding(caller.binding())
    return caller, callee


def test_capacity_overflow_sheds_with_retry_after(services):
    caller, callee = _pair(
        services, capacity=1, queue_limit=0, service_estimate=5.0
    )
    caller.runtime.retry_policy = NO_RETRY
    kernel = services.kernel
    futs = [
        kernel.spawn(caller.runtime.invoke(callee.loid, "Slow", 10.0))
        for _ in range(3)
    ]
    kernel.run()
    settled = [f.exception() for f in futs]
    shed = [e for e in settled if isinstance(e, Overloaded)]
    ok = [f for f in futs if f.exception() is None]
    assert len(ok) == 1 and len(shed) == 2
    for exc in shed:
        assert exc.retry_after >= 5.0  # at least one service estimate
    assert caller.runtime.stats.shed == 2
    assert callee.admission.stats.admitted == 1
    assert callee.admission.stats.shed == {"capacity": 2}
    # Counter vocabulary: admitted work is REQUESTS, shed work is SHED.
    assert services.metrics.get(callee.component) == 1
    assert _sheds(services, callee) == 2


def test_queue_admits_up_to_limit_then_sheds(services):
    caller, callee = _pair(
        services, capacity=1, queue_limit=2, service_estimate=1.0
    )
    caller.runtime.retry_policy = NO_RETRY
    kernel = services.kernel
    futs = [
        kernel.spawn(caller.runtime.invoke(callee.loid, "Slow", 2.0))
        for _ in range(5)
    ]
    kernel.run()
    ok = [f for f in futs if f.exception() is None]
    shed = [f for f in futs if isinstance(f.exception(), Overloaded)]
    # 1 dispatched + 2 queued survive; the other 2 find the queue full.
    assert len(ok) == 3 and len(shed) == 2
    assert callee.admission.stats.queued == 2
    assert callee.admission.stats.shed == {"capacity": 2}


def test_hopeless_deadline_is_shed_on_arrival(services):
    # Caller-side flow config stamps deadlines on invocations.
    services.flow = FlowConfig(
        capacity=1, queue_limit=8, service_estimate=5.0
    )
    caller, callee = _pair(
        services, capacity=1, queue_limit=8, service_estimate=5.0
    )
    caller.runtime.retry_policy = NO_RETRY
    kernel = services.kernel
    # Occupy the only slot far past the second call's deadline.
    blocker = kernel.spawn(caller.runtime.invoke(callee.loid, "Slow", 30.0))
    doomed_holder = []
    kernel.schedule(
        0.5,
        lambda: doomed_holder.append(
            kernel.spawn(
                caller.runtime.invoke(callee.loid, "Echo", "hi", timeout=3.0)
            )
        ),
    )
    kernel.run()
    (doomed,) = doomed_holder
    assert blocker.exception() is None
    exc = doomed.exception()
    assert isinstance(exc, Overloaded)
    assert "deadline" in str(exc)
    assert callee.admission.stats.shed == {"deadline": 1}


def test_full_queue_evicts_worst_priority_waiter(services):
    services.flow = FlowConfig(
        capacity=1, queue_limit=1, service_estimate=1.0
    )
    caller, callee = _pair(
        services, capacity=1, queue_limit=1, service_estimate=1.0
    )
    caller.runtime.retry_policy = NO_RETRY
    kernel = services.kernel
    runtime = caller.runtime
    futs = {}

    def fire(name, method, arg=None, priority=0):
        args = () if arg is None else (arg,)
        futs[name] = kernel.spawn(
            runtime.invoke(callee.loid, method, *args, priority=priority)
        )

    fire("blocker", "Slow", 10.0)
    # Staggered so arrival order at the callee is deterministic.
    kernel.schedule(0.2, fire, "low", "Echo", "low")
    kernel.schedule(0.4, fire, "high", "Echo", "high", 5)
    kernel.run()
    assert futs["blocker"].exception() is None
    exc = futs["low"].exception()
    assert isinstance(exc, Overloaded), "low-priority waiter should be evicted"
    assert futs["high"].result() == "callee:high"
    assert callee.admission.stats.shed == {"evicted": 1}


def test_pushback_paced_retry_succeeds_without_rebinding(services):
    caller, callee = _pair(
        services, capacity=1, queue_limit=0, service_estimate=4.0
    )
    caller.runtime.retry_policy = RetryPolicy(max_attempts=6)
    kernel = services.kernel
    blocker = kernel.spawn(caller.runtime.invoke(callee.loid, "Slow", 6.0))
    echo_holder = []
    kernel.schedule(
        0.5,
        lambda: echo_holder.append(
            kernel.spawn(caller.runtime.invoke(callee.loid, "Echo", "again"))
        ),
    )
    kernel.run()
    (echo,) = echo_holder
    assert blocker.exception() is None
    assert echo.result() == "callee:again"
    stats = caller.runtime.stats
    # Shed replies are flow control, not stale bindings.
    assert stats.shed >= 1
    assert stats.stale_detected == 0
    assert stats.rebinds == 0
    assert stats.refreshes == 0
    # The retry waited out the server's pushback hint: the echo could not
    # land before the blocker's 6ms of service drained.
    assert echo.result() == "callee:again"


ARRIVALS = st.lists(
    st.tuples(
        st.floats(0.0, 20.0),  # arrival time at the caller
        st.integers(-1, 2),  # priority
        st.one_of(st.none(), st.floats(0.5, 30.0)),  # caller deadline
        st.floats(0.1, 8.0),  # service time
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=150)
@given(
    capacity=st.integers(1, 3),
    queue_limit=st.integers(0, 4),
    estimate=st.floats(0.5, 4.0),
    arrivals=ARRIVALS,
)
def test_every_arrival_is_admitted_or_shed_within_the_bounds(
    capacity, queue_limit, estimate, arrivals
):
    """The admission books at every kernel step and at quiescence."""
    kernel = SimKernel()
    rng = RngStreams(7)
    services = SystemServices(
        kernel=kernel,
        network=Network(
            kernel, LatencyModel(base=dict.fromkeys(LinkClass, 1.0)), rng=rng.stream("net")
        ),
        rng=rng,
        metrics=MetricsRegistry(),
    )
    services.fault_log = FaultLog()
    # Caller-side flow config stamps priority and deadline on invocations.
    services.flow = FlowConfig(
        capacity=capacity, queue_limit=queue_limit, service_estimate=estimate
    )
    caller, callee = _pair(
        services, capacity=capacity, queue_limit=queue_limit, service_estimate=estimate
    )
    caller.runtime.retry_policy = NO_RETRY
    # A caller-side timeout invalidates the cached binding; a permanent
    # seed keeps every later call going to the callee all the same.
    caller.runtime.seed_permanent({callee.loid.identity: callee.binding()})

    def fire(priority, timeout, service):
        kernel.spawn(
            caller.runtime.invoke(
                callee.loid, "Slow", service, priority=priority, timeout=timeout
            )
        )

    for at, priority, timeout, service in arrivals:
        kernel.schedule(at, fire, priority, timeout, service)

    admission = callee.admission
    while kernel.step():
        assert admission.backlog == callee.in_flight + len(admission.waiting)
        assert callee.in_flight <= capacity
        assert len(admission.waiting) <= queue_limit
        # Work-conserving: nothing waits beside a free slot.
        assert not admission.waiting or callee.in_flight == capacity

    stats = admission.stats
    shed = sum(stats.shed.values())
    assert admission.backlog == 0
    assert len(arrivals) == stats.admitted + shed
    assert _sheds(services, callee) == shed
    assert services.metrics.get(callee.component) == stats.admitted
    observed = [i for i in services.fault_log.observed if i.kind == "request-shed"]
    assert len(observed) == shed
    assert caller.runtime.settled


def test_admission_ignores_non_admitted_kinds(services):
    cfg = FlowConfig(
        capacity=1,
        queue_limit=0,
        admit_kinds=frozenset({ComponentKind.APPLICATION}),
    )
    loid = LOID.for_instance(91, 950, services.secret)
    services.flow = cfg
    infra = ObjectServer(
        services,
        loid,
        EchoImpl("infra"),
        host=3,
        component_kind=ComponentKind.BINDING_AGENT,
    )
    assert infra.admission is None  # kind not admitted => no queue at all


@pytest.mark.parametrize(
    "kwargs",
    [
        {"capacity": 0},
        {"queue_limit": -1},
        {"service_estimate": 0.0},
        {"credit_window": 0},
    ],
)
def test_flow_config_rejects_nonsense(kwargs):
    with pytest.raises(ValueError):
        FlowConfig(**kwargs)


@pytest.mark.parametrize(
    "name, value",
    [
        ("capacity", 0),
        ("capacity", float("nan")),
        ("capacity", float("inf")),
        ("queue_limit", float("nan")),
        ("service_estimate", float("nan")),
        ("service_estimate", float("inf")),
        ("credit_window", float("nan")),
    ],
)
def test_flow_config_names_the_field_value_and_range(name, value):
    """NaN and infinity were accepted; 0 raised a bare ValueError."""
    message = re.escape(f"FlowConfig {name}={value!r}: must be in ")
    with pytest.raises(InvalidArgument, match=message):
        FlowConfig(**{name: value})


@pytest.mark.parametrize("removed", ["window", "limit"])
def test_flow_config_has_no_batching_options(removed):
    with pytest.raises(TypeError):
        FlowConfig(**{f"batch_{removed}": 1.0})


def test_flow_config_admits():
    assert not FlowConfig().admits(ComponentKind.APPLICATION)
    assert FlowConfig(capacity=2).admits(ComponentKind.APPLICATION)
    restricted = FlowConfig(
        capacity=2, admit_kinds=frozenset({ComponentKind.APPLICATION})
    )
    assert restricted.admits(ComponentKind.APPLICATION)
    assert not restricted.admits(ComponentKind.BINDING_AGENT)


def test_overloaded_marshalling_roundtrip():
    wire = MethodResult.failure(Overloaded("queue full", retry_after=7.5))
    assert wire.error_type
    with pytest.raises(Overloaded) as info:
        wire.unwrap()
    assert info.value.retry_after == 7.5
    assert "queue full" in str(info.value)
