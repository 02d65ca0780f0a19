"""(c) Each layer alone: direct calls into its public functions, tracing off.

Every bench builds its inputs first, then times ``batches`` batches of at
least 20 ms each and reports the median (see :func:`measure.per_item_ns`).
The ``experiments.*`` walls are not here: the ``quick_sweep`` workload
produces them from the one sweep it runs anyway.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.flow.config import FlowConfig
from repro.megascale import BulkEngine, StateFrame
from repro.metrics.counters import ComponentId, ComponentKind, MetricsRegistry
from repro.naming.binding import Binding
from repro.naming.cache import BindingCache
from repro.naming.loid import LOID
from repro.net.address import ObjectAddress, ObjectAddressElement
from repro.net.message import Message
from repro.net.network import Network
from repro.persistence.opr import OPRecord
from repro.persistence.storage import PersistentStore
from repro.persistence.vault import Vault
from repro.scenarios import compile_events, get_scenario, stream_stats
from repro.scenarios.mega import compile_frames
from repro.security.environment import CallEnvironment
from repro.security.mayi import ACLPolicy
from repro.simkernel.futures import SimFuture
from repro.simkernel.kernel import SimKernel, Timeout
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl

from measure import Stopwatch, median, per_item_ns
from workloads import sites

# ------------------------------------------------------------------ simkernel


def _timer_chain(kernel: SimKernel) -> Callable[[int], None]:
    def run(n: int) -> None:
        left = n

        def tick() -> None:
            nonlocal left
            left -= 1
            if left:
                kernel.schedule(1.0, tick)

        kernel.schedule(1.0, tick)
        kernel.run(until=kernel.now + n + 1.0)

    return run


def schedule_ns(batches: int) -> float:
    """One self-rescheduling callback: heap push + pop + dispatch."""
    return per_item_ns(_timer_chain(SimKernel()), batches)


def deep_heap_ns(batches: int) -> float:
    """The same chain with 10^5 timers pending far in the future."""
    kernel = SimKernel()
    for k in range(100_000):
        kernel.schedule(1e12 + k, int)
    return per_item_ns(_timer_chain(kernel), batches)


def spawn_ns(batches: int) -> float:
    """Process start + one timeout + finish + future resolution."""
    kernel = SimKernel()

    def proc():
        yield Timeout(1.0)

    def run(n: int) -> None:
        for _ in range(n):
            kernel.spawn(proc())
        kernel.run()

    return per_item_ns(run, batches)


def future_resume_ns(batches: int) -> float:
    """A process yields a future that a later event resolves (the shape
    of one request/reply round in the communication layer)."""
    kernel = SimKernel()

    def consumer(n: int):
        for _ in range(n):
            fut = SimFuture()
            kernel.schedule(1.0, fut.set_result, None)
            yield fut

    def run(n: int) -> None:
        kernel.spawn(consumer(n))
        kernel.run()

    return per_item_ns(run, batches)


# ------------------------------------------------------------------------ net


def send_deliver_ns(batches: int) -> float:
    """``Network.send`` -> latency model -> kernel -> registered handler.

    Message construction is ``net.message_build_ns``'s job, so the messages
    are built outside the timed span.
    """
    kernel = SimKernel()
    network = Network(kernel)
    src = network.allocate_element(host=1)
    dst = network.allocate_element(host=2)
    got = []
    network.register(src, got.append)
    network.register(dst, got.append)

    def prepare(n: int) -> list:
        got.clear()
        return [Message.request(src, dst, None) for _ in range(n)]

    def run(messages: list) -> None:
        for message in messages:
            network.send(message)
        kernel.run()
        if len(got) != len(messages):
            raise AssertionError("a message was not delivered")

    return per_item_ns(run, batches, prepare=prepare)


def message_build_ns(batches: int) -> float:
    """``Message.request`` plus its ``reply_with``."""
    src = ObjectAddressElement.sim(host=1, port=1024)
    dst = ObjectAddressElement.sim(host=2, port=1024)

    def run(n: int) -> None:
        for _ in range(n):
            Message.request(src, dst, None).reply_with(None)

    return per_item_ns(run, batches)


# --------------------------------------------------------------------- naming


def _bindings(count: int):
    element = ObjectAddressElement.sim(host=1, port=1024)
    address = ObjectAddress.single(element)
    return [Binding(LOID.for_instance(100, k + 1), address) for k in range(count)]


def cache_hit_ns(batches: int) -> float:
    """``BindingCache.lookup`` of a present, unexpired entry."""
    cache = BindingCache(capacity=128)
    bindings = _bindings(64)
    for binding in bindings:
        cache.insert(binding)
    loids = [b.loid for b in bindings]

    def run(n: int) -> None:
        lookup = cache.lookup
        for k in range(n):
            if lookup(loids[k & 63], 0.0) is None:
                raise AssertionError("warm entry missing")

    return per_item_ns(run, batches)


def cache_insert_evict_ns(batches: int) -> float:
    """``BindingCache.insert`` into a full cache (one LRU eviction each)."""
    cache = BindingCache(capacity=128)
    bindings = _bindings(4096)

    def run(n: int) -> None:
        insert = cache.insert
        for k in range(n):
            insert(bindings[k & 4095])

    return per_item_ns(run, batches)


def loid_hash_ns(batches: int) -> float:
    """``hash(LOID)``: the dataclass-generated hash every dict key pays."""
    loids = [b.loid for b in _bindings(64)]

    def run(n: int) -> None:
        acc = 0
        for k in range(n):
            acc ^= hash(loids[k & 63])
        run.acc = acc

    return per_item_ns(run, batches)


# ---------------------------------------------------------------- persistence


def opr_roundtrip_us(batches: int) -> float:
    """``to_bytes``/``from_bytes`` plus ``Vault.store_opr``/``load_opr``."""
    vault = Vault("bench")
    vault.add_store(PersistentStore("bench", "disk0"))
    class_loid = LOID.for_class(100)
    records = [
        OPRecord(b.loid, class_loid, [("app.counter", {})], state=b"x" * 64)
        for b in _bindings(64)
    ]

    def run(n: int) -> None:
        for k in range(n):
            record = records[k & 63]
            if OPRecord.from_bytes(record.to_bytes()).loid != record.loid:
                raise AssertionError("OPR did not round-trip")
            vault.store_opr(record)
            if vault.load_opr(record.loid).state != record.state:
                raise AssertionError("vault returned another OPR")

    return per_item_ns(run, batches, start=64) / 1e3


# ---------------------------------------------------------- metrics, security


def incr_ns(batches: int) -> float:
    """``MetricsRegistry.incr`` on an existing component."""
    registry = MetricsRegistry()
    component = ComponentId(ComponentKind.APPLICATION, "bench")

    def run(n: int) -> None:
        incr = registry.incr
        for _ in range(n):
            incr(component, "requests")
        if registry.get(component) < n:
            raise AssertionError("counter lost increments")

    return per_item_ns(run, batches)


def mayi_ns(batches: int) -> float:
    """``ACLPolicy.may_i`` for an admitted caller."""
    caller = LOID.for_instance(7, 1)
    policy = ACLPolicy(acl={"Privileged": {caller}}, default=True)
    env = CallEnvironment.originating(caller)

    def run(n: int) -> None:
        may_i = policy.may_i
        for _ in range(n):
            if not may_i("Privileged", env):
                raise AssertionError("admitted caller refused")

    return per_item_ns(run, batches)


# --------------------------------------------------------------------- system


def _build_ms(n_sites: int, hosts: int, batches: int) -> float:
    watch = Stopwatch()
    walls = []
    for k in range(batches):
        system, _, wall = watch.measure(LegionSystem.build, sites(n_sites, hosts), k)
        walls.append(wall)
        if len(system.host_servers) != n_sites * hosts:
            raise AssertionError("build lost hosts")
    return median(walls) * 1e3


def _warm_call_us(batches: int, flow=None, tracing: bool = False) -> float:
    system = LegionSystem.build(sites(2, 2), seed=0, flow=flow)
    cls = system.create_class("Direct", factory=CounterImpl)
    loid = system.create_instance(cls.loid).loid
    if tracing:
        system.enable_tracing()
    system.call(loid, "Ping")

    def run(n: int) -> None:
        call = system.call
        for _ in range(n):
            if call(loid, "Ping") != "pong":
                raise AssertionError("Ping failed")
        system.reset_measurements()  # drops recorded spans when tracing

    return per_item_ns(run, batches, start=64) / 1e3


# ------------------------------------------------------------------ scenarios


def _compile_us_per_arrival(batches: int) -> Dict[str, float]:
    spec = get_scenario("repository")
    plan = compile_events(spec, 0)
    arrivals = stream_stats(plan)["sessions"]
    watch = Stopwatch()
    events, frames = [], []
    for k in range(batches):
        plan, _, events_wall = watch.measure(compile_events, spec, k)
        _, _, frames_wall = watch.measure(compile_frames, spec, plan)
        n = stream_stats(plan)["sessions"] or arrivals
        events.append(events_wall / n)
        frames.append(frames_wall / n)
    return {
        "scenarios.compile_events_us_per_arrival": median(events) * 1e6,
        "scenarios.compile_frames_us_per_arrival": median(frames) * 1e6,
    }


# ------------------------------------------------------------------ megascale

_MEGA_N = 200_000


def _frame(n: int) -> StateFrame:
    ids = np.arange(n, dtype=np.int64)
    frame = StateFrame(n_classes=200, n_hosts=100)
    frame.extend(n, klass=(ids % 200).astype(np.int32), host=(ids % 100).astype(np.int32))
    return frame


def _megascale(batches: int) -> Dict[str, float]:
    rng = np.random.default_rng(0)
    watch = Stopwatch("array")
    extend = []
    for _ in range(batches):
        frame, _, wall = watch.measure(_frame, _MEGA_N)
        extend.append(wall)
    engine = BulkEngine(frame, per_tick_limit=2)
    dense, sparse = [], []
    for k in range(batches):
        many = rng.integers(0, _MEGA_N, size=_MEGA_N // 2)
        few = rng.integers(0, _MEGA_N, size=1000)
        dense.append(watch.measure(engine.tick, 2 * k, many)[2])
        sparse.append(watch.measure(engine.tick, 2 * k + 1, few)[2])
    if not engine.settled():
        raise AssertionError("engine ledger did not settle")
    hot = BulkEngine(frame, hot_ids=range(64))
    touches = np.arange(64, dtype=np.int64)

    def promote_demote(n: int) -> None:
        for k in range(n):
            hot.tick(k, touches)  # promotes all 64 on first touch
            hot.demote_all()

    return {
        "megascale.extend_ns_per_obj": median(extend) / _MEGA_N * 1e9,
        "megascale.tick_dense_ns_per_call": median(dense) / (_MEGA_N // 2) * 1e9,
        "megascale.tick_sparse_us_per_tick": median(sparse) * 1e6,
        "megascale.promote_demote_us": per_item_ns(promote_demote, batches, start=4)
        / 64 / 1e3,
    }


# ------------------------------------------------------------------------ all


def run_all(batches: int) -> Dict[str, float]:
    """Every (c) metric except ``experiments.*``, by catalog name."""
    out = {
        "simkernel.schedule_ns": schedule_ns(batches),
        "simkernel.spawn_ns": spawn_ns(batches),
        "simkernel.future_resume_ns": future_resume_ns(batches),
        "simkernel.deep_heap_ns": deep_heap_ns(batches),
        "net.send_deliver_ns": send_deliver_ns(batches),
        "net.message_build_ns": message_build_ns(batches),
        "naming.cache_hit_ns": cache_hit_ns(batches),
        "naming.cache_insert_evict_ns": cache_insert_evict_ns(batches),
        "naming.loid_hash_ns": loid_hash_ns(batches),
        "persistence.opr_roundtrip_us": opr_roundtrip_us(batches),
        "metrics.incr_ns": incr_ns(batches),
        "security.mayi_ns": mayi_ns(batches),
        "system.build_small_ms": _build_ms(2, 2, batches),
        "system.build_large_ms": _build_ms(16, 8, max(3, batches // 3)),
    }
    out.update(_compile_us_per_arrival(batches))
    out.update(_megascale(batches))
    plain = _warm_call_us(batches)
    out["trace.enabled_overhead_x"] = _warm_call_us(batches, tracing=True) / plain
    out["flow.admission_overhead_x"] = (
        _warm_call_us(batches, flow=FlowConfig(capacity=64)) / plain
    )
    return out
