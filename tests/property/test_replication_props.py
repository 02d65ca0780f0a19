"""Property-based tests (hypothesis) on the geo-replication data plane.

Each property pins one consistency-policy guarantee from
:mod:`repro.replication.policy` across randomized inputs:

* **primary-copy invalidation ordering** -- when a write returns, every
  secondary either carries the new version or an invalidation marker at
  least that new, so no secondary can serve the old value as fresh;
* **read-any liveness** -- a partitioned replica never blocks a read:
  the locality-ordered FIRST address falls across the cut in bounded
  simulated time and still returns the seeded value;
* **chaos composition** -- a replica crash at an arbitrary time while
  the background repair service sweeps never loses state, and every
  runtime still settles the flow-era request identity.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.replication import (
    ReplicaRepairService,
    ReplicaSession,
    enable_replication,
)
from repro.replication.store import ReplicatedStoreImpl
from repro.simkernel.kernel import Timeout
from repro.system.legion import LegionSystem, SiteSpec

N_SITES = 3
SITES = [f"site{i}" for i in range(N_SITES)]
KEYS = ["alpha", "beta", "gamma"]
VALUES = [f"value-{i}" for i in range(4)]

PROPERTY_SETTINGS = settings(max_examples=10, suppress_health_check=[HealthCheck.too_slow])


def build(seed):
    """A 3-site system, replication on, one 3-replica group per site."""
    system = LegionSystem.build(
        [SiteSpec(name, hosts=2) for name in SITES], seed=seed
    )
    enable_replication(system)
    cls = system.create_class("PropStore", factory=ReplicatedStoreImpl)
    binding = system.call(cls.loid, "CreateReplicated", N_SITES, "first", 1)
    system.kernel.run()  # drain the placement gossip
    return system, cls, binding


def drive(system, gen, name="prop"):
    """Run one session generator to completion on the console runtime."""
    return system.kernel.run_until_complete(system.spawn(gen, name=name))


def replica_impls(system, loid):
    """element -> ReplicatedStoreImpl for every live replica of ``loid``."""
    out = {}
    for host_server in system.host_servers.values():
        entry = host_server.impl.processes.find(loid)
        if entry is not None and not entry.crashed:
            out[entry.server.element] = entry.server.impl
    return out


class TestPrimaryCopyInvalidation:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        ops=st.lists(
            st.tuples(
                st.integers(0, len(KEYS) - 1), st.integers(0, len(VALUES) - 1)
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_no_secondary_can_serve_the_old_value_as_fresh(self, seed, ops):
        system, _cls, binding = build(seed)
        session = ReplicaSession(system.console.runtime, binding, "primary-copy")
        primary = binding.address.elements[0]
        for key_idx, value_idx in ops:
            key, value = KEYS[key_idx], VALUES[value_idx]
            version = drive(system, session.write(key, value), name="write")
            # The write returned, so every secondary must already hold
            # either the new version or an invalidation at least that
            # new -- the acked-before-return ordering the policy pins.
            for element, impl in replica_impls(system, binding.loid).items():
                if element == primary:
                    continue
                copy_version = impl.data.get(key, (0, None))[0]
                invalid_at = impl.invalid_at.get(key, 0)
                assert max(copy_version, invalid_at) >= version, (
                    f"secondary {element} at version {copy_version} "
                    f"(invalid_at {invalid_at}) after write {version}"
                )
            assert drive(system, session.read(key), name="read") == value


class TestReadAnyLiveness:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        cuts=st.lists(
            st.sampled_from(
                [(a, b) for a in SITES for b in SITES if a < b]
            ),
            unique=True,
            max_size=2,
        ),
        reader_site=st.sampled_from(SITES),
    )
    def test_partitioned_replica_never_blocks_a_read(
        self, seed, cuts, reader_site
    ):
        system, _cls, binding = build(seed)
        session = ReplicaSession(system.console.runtime, binding, "read-any")
        drive(system, session.seed((k, f"v:{k}") for k in KEYS), name="seed")
        system.kernel.run()
        client = system.new_client("prop-reader", site=reader_site)
        reader = ReplicaSession(client.runtime, binding, "read-any")
        # Warm the reader's binding cache first: the property is about
        # the data plane (replica selection), not cold-start resolution.
        assert drive(system, reader.read(KEYS[0]), name="warm") == f"v:{KEYS[0]}"
        for a, b in cuts:
            system.network.partition(a, b)
        started = system.kernel.now
        try:
            for key in KEYS:
                # The reader's own jurisdiction holds a replica, so the
                # FIRST fallthrough reaches a live copy whatever the cuts.
                assert drive(system, reader.read(key), name="read") == f"v:{key}"
        finally:
            system.network.heal_all()
        # Bounded: element-by-element bounces, never a timeout stall.
        assert system.kernel.now - started < 1000.0


class TestChaosComposition:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        crash_at=st.floats(5.0, 150.0),
        victim_idx=st.integers(0, N_SITES - 1),
    )
    def test_crash_during_repair_sweeps_loses_no_state(
        self, seed, crash_at, victim_idx
    ):
        system, cls, binding = build(seed)
        kernel = system.kernel
        session = ReplicaSession(system.console.runtime, binding, "read-any")
        drive(system, session.seed((k, f"v:{k}") for k in KEYS), name="seed")
        kernel.run()
        service = ReplicaRepairService(system, interval=40.0)
        service.start()
        victim = binding.address.elements[victim_idx]

        def chaos():
            yield Timeout(crash_at)
            system.host_servers[victim.host].impl.crash_object(
                binding.loid, "chaos"
            )

        kernel.spawn(chaos(), name="chaos")
        kernel.run(until=kernel.now + 400.0)  # sweeps race the crash
        service.stop()
        kernel.run()
        # Deterministic final pass: whatever the race left, one sweep
        # per site must converge the group.
        for site in SITES:
            drive(system, service.sweep_site(site), name=f"sweep-{site}")
        kernel.run()

        final = system.call(cls.loid, "GetBinding", binding.loid)
        assert len(final.address.elements) == N_SITES
        impls = replica_impls(system, binding.loid)
        assert len(impls) == N_SITES
        for impl in impls.values():  # no member lost any seeded key
            assert sorted(impl.data) == sorted(KEYS)
        clients = list(service._clients.values())
        assert all(rt.settled for rt in system.runtimes([system.console] + clients))
