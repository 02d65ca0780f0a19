"""Combined-adversity stress: churn + message loss + a transient partition.

Not a benchmark -- a falsifier.  The invariant under attack: the binding
machinery may slow down or (during a partition) fail *visibly*, but it
never returns a wrong answer, never corrupts object state, and always
recovers once conditions improve.
"""

import pytest

from repro.net.latency import LinkClass
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl
from repro.workloads.generators import ChurnDriver, TrafficDriver
from tests._state import heal_all


class TestCombinedAdversity:
    def test_no_lost_updates_and_full_recovery(self):
        system = LegionSystem.build(
            [SiteSpec("east", hosts=3), SiteSpec("west", hosts=3)], seed=77
        )
        cls = system.create_class("Counter", factory=CounterImpl)
        objects = [system.create_instance(cls.loid) for _ in range(8)]
        loids = [b.loid for b in objects]
        clients = [
            system.new_client(f"stress-{i}", site=system.sites[i % 2].name)
            for i in range(4)
        ]
        rng = system.services.rng.stream("stress")

        # Phase 1: churn + 5% WAN loss.
        system.network.drop_probability[LinkClass.WIDE_AREA] = 0.05
        churn = ChurnDriver(
            system.kernel,
            system.new_client("stress-churn"),
            loids,
            [m.loid for m in system.magistrates.values()],
            cls.loid,
            rng=system.services.rng.stream("stress-churn"),
            interval=60.0,
        )
        churn.start()
        traffic = TrafficDriver(
            system.kernel,
            clients,
            choose_target=lambda _c: loids[rng.randrange(len(loids))],
            method="Increment",
            args=(1,),
            calls_per_client=20,
            think_time=10.0,
            timeout=500.0,
        )
        stats = system.kernel.run_until_complete(
            traffic.start(), max_events=10_000_000
        )
        churn.stop()
        system.kernel.run()

        # Correctness half: every success really happened, exactly once or
        # more (at-least-once), never silently dropped: the sum of all
        # counters >= successes.
        total = sum(system.call(loid, "Get") for loid in loids)
        assert total >= stats.calls_succeeded
        assert stats.calls_succeeded >= stats.calls_issued * 0.9

        # Phase 2: a partition makes cross-site work fail VISIBLY...
        system.network.drop_probability[LinkClass.WIDE_AREA] = 0.0
        system.network.partition("east", "west")
        east_client = system.new_client("post-east", site="east")
        outcomes = []
        for loid in loids:
            try:
                system.call(loid, "Ping", client=east_client)
                outcomes.append("ok")
            except Exception:
                outcomes.append("fail")
        assert "fail" in outcomes  # west-hosted objects are unreachable

        # ...and everything heals afterwards.
        heal_all(system.network)
        for loid in loids:
            assert system.call(loid, "Ping", client=east_client) == "pong"

    def test_state_integrity_through_hostile_lifecycle(self):
        """Interleave increments with forced deactivations, moves, a crash
        + reap, and a reactivation: the counter value must track exactly
        the acknowledged increments."""
        system = LegionSystem.build(
            [SiteSpec("a", hosts=2), SiteSpec("b", hosts=2)], seed=5
        )
        cls = system.create_class("Counter", factory=CounterImpl)
        binding = system.call(cls.loid, "Create", {})
        loid = binding.loid
        expected = 0

        def magistrate_of():
            return system.call(cls.loid, "GetRow", loid).current_magistrates[0]

        for round_no in range(6):
            expected = system.call(loid, "Increment", round_no + 1)
            if round_no % 3 == 0:
                system.call(magistrate_of(), "Deactivate", loid)
            elif round_no % 3 == 1:
                source = magistrate_of()
                target = [
                    m.loid
                    for m in system.magistrates.values()
                    if m.loid != source
                ][0]
                system.call(source, "Move", loid, target)
        assert system.call(loid, "Get") == expected

        # Crash without a saved OPR: the object is genuinely lost, and the
        # system says so rather than fabricating state.
        for host_server in system.host_servers.values():
            entry = host_server.impl.processes.find(loid)
            if entry is not None:
                host_server.impl.crash_object(loid, "pulled the plug")
                reap = system.spawn(host_server.impl.reap())
                system.kernel.run_until_complete(reap)
                break
        from repro import errors

        fresh = system.new_client("witness")
        with pytest.raises(errors.LegionError):
            system.call(loid, "Get", client=fresh)
