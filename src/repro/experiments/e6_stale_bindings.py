"""E6 -- stale-binding detection and repair under churn (section 4.1.4).

Claim: "Legion expects the presence of stale bindings ...  When an object
attempts to communicate with an invalid Object Address, the Legion
communication layer of the object is expected to detect that it has become
invalid.  When it does, it will likely request that the binding be
refreshed."  Stale bindings cost repair traffic but never wrong answers.

Method: traffic runs against a pool of objects while a churn driver
deactivates and migrates them.  Sweep churn intensity; report the stale
encounters, the refreshes issued, and -- the correctness half of the
claim -- a 100% call success rate at every churn level.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, uniform_sites
from repro.metrics.recorder import SeriesRecorder
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl
from repro.workloads.generators import ChurnDriver, TrafficDriver


def _run_level(churn_interval: float, seed: int, quick: bool):
    n_objects = 6 if quick else 12
    calls_per_client = 20 if quick else 50
    system = LegionSystem.build(uniform_sites(2, hosts_per_site=2), seed=seed)
    cls = system.create_class("Counter", factory=CounterImpl)
    objects = [system.create_instance(cls.loid) for _ in range(n_objects)]
    loids = [b.loid for b in objects]

    clients = [system.new_client(f"e6-{i}") for i in range(3)]
    rng = system.services.rng.stream("e6")

    system.reset_measurements()
    traffic = TrafficDriver(
        system.kernel,
        clients,
        choose_call=lambda _client: (loids[rng.randrange(len(loids))], "Increment", (1,)),
        calls_per_client=calls_per_client,
        think_time=5.0,
    )
    churn = None
    if churn_interval > 0:
        churn = ChurnDriver(
            system.kernel,
            system.new_client("e6-churn"),
            loids,
            [m.loid for m in system.magistrates.values()],
            cls.loid,
            rng=system.services.rng.stream("e6-churn"),
            interval=churn_interval,
        )
        churn.start()
    stats_fut = traffic.start()
    stats = system.kernel.run_until_complete(stats_fut, max_events=5_000_000)
    if churn is not None:
        # The churn round in flight when the traffic ends runs to its end
        # (its Move may already be at the magistrate); then the loop stops.
        while churn.busy and system.kernel.step():
            pass
        churn.stop()
        system.kernel.run()

    stale = sum(c.runtime.stats.stale_detected for c in clients)
    refreshes = sum(c.runtime.stats.refreshes for c in clients)
    return stats, stale, refreshes, churn.churn_events if churn else 0, system


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Sweep churn intensity; verify repairs keep success at 100%."""
    recorder = SeriesRecorder(x_label="churn_interval_ms")
    result = ExperimentResult(
        experiment="E6",
        title="stale bindings: detect, refresh, retry (4.1.4)",
        claim=(
            "churn creates stale bindings that cost refresh traffic but "
            "never failed or wrong calls"
        ),
        recorder=recorder,
    )
    # Smaller interval == more churn; 0 == no churn (control).
    levels = [0, 200, 50] if quick else [0, 400, 200, 100, 50]
    saw_stale_under_churn = False
    for interval in levels:
        stats, stale, refreshes, churn_events, _system = _run_level(interval, seed, quick)
        recorder.add(
            interval,
            churn_events=churn_events,
            stale_detected=stale,
            refreshes=refreshes,
            success_rate=stats.success_rate,
        )
        result.check(
            f"interval={interval}: all calls succeeded",
            stats.success_rate == 1.0,
            f"{stats.calls_succeeded}/{stats.calls_issued}"
            + (f"; first error: {stats.errors[0]}" if stats.errors else ""),
        )
        if interval > 0 and stale > 0:
            saw_stale_under_churn = True
        if interval == 0:
            result.check(
                "control (no churn): no stale bindings encountered",
                stale == 0,
                f"{stale}",
            )
    result.check(
        "churn does manufacture stale bindings (the mechanism is exercised)",
        saw_stale_under_churn,
    )
    return result
