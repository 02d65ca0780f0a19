"""The operating-mode governor: bands that change policy, not just reports.

One control loop on simulated time: every :data:`TICK` ms it takes a
reconciled :class:`~repro.health.evidence.HealthEvidence` snapshot,
steps the :class:`~repro.health.bands.BandMachine`, ledgers any
transition (with the evidence that justified it), and applies the
current band's :class:`BandPolicy` to the subsystems it governs:

* **flow** -- admission queue limits shrink (pushback arrives sooner)
  and retry-token refill slows, per band;
* **autoscale** -- the clone floor rises while degraded, so capacity is
  already standing when the band recovers;
* **replication** -- repair sweeps run more often with a flow-priority
  boost, so re-replication outbids background work as bands worsen;
* **magistrates** -- recovery sweeps accelerate, bounding
  time-to-recover by the (tightened) sweep interval;
* **Failed** -- admission for non-critical component names is paused
  (arrivals shed with the first-class reason ``"paused"``) while the
  ``critical`` allowlist keeps serving.

Policies are applied *idempotently from captured baselines* on every
tick -- scaling is always relative to the configuration the governor
first saw, never compounded, and servers or clones born mid-band pick
the policy up on the next tick.  ``stop()`` restores every baseline.

With no governor installed nothing here runs; the only hot-path trace
of this package is one ``paused`` attribute check on the (flow-only)
admission intake, so the governor-disabled call path stays within the
PR-6 zero-overhead envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.health.bands import Band, BandMachine
from repro.health.evidence import EvidenceCollector, HealthEvidence
from repro.health.ledger import HealthLedger
from repro.simkernel.kernel import Periodic


@dataclass(frozen=True)
class BandPolicy:
    """What one band does to the governed subsystems (all relative)."""

    #: Admission queue_limit multiplier (1.0 = baseline, smaller = stricter).
    queue_scale: float = 1.0
    #: Retry-token refill multiplier (0.0 freezes refill entirely).
    refill_scale: float = 1.0
    #: Clone floor forced onto attached autoscalers (capped by max_clones).
    min_clones: int = 0
    #: Multiplier on recovery-sweep cadence (< 1 sweeps more often).
    sweep_scale: float = 1.0
    #: Multiplier on replica-repair cadence and pacing (< 1 repairs harder).
    repair_scale: float = 1.0
    #: Added to the repair client's flow priority (lifts repair traffic
    #: past admission shedding as bands worsen; baseline is negative).
    repair_boost: int = 0
    #: Failed-band switch: pause admission for non-critical components.
    pause_non_critical: bool = False


#: The band → policy ladder: each band strictly tightens on the one
#: above it, Failed adds the pause.
DEFAULT_POLICIES: Mapping[Band, BandPolicy] = {
    Band.STABLE: BandPolicy(),
    Band.STRAINED: BandPolicy(
        queue_scale=0.75, refill_scale=0.5, min_clones=1,
        sweep_scale=0.5, repair_scale=0.5,
    ),
    Band.ERODING: BandPolicy(
        queue_scale=0.5, refill_scale=0.25, min_clones=2,
        sweep_scale=0.25, repair_scale=0.25, repair_boost=1,
    ),
    Band.COMPROMISED: BandPolicy(
        queue_scale=0.25, refill_scale=0.1, min_clones=2,
        sweep_scale=0.125, repair_scale=0.125, repair_boost=2,
    ),
    Band.FAILED: BandPolicy(
        queue_scale=0.25, refill_scale=0.0, min_clones=2,
        sweep_scale=0.125, repair_scale=0.125, repair_boost=2,
        pause_non_critical=True,
    ),
}


#: Observation cadence (simulated ms between evidence snapshots).
TICK = 10.0


@dataclass(frozen=True)
class GovernorConfig:
    """Everything the governor needs besides the system itself."""

    #: Component names whose admission is never paused in Failed.
    critical: FrozenSet[str] = frozenset()


class Governor(Periodic):
    """Bind a BandMachine + ledger to a live system and govern its policy."""

    def __init__(self, system, config: Optional[GovernorConfig] = None) -> None:
        self.system = system
        self.kernel = system.kernel
        self.config = config or GovernorConfig()
        self.collector = EvidenceCollector(system)
        self.machine = BandMachine(now=system.kernel.now)
        self.ledger = HealthLedger()
        self.last_evidence: Optional[HealthEvidence] = None
        #: Governed controllers (attach()); None = that coupling is off.
        self.autoscalers: List[Any] = []
        self.sweeper: Any = None
        self.repair: Any = None
        #: Captured baselines, keyed by id() with a strong reference to
        #: the owner riding along (keeps ids stable against gc reuse).
        self._base_flow: Dict[int, Tuple[Any, Any]] = {}
        self._base_retry: Dict[int, Tuple[Any, Any]] = {}
        self._base_scale: Dict[int, Tuple[Any, Any]] = {}
        self._base_sweep: Optional[float] = None
        self._base_repair: Optional[Tuple[float, int, float]] = None
        self._retry_runtimes: List[Any] = []

    # ---------------------------------------------------------------- plumbing

    @property
    def band(self) -> Band:
        return self.machine.band

    def track(self, *clients) -> None:
        """Register caller consoles: their wire stats join the evidence
        and their retry-token refill joins the governed knobs."""
        self.collector.track(*clients)
        for client in clients:
            runtime = getattr(client, "runtime", client)
            if runtime not in self._retry_runtimes:
                self._retry_runtimes.append(runtime)

    def attach(self, autoscaler=None, sweeper=None, repair=None) -> None:
        """Couple controllers the governor should govern (any subset)."""
        if autoscaler is not None and autoscaler not in self.autoscalers:
            self.autoscalers.append(autoscaler)
        if sweeper is not None:
            self.sweeper = sweeper
            self._base_sweep = sweeper.interval
        if repair is not None:
            self.repair = repair
            self._base_repair = (repair.interval, repair.priority, repair.pacing)

    # ------------------------------------------------------------------- loop

    def _loops(self):
        return [("health-governor", TICK, lambda: TICK, self.poll)]

    #: Kill the governing loop (policy stays as last applied).  Call before
    #: draining the kernel: the loop is an endless tick process, so
    #: ``kernel.run()`` would never go idle under it.
    stop_loop = Periodic.stop

    def stop(self) -> None:
        """Kill the loop and restore every captured baseline."""
        self.stop_loop()
        self._restore()

    def poll(self) -> Optional[Any]:
        """One governing step: observe, maybe transition, apply policy.

        Public so tests (and the post-run settlement phase) can drive the
        governor without the kernel loop.  Returns the ledgered record
        when a transition happened.
        """
        evidence = self.collector.snapshot()
        self.last_evidence = evidence
        transition = self.machine.step(evidence, evidence.time)
        record = None
        if transition is not None:
            record = self.ledger.append(transition, evidence)
        self._apply(DEFAULT_POLICIES[self.machine.band])
        return record

    # ------------------------------------------------------------ policy hooks

    def _apply(self, policy: BandPolicy) -> None:
        critical = self.config.critical
        for server in self.collector.admitted_servers():
            admission = server.admission
            _owner, base = self._base_flow.setdefault(
                id(admission), (admission, admission.config)
            )
            if policy.queue_scale == 1.0:
                admission.config = base
            else:
                admission.config = replace(
                    base, queue_limit=int(base.queue_limit * policy.queue_scale)
                )
            admission.paused = (
                policy.pause_non_critical and server.component.name not in critical
            )
        for runtime in self._retry_runtimes:
            _owner, base = self._base_retry.setdefault(
                id(runtime), (runtime, runtime.retry_policy)
            )
            if base.retry_tokens is None:
                continue  # unlimited retries: nothing to throttle
            if policy.refill_scale == 1.0:
                runtime.retry_policy = base
            else:
                runtime.retry_policy = replace(
                    base,
                    retry_token_refill=base.retry_token_refill * policy.refill_scale,
                )
        for autoscaler in self.autoscalers:
            _owner, base = self._base_scale.setdefault(
                id(autoscaler), (autoscaler, autoscaler.config)
            )
            floor = min(max(policy.min_clones, base.min_clones), base.max_clones)
            if floor == base.min_clones:
                autoscaler.config = base
            else:
                autoscaler.config = replace(base, min_clones=floor)
        if self.sweeper is not None:
            self.sweeper.interval = self._base_sweep * policy.sweep_scale
        if self.repair is not None:
            interval, priority, pacing = self._base_repair
            self.repair.interval = interval * policy.repair_scale
            self.repair.priority = priority + policy.repair_boost
            self.repair.pacing = pacing * policy.repair_scale

    def _restore(self) -> None:
        for admission, base in self._base_flow.values():
            admission.config = base
            admission.paused = False
        for runtime, base in self._base_retry.values():
            runtime.retry_policy = base
        for autoscaler, base in self._base_scale.values():
            autoscaler.config = base
        if self.sweeper is not None:
            self.sweeper.interval = self._base_sweep
        if self.repair is not None:
            self.repair.interval, self.repair.priority, self.repair.pacing = (
                self._base_repair
            )


def enable_governor(system, config: Optional[GovernorConfig] = None) -> Governor:
    """Build and start a Governor for ``system``."""
    governor = Governor(system, config)
    governor.start()
    return governor
