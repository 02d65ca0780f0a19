"""HealthEvidence: one reconciled, windowed view of system health.

The governor must not invent a second telemetry plane: every signal here
is read from ledgers the system already keeps -- the metrics registry's
``shed`` counters, RuntimeStats retry denials, FaultLog loss/recovery
incidents, the GlobalReplicaIndex's under-replication query, and
server-side queue depths -- the same triple-entry discipline PR-5's shed
accounting established.  Like the autoscaler's LoadMonitor, the collector
owns no wires and sends no messages, so observing the system costs the
system nothing and stays deterministic on simulated time.

A snapshot is *reconciled*: it carries all three shed ledgers (metrics
counters, FaultLog observations, callers' wire-level settlements) so the
governor, the experiments, and TraceAudit (``evidence_reconciles``) all
read one consistent view instead of each summing its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Tuple

from repro.metrics.counters import MetricsRegistry

#: Sliding evidence window the rates are computed over (simulated ms).
WINDOW = 40.0


@dataclass(frozen=True)
class HealthEvidence:
    """One windowed observation of system health (the governor's input).

    Rates are per simulated ms over ``window``; levels are instantaneous.
    The cumulative totals behind the rates ride along for reconciliation
    and for the ledger's evidence snapshots.
    """

    time: float
    #: Actual span of the sliding window the rates cover (ms; 0 on the
    #: first snapshot, when no earlier sample exists to diff against).
    window: float
    #: Admission sheds per ms, summed over every component.
    shed_rate: float
    #: Retry-token denials per ms, summed over tracked runtimes.
    retry_denied_rate: float
    #: Objects lost (FaultLog) with no recovery observed yet.
    loss_backlog: int
    #: Replica groups below their target size (0 without replication).
    under_replicated: int
    #: Worst per-server backlog: in-flight + admission-queue waiters.
    queue_depth: int
    #: 90th-percentile per-server backlog (reports; rules use the max).
    queue_depth_p90: int
    #: Cumulative sheds, one total per ledger (triple-entry).
    shed_metrics: int
    shed_faultlog: int
    shed_wire: int
    #: Cumulative retry-token denials over tracked runtimes.
    retry_denied_total: int
    #: Cumulative FaultLog loss / recovery observations.
    faults_lost: int
    faults_recovered: int

    @property
    def consistent(self) -> bool:
        """True when the three shed ledgers agree (see :meth:`ledgers`)."""
        return self.shed_metrics == self.shed_faultlog == self.shed_wire

    def ledgers(self) -> Dict[str, int]:
        """The triple-entry shed view: metrics == FaultLog == wire.

        ``metrics`` counts server-side shed replies, ``faultlog`` the
        incident observations the same code path appends, ``wire`` the
        Overloaded settlements tracked callers saw.  All three must agree
        when a FaultLog is installed and every caller is tracked.
        """
        return {
            "metrics": self.shed_metrics,
            "faultlog": self.shed_faultlog,
            "wire": self.shed_wire,
        }

    def to_json(self) -> Dict[str, Any]:
        """A JSON-safe dict with deterministic float rounding.

        This is the exact shape the hash-chained ledger serialises, so
        rounding here *is* the canonical form verification recomputes.
        """
        return {
            "time": round(self.time, 6),
            "window": round(self.window, 6),
            "shed_rate": round(self.shed_rate, 6),
            "retry_denied_rate": round(self.retry_denied_rate, 6),
            "loss_backlog": self.loss_backlog,
            "under_replicated": self.under_replicated,
            "queue_depth": self.queue_depth,
            "queue_depth_p90": self.queue_depth_p90,
            "shed_metrics": self.shed_metrics,
            "shed_faultlog": self.shed_faultlog,
            "shed_wire": self.shed_wire,
            "retry_denied_total": self.retry_denied_total,
            "faults_lost": self.faults_lost,
            "faults_recovered": self.faults_recovered,
        }


class EvidenceCollector:
    """Sample the existing ledgers into :class:`HealthEvidence` snapshots.

    Keeps a sliding deque of cumulative samples; rates diff the newest
    against the oldest sample still inside :data:`WINDOW` simulated ms, so
    a single quiet tick cannot hide a hot window (and vice versa).

    Client consoles are not reachable from the system object, so callers
    whose wire-level sheds and retry denials should count must be
    registered with :meth:`track` -- experiments track their traffic
    clients, the ones they also hand to ``system.runtimes(clients)``.
    """

    def __init__(self, system) -> None:
        self.system = system
        #: (time, shed_metrics, retry_denied_total) cumulative history.
        self._history: Deque[Tuple[float, int, int]] = deque()
        self._tracked: List[Any] = []
        #: The GlobalReplicaIndex's server, found on first use and again
        #: once it deactivates.
        self._index_server: Any = None

    # ----------------------------------------------------------------- wiring

    def track(self, *servers) -> None:
        """Register caller ObjectServers (or runtimes) for wire-side sums."""
        for server in servers:
            runtime = getattr(server, "runtime", server)
            if runtime not in self._tracked:
                self._tracked.append(runtime)

    # ---------------------------------------------------------------- reading

    def admitted_servers(self) -> List[Any]:
        """Live servers with an admission controller, in deterministic
        order (the flow-policy and pause targets)."""
        system = self.system
        out = []
        for host_id in sorted(system.host_servers):
            for entry in system.host_servers[host_id].impl.processes.running():
                server = entry.server
                if server.active and server.admission is not None:
                    out.append(server)
        return out

    def _backlogs(self) -> List[int]:
        """Per-server backlog (in-flight + admission waiters), app objects."""
        out = []
        system = self.system
        for host_id in sorted(system.host_servers):
            for entry in system.host_servers[host_id].impl.processes.running():
                server = entry.server
                if not server.active:
                    continue
                admission = server.admission
                out.append(server.in_flight if admission is None else admission.backlog)
        return out

    def _under_replicated(self) -> int:
        """Groups below target, straight off the GlobalReplicaIndex impl."""
        directory = self.system.services.replication
        if directory is None:
            return 0
        server = self._index_server
        if server is None or not server.active:
            from repro.replication.catalog import GlobalReplicaIndexImpl

            server = None
            for host_id in sorted(self.system.host_servers):
                table = self.system.host_servers[host_id].impl.processes
                for entry in table.running():
                    if isinstance(entry.server.impl, GlobalReplicaIndexImpl):
                        server = entry.server
                        break
                if server is not None:
                    break
            self._index_server = server
        if server is None:
            return 0
        return len(server.impl.under_replicated())

    def snapshot(self) -> HealthEvidence:
        """One reconciled evidence snapshot at the current simulated time."""
        system = self.system
        now = system.kernel.now
        metrics = system.services.metrics
        shed_metrics = sum(metrics.snapshot(None, MetricsRegistry.SHED).values())
        runtimes = system.runtimes() + self._tracked
        shed_wire = sum(rt.stats.shed for rt in runtimes)
        retry_denied = sum(rt.stats.retry_denied for rt in runtimes)
        fault_log = system.services.fault_log
        if fault_log is not None:
            shed_faultlog = fault_log.count("request-shed")
            lost = set(fault_log.lost_objects())
            recovered = set(fault_log.recovered_objects())
            faults_lost, faults_recovered = len(lost), len(recovered)
            loss_backlog = len(lost - recovered)
        else:
            # No FaultLog installed: nothing observes sheds server-side,
            # so the faultlog column mirrors metrics to stay reconciled.
            shed_faultlog = shed_metrics
            faults_lost = faults_recovered = loss_backlog = 0

        self._history.append((now, shed_metrics, retry_denied))
        while len(self._history) > 1 and self._history[1][0] <= now - WINDOW:
            self._history.popleft()
        t0, shed0, denied0 = self._history[0]
        span = now - t0
        shed_rate = (shed_metrics - shed0) / span if span > 0 else 0.0
        denied_rate = (retry_denied - denied0) / span if span > 0 else 0.0

        backlogs = sorted(self._backlogs())
        depth = backlogs[-1] if backlogs else 0
        p90 = backlogs[int(0.9 * (len(backlogs) - 1))] if backlogs else 0

        return HealthEvidence(
            time=now,
            window=span,
            shed_rate=shed_rate,
            retry_denied_rate=denied_rate,
            loss_backlog=loss_backlog,
            under_replicated=self._under_replicated(),
            queue_depth=depth,
            queue_depth_p90=p90,
            shed_metrics=shed_metrics,
            shed_faultlog=shed_faultlog,
            shed_wire=shed_wire,
            retry_denied_total=retry_denied,
            faults_lost=faults_lost,
            faults_recovered=faults_recovered,
        )
