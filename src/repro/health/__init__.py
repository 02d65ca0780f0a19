"""The operating-mode governor: banded system health with a hash-chained ledger.

The runtime grew rich *local* health signals PR by PR -- admission-shed
counters (repro.flow), retry-token denials (RetryPolicy), FaultLog
loss/recovery reconciliation (repro.faults), under-replication queries
(repro.replication) -- but no *system-level* answer to "how degraded are
we".  This package adds that answer as a five-band state machine in the
archon72 legitimacy-band shape (SNIPPETS.md section 1-2): Stable →
Strained → Eroding → Compromised → Failed, moving **one band at a time**
by rule over windowed evidence, with per-direction hysteresis and
dwell-time cooldowns, and **every transition appended to a tamper-evident
hash-chained ledger** together with the evidence snapshot that justified
it -- making slow rot audible instead of letting collapse arrive as a
surprise.

Bands change *policy*, not just reporting (see :mod:`repro.health.governor`):

* **flow** -- admission queue limits and retry-token refill tighten;
* **autoscale** -- clone floors rise while the system is degraded;
* **replication** -- repair sweeps gain flow priority and cadence;
* **magistrates** -- recovery sweeps accelerate;
* **Failed** -- non-critical application classes are paused (shed with a
  first-class reason) while a critical allowlist keeps serving.

Everything runs on simulated time from seeded state: band timelines and
ledgers are byte-identical across ``--jobs``.  With no
governor installed nothing in this package runs: zero hot-path cost.
"""

from repro.health.bands import Band, BandMachine, Transition
from repro.health.evidence import EvidenceCollector, HealthEvidence
from repro.health.governor import (
    DEFAULT_POLICIES,
    BandPolicy,
    Governor,
    GovernorConfig,
    enable_governor,
)
from repro.health.ledger import HealthLedger, LedgerRecord

__all__ = [
    "Band",
    "BandMachine",
    "BandPolicy",
    "DEFAULT_POLICIES",
    "EvidenceCollector",
    "Governor",
    "GovernorConfig",
    "HealthEvidence",
    "HealthLedger",
    "LedgerRecord",
    "Transition",
    "enable_governor",
]
