"""The five-band operating-mode state machine (bands, not points).

Bands follow the archon72 legitimacy design (SNIPPETS.md sections 1-2):
health is measured in **bands, not numeric scores**, bands change **by
rule, not debate**, and movement is **one step at a time** in both
directions -- a system cannot skip from Stable to Compromised, and a
recovering system must climb back through every band it fell through.

Transitions are driven by windowed :class:`~repro.health.evidence
.HealthEvidence` against a threshold ladder:

* **degrading**: a signal exceeding ``threshold * LADDER[s-1]`` indicates
  severity ``s``; when the indicated severity exceeds the current band
  (and the degrade dwell since entering the band has elapsed), the band
  moves one step down the health scale.
* **recovering**: recovery demands more than the absence of the degrade
  trigger -- every signal must sit below the *hysteresis-scaled*
  thresholds of the current band (``RECOVER_FRACTION < 1``) continuously
  for ``RECOVER_DWELL`` simulated ms.  One hot tick resets the calm
  streak, so alternating hot/calm evidence ratchets the band at its
  worst level instead of oscillating.

The machine is pure data + arithmetic: no kernel, no wires.  The
:class:`~repro.health.governor.Governor` drives it on simulated time and
ledgers its transitions; unit and property tests drive it directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple


class Band(enum.IntEnum):
    """Operating modes, ordered by severity (0 = healthy)."""

    STABLE = 0
    STRAINED = 1
    ERODING = 2
    COMPROMISED = 3
    FAILED = 4

    @property
    def label(self) -> str:
        """Canonical lower-case name used in ledgers and reports."""
        return self.name.lower()


#: What each band means, in one line.
_DESCRIPTIONS = {
    Band.STABLE: "normal operations; signals inside every threshold",
    Band.STRAINED: "repeated pressure; admission and retries tighten",
    Band.ERODING: "sustained degradation; floors rise, sweeps accelerate",
    Band.COMPROMISED: "service no longer presumptively healthy; heavy shedding",
    Band.FAILED: "non-critical classes paused; only the allowlist serves",
}

#: Signal name → HealthEvidence attribute carrying it.  Order is the
#: canonical reason order (alphabetical) used in ledger records.
SIGNALS: Tuple[Tuple[str, str], ...] = (
    ("loss_backlog", "loss_backlog"),
    ("queue_depth", "queue_depth"),
    ("retry_denied_rate", "retry_denied_rate"),
    ("shed_rate", "shed_rate"),
    ("under_replicated", "under_replicated"),
)

#: Severity-1 (Strained) threshold of each signal.  A value strictly
#: above ``THRESHOLDS[name] * LADDER[s-1]`` indicates severity ``s``.
THRESHOLDS = {
    #: Objects lost (FaultLog) and not yet observed recovered.
    "loss_backlog": 2.0,
    #: Worst per-server backlog (in flight + admission queue).
    "queue_depth": 24.0,
    #: Retry-token denials per simulated ms, system-wide.
    "retry_denied_rate": 0.1,
    #: Admission sheds per simulated ms, system-wide.
    "shed_rate": 0.3,
    #: Replica groups below their target size (0 without replication).
    "under_replicated": 1.0,
}
#: Multiplier per severity step; strictly increasing so severities nest,
#: one per band below Stable (Strained, Eroding, Compromised, Failed).
LADDER: Tuple[float, ...] = (1.0, 3.0, 9.0, 27.0)
#: Recovery thresholds as a fraction of the degrade thresholds, in
#: (0, 1]: the per-direction hysteresis gap.
RECOVER_FRACTION = 0.5
#: Minimum simulated ms in a band before degrading one further step.
DEGRADE_DWELL = 30.0
#: Minimum continuously-calm simulated ms before recovering one step.
RECOVER_DWELL = 80.0


def breaches(evidence, scale: float = 1.0) -> List[Tuple[str, int]]:
    """(signal, severity) for every signal above a scaled threshold.

    ``scale`` < 1 tightens the thresholds (the recovery test); severity
    is the highest rung the signal clears.  Sorted by signal name so
    reasons are deterministic.
    """
    out: List[Tuple[str, int]] = []
    for name, attr in SIGNALS:
        value = float(getattr(evidence, attr))
        base = THRESHOLDS[name] * scale
        severity = 0
        for rung, multiplier in enumerate(LADDER, start=1):
            if value > base * multiplier:
                severity = rung
        if severity:
            out.append((name, severity))
    return out


def severity(evidence, scale: float = 1.0) -> Band:
    """The worst indicated severity (Stable when nothing breaches)."""
    return Band(max((s for _n, s in breaches(evidence, scale)), default=0))


def reasons_at(evidence, at_least: int) -> List[str]:
    """Signals indicating at least ``at_least`` (the transition reason)."""
    return [n for n, s in breaches(evidence) if s >= at_least]


@dataclass(frozen=True)
class Transition:
    """One band change, as decided by :meth:`BandMachine.step`."""

    time: float
    from_band: Band
    to_band: Band
    #: "degrade" | "recover".
    direction: str
    #: Breached signals (degrade) or "calm" (recover).
    reason: str
    #: The severity the evidence indicated at decision time.
    severity: Band


class BandMachine:
    """Current band + the transition rules (pure; no kernel, no wires).

    :data:`DEGRADE_DWELL` is the minimum time in a band before degrading
    further (one step per dwell, even under catastrophic evidence -- the
    "never skips a band" rule).  :data:`RECOVER_DWELL` is the minimum
    *continuously calm* time before recovering one step; any hot tick
    resets the streak.
    """

    def __init__(self, now: float = 0.0) -> None:
        self.band = Band.STABLE
        #: Simulated time the current band was entered.
        self.entered_at = now
        #: Start of the current continuously-calm streak (None = hot).
        self._calm_since: Optional[float] = None

    # ------------------------------------------------------------------ step

    def step(self, evidence, now: float) -> Optional[Transition]:
        """Advance one observation; return the Transition taken, or None.

        At most one band of movement per call, in either direction --
        callers tick on a cadence, so the dwell times bound the slew rate
        in simulated time, not in tick counts.
        """
        indicated = severity(evidence)
        if indicated > self.band:
            # Degrading: evidence indicates a worse band than we are in.
            self._calm_since = None
            if now - self.entered_at < DEGRADE_DWELL and self.band > Band.STABLE:
                return None
            target = Band(self.band + 1)
            reason = ",".join(reasons_at(evidence, target))
            return self._move(target, "degrade", reason, indicated, now)
        if self.band is Band.STABLE:
            self._calm_since = None
            return None
        # Candidate recovery: calm means *every* signal sits below the
        # hysteresis-scaled thresholds of the band we would drop to the
        # edge of -- i.e. the tightened evidence reads below the current
        # band, not merely "no longer above it".
        calm = severity(evidence, RECOVER_FRACTION) < self.band
        if not calm:
            self._calm_since = None
            return None
        if self._calm_since is None:
            self._calm_since = now
        streak_ok = now - self._calm_since >= RECOVER_DWELL
        dwell_ok = now - self.entered_at >= RECOVER_DWELL
        if not (streak_ok and dwell_ok):
            return None
        return self._move(Band(self.band - 1), "recover", "calm", indicated, now)

    def _move(
        self, to_band: Band, direction: str, reason: str, indicated: Band, now: float
    ) -> Transition:
        transition = Transition(
            time=now,
            from_band=self.band,
            to_band=to_band,
            direction=direction,
            reason=reason,
            severity=indicated,
        )
        self.band = to_band
        self.entered_at = now
        self._calm_since = None
        return transition
