"""Tamper-evident, append-only ledger of band transitions.

Following the archon72 design (SNIPPETS.md section 2), band changes are
not just logged -- they are *ledgered*: every transition is appended as a
record carrying the evidence snapshot that justified it, chained to its
predecessor by a SHA-256 hash over a canonical serialization.  Editing,
dropping, or reordering any historical record breaks every later hash,
so ``python -m repro.health.verify LEDGER`` can prove a band timeline
intact (or name the first corrupted sequence number).

Canonical form: JSON with sorted keys and compact separators, floats
pre-rounded by ``HealthEvidence.to_json``.  Serialization is therefore
byte-deterministic across ``--jobs``, which is what makes
the E17 ledgers merge- and diff-stable artifacts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.health.bands import Transition

#: The chain anchor: the prev_hash of sequence 0.  A fixed, public
#: constant -- tamper evidence comes from the chain, not from a secret.
GENESIS = hashlib.sha256(b"repro.health.ledger/genesis").hexdigest()


def canonical(body: Dict[str, Any]) -> str:
    """The canonical serialization hashes are computed over."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def record_hash(body: Dict[str, Any]) -> str:
    """SHA-256 of the canonical form of a record body (sans ``hash``)."""
    return hashlib.sha256(canonical(body).encode("ascii")).hexdigest()


@dataclass(frozen=True)
class LedgerRecord:
    """One ledgered band transition (immutable once appended)."""

    seq: int
    time: float
    from_band: str
    to_band: str
    direction: str
    reason: str
    severity: str
    evidence: Dict[str, Any]
    prev_hash: str
    hash: str

    def body(self) -> Dict[str, Any]:
        """The hashed fields, in canonical dict form (no ``hash``)."""
        return {
            "seq": self.seq,
            "time": round(self.time, 6),
            "from_band": self.from_band,
            "to_band": self.to_band,
            "direction": self.direction,
            "reason": self.reason,
            "severity": self.severity,
            "evidence": self.evidence,
            "prev_hash": self.prev_hash,
        }

    def to_json(self) -> Dict[str, Any]:
        return {**self.body(), "hash": self.hash}


class HealthLedger:
    """Append-only list of :class:`LedgerRecord`, hash-chained in order."""

    def __init__(self) -> None:
        self.records: List[LedgerRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    @property
    def head(self) -> str:
        """Hash of the newest record (GENESIS while empty)."""
        return self.records[-1].hash if self.records else GENESIS

    def append(self, transition: Transition, evidence) -> LedgerRecord:
        """Ledger one transition with its justifying evidence snapshot."""
        body = {
            "seq": len(self.records),
            "time": round(transition.time, 6),
            "from_band": transition.from_band.label,
            "to_band": transition.to_band.label,
            "direction": transition.direction,
            "reason": transition.reason,
            "severity": transition.severity.label,
            "evidence": evidence.to_json(),
            "prev_hash": self.head,
        }
        record = LedgerRecord(**body, hash=record_hash(body))
        self.records.append(record)
        return record

    # -------------------------------------------------------------- round-trip

    def to_json(self) -> List[Dict[str, Any]]:
        return [r.to_json() for r in self.records]

    def write(self, path) -> None:
        """One canonical JSON record per line (the artifact format)."""
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(canonical(record.to_json()) + "\n")

    @staticmethod
    def load_records(path) -> List[Dict[str, Any]]:
        """Parse a JSONL ledger file back into record dicts."""
        records = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return records

    # ------------------------------------------------------------ verification

    @staticmethod
    def verify_records(records: Iterable[Dict[str, Any]]) -> Optional[str]:
        """Recompute the chain; return an error string, or None if intact.

        Checks, per record: contiguous ``seq``, ``prev_hash`` equal to the
        predecessor's ``hash`` (GENESIS at seq 0), and ``hash`` equal to
        the recomputed SHA-256 of the canonical body.
        """
        prev = GENESIS
        for index, record in enumerate(records):
            seq = record.get("seq")
            if seq != index:
                return f"record {index}: seq {seq!r}, expected {index}"
            if record.get("prev_hash") != prev:
                return f"record {index}: prev_hash does not match chain head"
            body = {k: v for k, v in record.items() if k != "hash"}
            expected = record_hash(body)
            if record.get("hash") != expected:
                return f"record {index}: hash mismatch (record edited?)"
            prev = record["hash"]
        return None

    def verify(self) -> Optional[str]:
        """Self-check the in-memory chain (None = intact)."""
        return self.verify_records(self.to_json())
