"""Ledger verification CLI: prove a band-transition ledger intact.

Usage::

    python -m repro.health.verify LEDGER [LEDGER ...]

Each LEDGER is a JSONL file written by :meth:`HealthLedger.write_records` (one
canonical record per line).  The chain is recomputed from GENESIS: any
edited, dropped, or reordered record makes the process exit non-zero and
name the first bad sequence number.  Verification depends only on the
file bytes, so it is stable across ``--jobs`` and across
machines -- CI verifies the E17 ledger artifacts with exactly this
entry point.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.health.ledger import HealthLedger


def verify_file(path: str) -> Optional[str]:
    """Verify one ledger file; return an error string or None if intact."""
    try:
        records = HealthLedger.load_records(path)
    except (OSError, ValueError) as exc:
        return f"unreadable ledger: {exc}"
    return HealthLedger.verify_records(records)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or "-h" in argv or "--help" in argv:
        print(__doc__.strip())
        return 0 if argv else 2
    status = 0
    for path in argv:
        error = verify_file(path)
        if error is None:
            count = len(HealthLedger.load_records(path))
            print(f"{path}: OK ({count} records, chain intact)")
        else:
            print(f"{path}: TAMPERED -- {error}")
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
