"""Compare two ledger result files: ``compare.py A.json B.json``.

One row per (workload, metric) present in both files, with both values, the
ratio B/A **with its base** (A), the bound, and a verdict:

* ``ok``         -- within the bound (host time), or identical (exact count);
* ``better``     -- an exact count moved in its good direction;
* ``worse``      -- worsened by more than the bound, or an exact count moved
  in its bad direction;
* ``unresolved`` -- a side's own batch-to-batch spread is wider than the
  bound, so the pair cannot show a change of that size either way;
* ``info``       -- a per-layer host-time metric: reported, not judged.

Exit status is non-zero on any ``worse`` row, any sim-digest mismatch, or a
higher ``failed_share``.  A is the base of every ratio.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402

#: ISSUE 11: set-up may worsen by its bound *or* 50 ms, whichever is larger
#: (a 10 ms build cannot be held to a quarter of itself).
SETUP_FLOOR_S = 0.050


def worsening(metric: catalog.Metric, a: float, b: float) -> float:
    """By what share of A did B get worse (negative = better)."""
    if a == 0:
        change = 0.0 if b == 0 else (float("inf") if b > 0 else float("-inf"))
    else:
        change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def verdict(name: str, row_a: dict, row_b: dict) -> str:
    metric = catalog.lookup(name)
    a, b = row_a["value"], row_b["value"]
    if metric.exact:
        if a == b:
            return "ok"
        return "worse" if worsening(metric, a, b) > 0 else "better"
    if metric.bound is None:
        return "info"
    if max(row_a.get("spread", 0.0), row_b.get("spread", 0.0)) > metric.bound:
        return "unresolved"
    if name == "setup_s" and abs(b - a) <= SETUP_FLOOR_S:
        return "ok"
    return "worse" if worsening(metric, a, b) > metric.bound else "ok"


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    """Print the table; returns the exit status."""
    status = 0
    header = f"{'workload':<16}{'metric':<44}{'A':>14}{'B':>14}  {'B/A (base A)':<22}{'bound':>7}  verdict"
    print(header, file=out)
    sections = [(name, a["workloads"][name], b["workloads"][name])
                for name in a["workloads"] if name in b["workloads"]]
    for workload, rec_a, rec_b in sections:
        if rec_a["digest"] != rec_b["digest"] and a["seed"] == b["seed"]:
            print(f"{workload:<16}sim digest differs: {rec_a['digest'][:16]} vs "
                  f"{rec_b['digest'][:16]}  -> MISMATCH", file=out)
            status = 1
        if rec_b["failed"] / max(1, rec_b["attempted"]) > rec_a["failed"] / max(
            1, rec_a["attempted"]
        ):
            status = 1
        status |= print_rows(workload, rec_a["metrics"], rec_b["metrics"], out)
    if "direct" in a and "direct" in b:
        status |= print_rows("direct", a["direct"], b["direct"], out)
    return status


def print_rows(label: str, metrics_a: dict, metrics_b: dict, out) -> int:
    status = 0
    for name, row_a in metrics_a.items():
        if name not in metrics_b:
            continue
        row_b = metrics_b[name]
        metric = catalog.lookup(name)
        result = verdict(name, row_a, row_b)
        a, b = row_a["value"], row_b["value"]
        ratio = f"{b / a:.4f} (A={a:.6g})" if a else f"n/a (A={a:.6g})"
        bound = "exact" if metric.exact else (f"{metric.bound:.0%}" if metric.bound else "-")
        print(f"{label:<16}{name:<44}{a:>14.6g}{b:>14.6g}  {ratio:<22}{bound:>7}  {result}",
              file=out)
        if result == "worse":
            status = 1
    return status


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    loaded = []
    for path in args:
        with open(path) as fh:
            loaded.append(json.load(fh))
    return compare(*loaded)


if __name__ == "__main__":
    sys.exit(main())
