"""Calibrated stopwatch, order statistics, digests, phase spans, and the
timing loop for the (c) benches.

**Why host time is calibrated.**  The sandbox this ledger runs in switches
between machine-speed regimes that last seconds to minutes and differ by up
to 60 % (a pure-Python spin loop reads 13.5, 17.5 or 22 ms for the same
work; ``time.process_time`` moves with it, so it is not steal time).  Raw
wall time per batch therefore has a run-to-run spread of ~20 %, far beyond
any useful regression bound.  Every host-time number the ledger reports is
instead ``wall x machine_speed``, where ``machine_speed`` is taken from a
fixed calibration loop run immediately before and after the timed span: an
interpreter-bound one for the rich workloads, a memory-bound numpy one for
the columnar workloads (whose slowdown the interpreter loop tracks poorly).
On recorded data this cut the spread of a 3 s median from 20 % to under 2 %
(``warm_call``) and from 11 % to 1 % (``mega_sparse``).  ``load.machine_speed_x`` and ``load.raw_ops_per_s`` report
the factor and the uncalibrated rate next to the calibrated ones.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: A timed batch shorter than this has > 0.1 % clock-resolution error and is
#: dominated by loop overhead; the calibration below grows batches past it.
MIN_BATCH_S = 0.020


class _CalibrationNode:
    __slots__ = ("count", "table", "heap")

    def __init__(self) -> None:
        self.count = 0
        self.table: dict = {}
        self.heap: list = []

    def step(self, key, value):
        self.count += 1
        table = self.table
        table[key] = table.get(key, 0) + value
        heapq.heappush(self.heap, (value, self.count))
        if len(self.heap) > 64:
            heapq.heappop(self.heap)
        return (key, value, self.count)


def _calibration_process(node: _CalibrationNode):
    k = 0
    while True:
        yield node.step((k & 63, k & 7), k)
        k += 1


def interpreter_loop(n: int = 3000) -> int:
    """Fixed interpreter-bound work shaped like the rich call path:
    generator resumes, method calls, tuple keys in a dict, a small heap,
    short-lived tuples.  Independent of ``src/repro`` by construction."""
    send = _calibration_process(_CalibrationNode()).send
    send(None)
    acc = 0
    for i in range(n):
        acc += send(i)[2]
    return acc


_ARRAY_N = 250_000
_ARRAY_TARGETS = np.arange(0, _ARRAY_N, 499, dtype=np.int64)
_ARRAY_CLASS = (np.arange(_ARRAY_N) % 1000).astype(np.int32)
_ARRAY_VALUE = np.zeros(_ARRAY_N, dtype=np.int64)


def array_loop() -> int:
    """Fixed memory-bound numpy work (population-sized bincount, clip,
    in-place add, weighted bincount): what a slow neighbour does to the
    columnar workloads, which the interpreter loop tracks poorly."""
    arrivals = np.bincount(_ARRAY_TARGETS, minlength=_ARRAY_N)
    served = np.minimum(arrivals, 2)
    np.add(_ARRAY_VALUE, served, out=_ARRAY_VALUE)
    return int(np.bincount(_ARRAY_CLASS, weights=served, minlength=1000)[0])


#: Calibration kernels: name -> (loop, wall seconds at ``machine_speed`` 1.0
#: on the 2-core reference box in its middle regime).  Constants of the
#: yardstick: changing a loop or its reference rebases every host-time
#: metric measured with it.
CALIBRATION = {
    "interpreter": (interpreter_loop, 0.0017),
    "array": (array_loop, 0.00125),
}


class Stopwatch:
    """Times a call and scales the wall time by the machine speed around it.

    The calibration sample that trails one measurement leads the next, so
    back-to-back measurements cost one sample each.
    """

    def __init__(self, kernel: str = "interpreter") -> None:
        self._loop, self._ref_s = CALIBRATION[kernel]
        self.speeds: List[float] = []
        self._lead = self._sample()

    def _sample(self) -> float:
        # The loops make no cycles; with the collector on, a sample would
        # now and then pay for a traversal of the workload's whole heap.
        collecting = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            self._loop()
            return time.perf_counter() - began
        finally:
            if collecting:
                gc.enable()

    def measure(self, fn: Callable, *args):
        """``(fn(*args), wall seconds, calibrated seconds)``."""
        began = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - began
        trail = self._sample()
        speed = self._ref_s / ((self._lead + trail) / 2.0)
        self._lead = trail
        self.speeds.append(speed)
        return result, wall, wall * speed


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered) + 0.5)) - 1))
    return float(ordered[rank])


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(percentile used, its value): p99 when at least ten samples lie
    beyond it, else the highest of p95/p90/p75/p50 for which ten do."""
    for pct in (99.0, 95.0, 90.0, 75.0):
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def digest(parts: dict) -> str:
    """sha256 over the canonical JSON of a workload's simulated statistics."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phases:
    """Harness-side phase spans (``setup.build``, ``run.batch``, ...).

    A few dozen per run; always recorded, tracing on or off, so the set-up
    split is available without a traced pass.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        row = {"name": name, "start_ns": time.perf_counter_ns(), "end_ns": 0,
               "parent": parent, "id": index}
        self.spans.append(row)
        self._open.append(index)
        try:
            yield
        finally:
            row["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def seconds(self, prefix: str) -> Dict[str, float]:
        """Total seconds per span name starting with ``prefix``."""
        out: Dict[str, float] = {}
        for row in self.spans:
            if row["name"].startswith(prefix):
                out[row["name"]] = out.get(row["name"], 0.0) + (
                    row["end_ns"] - row["start_ns"]
                ) / 1e9
        return out


def per_item_ns(run: Callable, batches: int, start: int = 256,
                prepare: Callable = None, kernel: str = "interpreter") -> float:
    """Median calibrated ns per item over ``batches`` timed batches.

    ``run(n)`` does ``n`` items and consumes their results; with
    ``prepare``, ``run(prepare(n))`` does, and the preparation stays outside
    the timed span.  ``n`` is grown until one batch lasts
    :data:`MIN_BATCH_S`, then held for every batch.
    """
    prepare = prepare or (lambda n: n)
    watch = Stopwatch(kernel)
    n = start
    while True:
        _, took, _ = watch.measure(run, prepare(n))
        if took >= MIN_BATCH_S:
            break
        n = int(n * max(2.0, 1.2 * MIN_BATCH_S / max(took, 1e-6)))
    gc.collect()
    walls = [watch.measure(run, prepare(n))[2] for _ in range(batches)]
    return median(walls) / n * 1e9
