"""Workload generators: popularity, locality, traffic, and churn.

Each driver is a thin object that *plans* (which client calls which target
when) and then runs the plan as simulation processes.  Planning is
separated from execution so experiments can inspect or replay plans.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LegionError, Overloaded, SecurityDenied
from repro.core.server import ObjectServer
from repro.naming.loid import LOID
from repro.simkernel.futures import SimFuture, gather
from repro.simkernel.kernel import Periodic, SimKernel, Timeout
from repro.workloads.calllog import DENIED, FAILED, OK, SHED, CallLog


class ZipfPopularity:
    """Zipf-distributed choice over N items (section 5.2.2's hot classes).

    ``s`` is the exponent: 0 gives uniform, larger is more skewed (the
    classic web/file-popularity regime is around 0.8-1.2).  Sampling uses
    an explicit normalised CDF over exactly N items, so probabilities are
    exact rather than tail-truncated.
    """

    def __init__(self, n: int, s: float = 1.0, rng: Optional[np.random.Generator] = None) -> None:
        if n < 1:
            raise LegionError(f"ZipfPopularity needs n >= 1, got {n}")
        if s < 0:
            raise LegionError(f"Zipf exponent must be >= 0, got {s}")
        self.n = n
        self.s = s
        ranks = np.arange(1, n + 1, dtype=float)
        weights = ranks ** (-s)
        self._cdf = np.cumsum(weights / weights.sum())
        self._rng = rng or np.random.default_rng(0)

    def sample(self) -> int:
        """One index in [0, n), rank 0 most popular."""
        return int(np.searchsorted(self._cdf, self._rng.random(), side="right"))


class LocalityMix:
    """Pick targets with a configured fraction of same-site accesses.

    Implements the paper's first scalability assumption knob: "most
    accesses will be local".  ``local_fraction=0.9`` means 90% of choices
    come from the caller's own site.
    """

    def __init__(
        self,
        targets_by_site: Dict[str, Sequence[LOID]],
        local_fraction: float,
        rng,
    ) -> None:
        if not 0.0 <= local_fraction <= 1.0:
            raise LegionError(f"local_fraction must be in [0,1], got {local_fraction}")
        self.targets_by_site = {k: list(v) for k, v in targets_by_site.items()}
        self.local_fraction = local_fraction
        self.rng = rng
        self._all_sites = sorted(self.targets_by_site)
        self._position = {site: i for i, site in enumerate(self._all_sites)}

    def choose(self, caller_site: str) -> LOID:
        """A target for a caller at ``caller_site``.

        A remote pick is uniform over every other site (over every site
        for a caller at none, or at the only one): the ``i``-th of the
        sorted sites with the caller's skipped, so its cost and memory do
        not grow with the number of sites.
        """
        local = self.targets_by_site.get(caller_site, [])
        if local and self.rng.random() < self.local_fraction:
            return local[self.rng.randrange(len(local))]
        sites = self._all_sites
        mine = self._position.get(caller_site)
        if mine is None or len(sites) == 1:
            site = sites[self.rng.randrange(len(sites))]
        else:
            i = self.rng.randrange(len(sites) - 1)
            site = sites[i + (i >= mine)]  # skip the caller's own site
        pool = self.targets_by_site[site]
        return pool[self.rng.randrange(len(pool))]


class TrafficStats(NamedTuple):
    """A driver's call counts, read from its call log when asked."""

    calls_issued: int
    calls_succeeded: int
    calls_failed: int  # shed, denied or failed
    errors: List[str]  # the first few ``failed`` messages

    @property
    def success_rate(self) -> float:
        """Fraction of issued calls that returned a value."""
        return self.calls_succeeded / self.calls_issued if self.calls_issued else 0.0


class SessionLoopDriver:
    """Shared session-loop core for every traffic driver.

    A driver owns a kernel, a roster of client consoles, a
    :class:`~repro.workloads.calllog.CallLog` of every call it issued,
    and one simulation process per client (``_client_loop``).  The log
    is the only call counter: ``stats`` reads it.  ``_invoke_once`` is
    the single place an invocation outcome is classified and written,
    so closed-loop, open-loop, and scenario drivers (``repro.scenarios``)
    count calls identically.  Subclasses set ``kind`` (the spawn-name
    prefix) and implement ``_client_loop(index, client)``.
    """

    kind = "session"

    def __init__(
        self,
        kernel: SimKernel,
        clients: Sequence[ObjectServer],
        log: CallLog,
        timeout: Optional[float] = None,
    ) -> None:
        self.kernel = kernel
        self.clients = list(clients)
        self.log = log
        self.timeout = timeout
        self.errors: List[str] = []

    @property
    def records(self) -> CallLog:
        """Every issued call as a light view, in issue order."""
        return self.log

    @property
    def stats(self) -> TrafficStats:
        """The calls issued so far, counted from the log's outcome column
        (a row not yet issued reads ``pending``, as an unsettled one does)."""
        outcome = self.log.outcome
        settled, ok = int(np.count_nonzero(outcome)), int(np.count_nonzero(outcome == OK))
        return TrafficStats(self.log.n, ok, settled - ok, self.errors)

    def _invoke_once(self, call, row: int, what: str):
        """Run one invocation (the generator ``call``) to its outcome.

        The outcome -- ``ok``, ``shed`` (Overloaded), ``denied``
        (SecurityDenied) or ``failed`` (any other LegionError) -- is
        written to the log's ``row`` with the settle time.  ``what``
        names the call in ``errors``, which keeps the first few
        ``failed`` messages.
        """
        try:
            yield from call
        except Overloaded:
            outcome = SHED
        except SecurityDenied:
            outcome = DENIED
        except LegionError as exc:
            outcome = FAILED
            if len(self.errors) < 32:
                self.errors.append(f"{what}: {exc}")
        else:
            outcome = OK
        log = self.log  # a growing log may have new columns by now
        log.outcome[row] = outcome
        log.done[row] = self.kernel.now

    def _client_loop(self, index: int, client: ObjectServer):
        raise NotImplementedError

    def start(self) -> SimFuture:
        """Spawn every client loop; future resolves with :attr:`stats`."""
        futures = [
            self.kernel.spawn(self._client_loop(i, c), name=f"{self.kind}-{c.loid}")
            for i, c in enumerate(self.clients)
        ]
        return gather(futures).then(
            lambda _results: self.stats, name=f"{self.kind}-stats"
        )


class TrafficDriver(SessionLoopDriver):
    """Closed-loop traffic: each client waits for a reply before its next call.

    Each client issues ``calls_per_client`` invocations, each of the
    ``(target_loid, method, args)`` that ``choose_call(client)`` returns,
    with ``think_time`` simulated ms after each.  The log's phase of a
    row is its client (an index into ``clients``).  :meth:`start`
    returns a :class:`TrafficStats` future (resolve by running the
    kernel).
    """

    kind = "traffic"

    def __init__(
        self,
        kernel: SimKernel,
        clients: Sequence[ObjectServer],
        choose_call,
        calls_per_client: int = 10,
        think_time: float = 1.0,
        timeout: Optional[float] = None,
    ) -> None:
        clients = list(clients)
        phases = [str(c.loid) for c in clients]
        super().__init__(kernel, clients, CallLog((), phases), timeout=timeout)
        self.choose_call = choose_call
        self.calls_per_client = calls_per_client
        self.think_time = think_time

    def _client_loop(self, index: int, client: ObjectServer):
        kernel, log = self.kernel, self.log
        for _i in range(self.calls_per_client):
            target, method, args = self.choose_call(client)
            row = log.append(kernel.now, method, index)
            call = client.runtime.invoke(target, method, *args, timeout=self.timeout)
            yield from self._invoke_once(call, row, method)
            if self.think_time > 0:
                yield Timeout(self.think_time)


class OpenLoopDriver(SessionLoopDriver):
    """Fixed-rate (open-loop) traffic: offered load independent of latency.

    The closed-loop :class:`TrafficDriver` caps throughput at
    clients/latency -- useless for saturation studies, where the point is
    that the *offered* rate keeps growing whether or not the target keeps
    up.  Here each client walks ``schedule``, a list of ``(duration,
    interval)`` phases, firing one invocation every ``interval``
    simulated ms until the phase ends, without waiting for the previous
    reply; the driver future resolves when every fired call has settled.
    Client ``i`` starts ``i * stagger`` ms late, so the offered load can
    be smooth rather than N-synchronised bursts.

    ``choose_call(client)`` returns ``(target_loid, method, args)`` per
    call, as it does for :class:`TrafficDriver`, so a mixed workload
    (cheap method traffic plus occasional Create()s) is one callback.
    ``log`` keeps one row per fired call (its kind is the method), in
    firing order: goodput windows and latency percentiles need the raw
    samples.
    """

    kind = "openloop"

    def __init__(
        self,
        kernel: SimKernel,
        clients: Sequence[ObjectServer],
        choose_call,
        schedule: Sequence[Tuple[float, float]],
        stagger: float = 0.0,
        timeout: Optional[float] = None,
    ) -> None:
        super().__init__(kernel, clients, CallLog((), None), timeout=timeout)
        self.choose_call = choose_call
        self.schedule = list(schedule)
        self.stagger = stagger

    def _client_loop(self, index: int, client: ObjectServer):
        kernel, log = self.kernel, self.log
        offset = index * self.stagger
        if offset > 0.0:
            yield Timeout(offset)
        calls = []
        for duration, interval in self.schedule:
            end = kernel.now + duration
            while kernel.now < end:
                target, method, args = self.choose_call(client)
                row = log.append(kernel.now, method, None)
                call = client.runtime.invoke(
                    target, method, *args, timeout=self.timeout
                )
                calls.append(
                    kernel.spawn(
                        self._invoke_once(call, row, method), name="openloop-call"
                    )
                )
                # Never sleep past the phase: the next one starts on time.
                yield Timeout(min(interval, end - kernel.now))
        for fut in calls:  # drain: every fired call must settle
            yield fut


#: Share of ChurnDriver rounds that Move their object (the rest Deactivate).
MOVE_FRACTION = 0.5


class ChurnDriver(Periodic):
    """Manufacture stale bindings by cycling objects through magistrates.

    Every ``interval`` simulated ms, pick a random managed object and
    either Deactivate it (a later reference re-activates it at a possibly
    different address) or Move it to another magistrate.  This is the
    workload knob behind experiment E6 (section 4.1.4).  The loop runs
    from :meth:`start` until :meth:`stop`.
    """

    def __init__(
        self,
        kernel: SimKernel,
        driver_client: ObjectServer,
        objects: Sequence[LOID],
        magistrates: Sequence[LOID],
        class_loid: LOID,
        rng,
        interval: float = 50.0,
    ) -> None:
        self.kernel = kernel
        self.client = driver_client
        self.objects = list(objects)
        self.magistrates = list(magistrates)
        self.class_loid = class_loid
        self.rng = rng
        self.interval = interval
        self.churn_events = 0
        #: True while a round is in flight (``stop()`` would cut it short).
        self.busy = False

    def _loops(self):
        return [("churn", self.interval, lambda: self.interval, self._churn)]

    def _churn(self):
        # A LegionError ends the round: racing concurrent traffic is expected.
        self.busy = True
        try:
            loid = self.objects[self.rng.randrange(len(self.objects))]
            row = yield from self.client.runtime.invoke(
                self.class_loid, "GetRow", loid
            )
            if not row.current_magistrates:
                return
            magistrate = row.current_magistrates[0]
            if (
                len(self.magistrates) > 1
                and self.rng.random() < MOVE_FRACTION
            ):
                others = [m for m in self.magistrates if m != magistrate]
                target = others[self.rng.randrange(len(others))]
                yield from self.client.runtime.invoke(
                    magistrate, "Move", loid, target
                )
            else:
                yield from self.client.runtime.invoke(
                    magistrate, "Deactivate", loid
                )
            self.churn_events += 1
        finally:
            self.busy = False
