"""CloneController: the closed loop from load to clone-pool size.

Policy (classic hysteresis + cooldown):

* Every :data:`TICK` simulated ms, sample the pool's aggregate request
  and shed rates (parent class + live clones) from the
  :class:`LoadMonitor`.
* If the per-member request rate exceeds ``high_water``, grow the pool
  toward ``ceil((requests + sheds) / high_water)`` members, placing each
  new clone through the scheduling agent's ``ChoosePlacement``
  (least-loaded accepting host) -- unless a shrink happened within
  ``cooldown`` ms.
* If the per-member rate falls below ``low_water`` (the hysteresis gap)
  and nothing was shed, retire the youngest clone via ``RetireClone``
  -- the clone leaves the routing pool immediately, drains its
  in-flight work, and is folded back into an OPR -- unless a spawn
  happened within ``cooldown`` ms.

Everything runs on simulated time from seeded state, so a run is
byte-identical across ``--jobs 1`` and ``--jobs N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import InvalidArgument
from repro.autoscale.monitor import LoadMonitor
from repro.core.server import ObjectServer
from repro.metrics.counters import ComponentKind
from repro.naming.binding import Binding
from repro.scheduling.agent import LeastLoadedPlacementAgent
from repro.simkernel.kernel import Periodic
from repro.system.bootstrap import start_out_of_band


@dataclass(frozen=True)
class AutoscaleConfig:
    """Controller knobs.  ``high_water``/``low_water`` are requests per
    simulated ms *per pool member*; the gap between them is the
    hysteresis band."""

    high_water: float
    low_water: float
    cooldown: float = 50.0
    min_clones: int = 0
    max_clones: int = 8

    def __post_init__(self) -> None:
        # Chained comparisons, which NaN fails too.
        if not 0.0 <= self.low_water < self.high_water < math.inf:
            raise InvalidArgument(
                f"AutoscaleConfig low_water={self.low_water!r}, high_water="
                f"{self.high_water!r}: need 0 <= low_water < high_water < inf "
                "(a hysteresis gap)"
            )
        if not 0.0 <= self.cooldown < math.inf:
            raise InvalidArgument(
                f"AutoscaleConfig cooldown={self.cooldown!r}: must be in [0, inf)"
            )
        for name in ("min_clones", "max_clones"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidArgument(f"AutoscaleConfig {name}={value!r}: must be an int")
        if not 0 <= self.min_clones <= self.max_clones:
            raise InvalidArgument(
                f"AutoscaleConfig min_clones={self.min_clones!r}, max_clones="
                f"{self.max_clones!r}: need 0 <= min_clones <= max_clones"
            )


#: Simulated ms between two samples of the control loop.
TICK = 8.0


def build_placement_agent(system) -> ObjectServer:
    """Start a LeastLoadedPlacementAgent as a real Legion object.

    Registered out-of-band under StandardScheduler (the same adoption
    path Host Objects and Magistrates use, section 4.2.1), knowing every
    site's magistrate.
    """
    scheduler_class = system.standard_classes["StandardScheduler"]
    magistrates = [
        system.magistrates[site].loid for site in sorted(system.magistrates)
    ]
    impl = LeastLoadedPlacementAgent(magistrates)
    loid = scheduler_class.impl._allocate_instance_loid()
    host = system.site_hosts[system.sites[0].name][0]
    server = start_out_of_band(
        system.services, loid, impl, host, ComponentKind.SCHEDULER, "placement", 128
    )
    system.call(scheduler_class.loid, "RegisterOutOfBand", server.binding())
    return server


class CloneController(Periodic):
    """One control loop bound to one (hot) class object."""

    def __init__(
        self,
        system,
        class_binding: Binding,
        config: AutoscaleConfig,
        placement: ObjectServer,
    ) -> None:
        self.system = system
        self.kernel = system.kernel
        self.class_loid = class_binding.loid
        self.config = config
        self.placement_loid = placement.loid
        self.monitor = LoadMonitor(system)
        self.client = system.new_client(f"autoscaler-{class_binding.loid}")
        self.client.runtime.seed_binding(class_binding)
        #: (simulated time, "spawn" | "retire", clone LOID string) --
        #: the audit trail the property tests assert invariants over.
        self.actions: List[Tuple[float, str, str]] = []
        self._last_grow = float("-inf")
        self._last_shrink = float("-inf")

    # -------------------------------------------------------------------- loop

    def _loops(self):
        return [(f"autoscaler-{self.class_loid}", TICK, lambda: TICK, self._tick)]

    def _tick(self):
        sample = self.monitor.sample()
        _epoch, pool = yield from self.client.runtime.invoke(self.class_loid, "GetClonePool")
        clones = pool[1:]
        members = [str(self.class_loid)] + [str(c.loid) for c in clones]
        total = sample.pool_rate(members)
        shed = sample.pool_shed_rate(members)
        per_member = total / len(members)
        now = self.system.kernel.now
        cfg = self.config
        if (
            per_member > cfg.high_water
            and len(clones) < cfg.max_clones
            and now - self._last_shrink >= cfg.cooldown
        ):
            # Served + shed is the *demand* the pool must absorb; under
            # admission control the served rate alone is capacity-capped.
            demand = total + shed
            desired = max(
                len(members) + 1, math.ceil(demand / cfg.high_water)
            )
            desired = min(desired, cfg.max_clones + 1)
            for _ in range(desired - len(members)):
                yield from self._spawn_clone()
        elif (
            per_member < cfg.low_water
            and shed == 0.0
            and len(clones) > cfg.min_clones
            and now - self._last_grow >= cfg.cooldown
        ):
            # One retirement per tick (LIFO): scale-down is cheap to defer
            # and a drain mid-burst is expensive to regret.
            yield from self._retire_clone(clones[-1])

    def _spawn_clone(self):
        opts = {}
        magistrate, host = yield from self.client.runtime.invoke(
            self.placement_loid, "ChoosePlacement", self.class_loid, None
        )
        if magistrate is not None:
            opts["magistrate"] = magistrate
        if host is not None:
            opts["host"] = host
        binding = yield from self.client.runtime.invoke(
            self.class_loid, "Clone", opts
        )
        self._last_grow = self.system.kernel.now
        self.actions.append((self.system.kernel.now, "spawn", str(binding.loid)))
        return binding

    def _retire_clone(self, victim: Binding):
        yield from self.client.runtime.invoke(
            self.class_loid, "RetireClone", victim.loid
        )
        self._last_shrink = self.system.kernel.now
        self.actions.append((self.system.kernel.now, "retire", str(victim.loid)))
