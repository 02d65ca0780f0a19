"""Declarative scenario language + application catalog (ROADMAP item 2).

Specs (:mod:`.spec`) describe arrival processes, session lifecycles,
target mixes, tenants, and phase timelines; :mod:`.events` compiles a
spec + seed into a backend-neutral event stream held as columns; :mod:`.drive` replays
it through the rich-object runtime and :mod:`.mega` through columnar
frame kernels at mega-scale populations.  :mod:`.catalog` ships the
named scenarios experiment E18 sweeps.
"""

from .catalog import catalog, get_scenario, scenario_names
from .events import (
    Arrival,
    Request,
    ScenarioStream,
    TickPlan,
    compile_events,
    per_tick_arrivals,
    stream_stats,
)
from .spec import (
    ArrivalSpec,
    MixSpec,
    PhaseSpec,
    ScenarioSpec,
    ScenarioSpecError,
    SessionSpec,
    TenantSpec,
    from_dict,
    validate,
)
from .drive import Deployment, ReplicaRouting, ScenarioDriver, SessionTally, deploy

__all__ = [
    "Arrival",
    "ArrivalSpec",
    "Deployment",
    "MixSpec",
    "PhaseSpec",
    "ReplicaRouting",
    "Request",
    "ScenarioDriver",
    "ScenarioSpec",
    "ScenarioSpecError",
    "ScenarioStream",
    "SessionSpec",
    "SessionTally",
    "TenantSpec",
    "TickPlan",
    "catalog",
    "compile_events",
    "deploy",
    "from_dict",
    "get_scenario",
    "per_tick_arrivals",
    "scenario_names",
    "stream_stats",
    "validate",
]
