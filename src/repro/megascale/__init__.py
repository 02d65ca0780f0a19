"""Columnar mega-scale backend: state tables + frame-at-once kernels.

The bulk of a 10^6-10^7 object population lives in a
:class:`~repro.megascale.frame.StateFrame` (numpy columns over dense,
never-recycled ids); :class:`~repro.megascale.engine.BulkEngine` applies
whole-tick transitions as array operations; any id the scenario actually
touches crosses the escalation boundary into the ordinary rich-object
path and folds back when quiet.  ``repro.megascale.reference`` is the
numpy-free per-agent twin the differential tests trust; the scenario
module runs the same seeded plan through either backend.
"""

from repro.megascale.frame import BULK, HOT, PROMOTED, IdAllocator, StateFrame
from repro.megascale.engine import BulkEngine, EngineLedger, TickOutcome
from repro.megascale.reference import ReferenceMachine, RefLedger, RefObject
from repro.megascale.scenario import (
    LiveEscalationBoundary,
    MegaOutcome,
    MegaReport,
    MegaScenario,
    build_plan,
    differential_spec,
    run_columnar,
    run_rich,
)

__all__ = [
    "BULK",
    "HOT",
    "PROMOTED",
    "IdAllocator",
    "StateFrame",
    "BulkEngine",
    "EngineLedger",
    "TickOutcome",
    "ReferenceMachine",
    "RefLedger",
    "RefObject",
    "LiveEscalationBoundary",
    "MegaOutcome",
    "MegaReport",
    "MegaScenario",
    "build_plan",
    "differential_spec",
    "run_columnar",
    "run_rich",
]
