"""The named scenario catalog (>= 5 shapes, ISSUE 10 / ROADMAP item 2).

Every entry is written in the declarative dictionary form and built via
:func:`repro.scenarios.spec.from_dict`, so the catalog itself exercises
the validation path and doubles as the language's reference examples.

Durations are the ``--quick`` sizes; E18 stretches them for ``--full``
runs by compiling the same spec with longer phases (see the experiment).
"""

from __future__ import annotations

from typing import Dict, List

from .spec import ScenarioSpec, ScenarioSpecError, from_dict

_CATALOG_DICTS = (
    {
        # Wide-area daily rhythm: three jurisdictions whose offered load
        # follows a sinusoid phase-shifted by a third of a period each --
        # the paper's campus/time-zone picture.  Peaks must land at
        # different ticks per site.
        "name": "diurnal-regional",
        "description": "time-zone-offset sinusoid load per jurisdiction",
        "sites": 3,
        "n_classes": 2,
        "service_time": 2.0,
        "mix": {"kinds": {"work": 1.0}, "zipf_s": 0.0, "locality": 0.9},
        "phases": [
            {
                "name": "day",
                "duration": 480.0,
                "arrival": {
                    "kind": "diurnal",
                    "rate": 0.9,
                    "amplitude": 0.8,
                    "period": 240.0,
                },
                "session": {
                    "think_time": 10.0,
                    "p_continue": 0.6,
                    "p_abandon": 0.4,
                    "max_requests": 3,
                },
            }
        ],
    },
    {
        # A step surge concentrated on one hot class: Zipf skew sends most
        # sessions to class 0, and mid-phase the arrival rate steps up 8x
        # for 80 ms.
        "name": "flash-crowd",
        "description": "step surge on one Zipf-hot class",
        "sites": 2,
        "n_classes": 4,
        "service_time": 2.0,
        "mix": {"kinds": {"work": 1.0}, "zipf_s": 1.5, "locality": 0.8},
        "phases": [
            {
                "name": "watch",
                "duration": 480.0,
                "arrival": {
                    "kind": "flash",
                    "rate": 0.5,
                    "surge_at": 160.0,
                    "surge_duration": 80.0,
                    "surge_mult": 8.0,
                },
                "session": {
                    "think_time": 6.0,
                    "p_continue": 0.5,
                    "p_abandon": 0.5,
                    "max_requests": 2,
                },
            }
        ],
    },
    {
        # Mixed-priority tenants under contention.  The premium tenant is
        # the only one allowed through the Privileged MayI gate; standard
        # and batch tenants keep probing it, so the security path is
        # exercised *while* the deployment is saturated.
        "name": "multi-tenant",
        "description": "mixed-priority tenants probing MayI under contention",
        "sites": 2,
        "n_classes": 2,
        "service_time": 2.0,
        "tenants": [
            {"name": "premium", "weight": 0.3, "deadline": 400.0, "privileged": True},
            {"name": "standard", "weight": 0.5},
            {"name": "batch", "weight": 0.2},
        ],
        "mix": {"kinds": {"work": 0.85, "privileged": 0.15}, "locality": 0.7},
        "phases": [
            {
                "name": "ramp",
                "duration": 160.0,
                "arrival": {"kind": "poisson", "rate": 0.6},
                "session": {
                    "think_time": 8.0,
                    "p_continue": 0.5,
                    "p_abandon": 0.5,
                    "max_requests": 3,
                },
            },
            {
                "name": "contention",
                "duration": 240.0,
                "arrival": {"kind": "poisson", "rate": 1.6},
                "session": {
                    "think_time": 5.0,
                    "p_continue": 0.6,
                    "p_abandon": 0.4,
                    "max_requests": 3,
                },
            },
            {
                "name": "calm",
                "duration": 160.0,
                "arrival": {"kind": "poisson", "rate": 0.4},
                "session": {
                    "think_time": 8.0,
                    "p_continue": 0.5,
                    "p_abandon": 0.5,
                    "max_requests": 2,
                },
            },
        ],
    },
    {
        # Metacomputing heritage: few long-running batch jobs (many
        # requests per session, heavy work units) arriving slowly -- the
        # shape checkpoint/restart (SaveState/OPRs) exists for.
        "name": "scientific-batch",
        "description": "long-running batch jobs with checkpoint/restart",
        "sites": 2,
        "n_classes": 2,
        "service_time": 2.0,
        "batch_units": 3.0,
        "mix": {"kinds": {"batch": 1.0}, "locality": 1.0},
        "phases": [
            {
                "name": "campaign",
                "duration": 600.0,
                "arrival": {"kind": "poisson", "rate": 0.12},
                "session": {
                    "think_time": 12.0,
                    "p_continue": 0.9,
                    "p_abandon": 0.1,
                    "max_requests": 6,
                },
            }
        ],
    },
    {
        # FEDORA-style digital repository: overwhelmingly reads with rare
        # writes over Zipf-hot keys, mostly local to each jurisdiction --
        # the shape replicated stores (--replicas) are for.
        "name": "repository",
        "description": "FEDORA-style reader-heavy repository, rare writes",
        "sites": 3,
        "n_classes": 2,
        "targets_per_site": 1,
        "service_time": 2.0,
        "read_time": 0.25,
        "consistency": "primary-copy",
        "mix": {"kinds": {"read": 0.96, "write": 0.04}, "zipf_s": 1.1, "locality": 0.85},
        "phases": [
            {
                "name": "browse",
                "duration": 480.0,
                "arrival": {"kind": "poisson", "rate": 1.4},
                "session": {
                    "think_time": 6.0,
                    "p_continue": 0.6,
                    "p_abandon": 0.4,
                    "max_requests": 4,
                },
            }
        ],
    },
)


def catalog() -> Dict[str, ScenarioSpec]:
    """Name -> validated spec for every catalog scenario."""
    specs = [from_dict(d) for d in _CATALOG_DICTS]
    return {spec.name: spec for spec in specs}


def scenario_names() -> List[str]:
    """Catalog names in declaration order."""
    return [d["name"] for d in _CATALOG_DICTS]


def get_scenario(name: str) -> ScenarioSpec:
    """One catalog scenario by name, with an actionable miss message."""
    specs = catalog()
    if name not in specs:
        raise ScenarioSpecError(
            f"unknown scenario {name!r}; catalog has {scenario_names()}"
        )
    return specs[name]
