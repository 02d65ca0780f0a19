"""Workload generation for the Section 5 experiments.

The paper's scalability argument rests on two workload assumptions
(section 5.2): "most accesses will be local ... within the same
organization", and "class objects will not migrate frequently [and] tend
to stay active for long periods of time relative to instance objects".
This package parameterises exactly those knobs:

* :class:`ZipfPopularity` -- skewed class/object popularity (the "popular
  class objects becoming bottlenecks" of section 5.2.2);
* :class:`LocalityMix` -- the fraction of intra-site accesses;
* :class:`TrafficDriver` -- per-client invocation loops over a chosen
  target distribution;
* :class:`ChurnDriver` -- deactivation/migration churn that manufactures
  stale bindings (section 4.1.4);
* :mod:`repro.workloads.apps` -- small application objects (counter,
  key-value store, serial services) used by examples and experiments.
"""

from repro.workloads.apps import CounterImpl, KVStoreImpl
from repro.workloads.generators import (
    ChurnDriver,
    LocalityMix,
    TrafficDriver,
    ZipfPopularity,
)

__all__ = [
    "CounterImpl",
    "KVStoreImpl",
    "ZipfPopularity",
    "LocalityMix",
    "TrafficDriver",
    "ChurnDriver",
]
