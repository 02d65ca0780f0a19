"""Experiments: the paper's figures and Section-5 claims as measurements.

The paper has no results tables -- it is a design document -- so each
experiment here reproduces a *mechanism figure* or a *scalability claim*
as a measurable run on the simulated testbed, prints the table the paper
would have shown, and checks the claimed shape.  There are 22 (E1-E18
and the ablations A1-A4; ``python -m repro.experiments --list``): each
module's docstring states its claim and method, DESIGN.md section 3 is
the index and EXPERIMENTS.md records the outcomes.

Every experiment is one :class:`~repro.experiments.common.Experiment`
record in ``runner.RUNNERS`` -- ``units → measure → finish`` -- and
``RUNNERS[id].run(quick=True, seed=0)`` returns its
:class:`ExperimentResult`.
"""

from repro.experiments.common import ExperimentResult, count_messages, populate

__all__ = ["ExperimentResult", "count_messages", "populate"]
