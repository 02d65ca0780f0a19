"""Scheduling Agents: the scheduling hooks of the core model.

"Scheduling is intentionally left out of the core object model, except for
a few 'hooks' ... that allow other Legion objects to suggest scheduling
policies to Magistrates."  (section 3.7)  "Complex scheduling policies are
intended to be implemented outside of the Magistrate in Scheduling Agents.
The Scheduling Agents will implement their policies by making calls on the
primitive scheduling functions exported by the Magistrates." (section 3.8)

:class:`SchedulingAgentImpl` is the base; the one shipped policy is
least-loaded, which the autoscaler drives.  Other policies are the user's.
A class object configured with a scheduling agent consults it on every
Create()/Derive() to pick the target magistrate.
"""

from repro.scheduling.agent import LeastLoadedSchedulingAgent, SchedulingAgentImpl

__all__ = ["SchedulingAgentImpl", "LeastLoadedSchedulingAgent"]
