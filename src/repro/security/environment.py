"""Call environments: the (RA, SA, CA) triple of paper section 2.4.

"Every method invocation is performed in an environment consisting of a
triple of object names -- those of the operative Responsible Agent, the
Security Agent, and the Calling Agent."

* The **Calling Agent** is the object that issued this invocation; it is
  rewritten at every hop.
* The **Responsible Agent** is the principal on whose behalf the chain of
  calls runs (typically the user's top-level object); it propagates
  unchanged.
* The **Security Agent** is the object consulted for policy decisions; it
  propagates unchanged by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.naming.loid import LOID


@dataclass(frozen=True, slots=True)
class CallEnvironment:
    """The security triple carried by every MethodInvocation.

    The environment also carries the call chain's causal coordinates
    (``trace``): the tracing layer threads a
    :class:`~repro.trace.context.TraceContext` through the same channel
    the (RA, SA) pair propagates on, so nested calls made inside a server
    method parent to the dispatch span that runs them.  ``trace`` is
    ``None`` whenever tracing is off and is excluded from equality -- two
    environments with the same security triple stay interchangeable.
    """

    responsible_agent: LOID
    security_agent: LOID
    calling_agent: LOID
    trace: Any = field(default=None, compare=False)

    @classmethod
    def originating(cls, origin: LOID, security_agent: Optional[LOID] = None) -> "CallEnvironment":
        """The environment of a call chain started by ``origin`` itself.

        With no distinct Security Agent, the originator plays all three
        roles -- the paper's "no security" default where the functions
        may be empty.
        """
        sa = security_agent if security_agent is not None else origin
        return cls(responsible_agent=origin, security_agent=sa, calling_agent=origin)

    def forwarded_by(self, caller: LOID) -> "CallEnvironment":
        """The environment for a nested call made by ``caller``.

        RA and SA propagate; CA becomes the immediate caller.  This is how
        e.g. a Binding Agent acting "on behalf of other Legion objects"
        (section 3.6) still presents the original responsible principal.
        """
        return CallEnvironment(
            responsible_agent=self.responsible_agent,
            security_agent=self.security_agent,
            calling_agent=caller,
            trace=self.trace,
        )

    def with_trace(self, trace: Any) -> "CallEnvironment":
        """The same security triple carrying new causal coordinates."""
        return CallEnvironment(
            responsible_agent=self.responsible_agent,
            security_agent=self.security_agent,
            calling_agent=self.calling_agent,
            trace=trace,
        )

    def __str__(self) -> str:
        return (
            f"env(RA={self.responsible_agent}, SA={self.security_agent}, "
            f"CA={self.calling_agent})"
        )
