"""repro.flow -- admission control and credit-based backpressure.

The dynamic complement to the paper's structural scalability story: once
offered load exceeds a component's capacity, bounded queues shed with
``Overloaded`` + ``retry_after`` pushback and caller credit windows
bound in-flight work end-to-end.  Both mechanisms are off unless a
:class:`FlowConfig` is installed on ``SystemServices.flow``.
"""

from repro.flow.admission import AdmissionController, AdmissionStats
from repro.flow.config import FlowConfig
from repro.flow.credits import CreditLedger, CreditWindow

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "CreditLedger",
    "CreditWindow",
    "FlowConfig",
]
