"""Security hooks of the core object model (paper section 2.4).

The paper's security posture is "do no harm, caveat emptor, small is
beautiful": Legion itself guarantees nothing but provides hooks so objects
define and enforce their own policy.  The hooks are:

* ``MayI()`` -- consulted before every method executes; this package ships
  a few :class:`MayIPolicy` objects (allow-all for the "no security"
  default, deny-all, ACLs, trust sets); richer policies are the user's.
* ``Iam()`` -- identity: objects prove who they are with the public-key
  field of their LOID (:mod:`repro.security.identity`).
* The **call environment** -- every method invocation carries the triple
  of object names (Responsible Agent, Security Agent, Calling Agent)
  the paper requires (:class:`CallEnvironment`).
"""

from repro.security.environment import CallEnvironment
from repro.security.identity import Credentials, verify_identity
from repro.security.mayi import (
    ACLPolicy,
    AllowAll,
    DenyAll,
    MayIPolicy,
    TrustSetPolicy,
)

__all__ = [
    "CallEnvironment",
    "Credentials",
    "verify_identity",
    "MayIPolicy",
    "AllowAll",
    "DenyAll",
    "ACLPolicy",
    "TrustSetPolicy",
]
