"""Bindings: first-class (LOID, Object Address, expiry) triples (section 3.5).

"A binding consists of an LOID, an Object Address, and a field that
specifies the time that the binding becomes invalid.  This field may be set
to some value that indicates that the binding will never become explicitly
invalid.  Bindings are first class entities that can be passed around the
system and cached within objects."
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.naming.loid import LOID
from repro.net.address import ObjectAddress

#: The sentinel expiry meaning "never becomes explicitly invalid".
NEVER_EXPIRES: float = math.inf


@dataclass(frozen=True, slots=True)
class Binding:
    """An immutable LOID → Object Address binding with an expiry time.

    Note that a binding being unexpired does *not* guarantee the Object
    Address still works: the paper explicitly expects stale bindings
    (section 4.1.4) and places detection in the communication layer.
    Expiry is a proactive hint; delivery failure is the ground truth.
    """

    loid: LOID
    address: ObjectAddress
    expires_at: float = NEVER_EXPIRES

    def __str__(self) -> str:
        exp = "∞" if self.expires_at == NEVER_EXPIRES else f"{self.expires_at:.1f}"
        return f"{self.loid}→{self.address}@{exp}"
