"""Legion Object Identifiers (paper section 3.2, Fig. 12).

An LOID is ``class_id (64 bits) | class_specific (64 bits) | public_key
(P bits)``.  The paper leaves P open ("a constant whose size has yet to be
determined"); this reproduction fixes ``PUBLIC_KEY_BITS = 64`` and derives
keys deterministically from the identifier fields plus a per-system secret,
which gives every object a distinct, verifiable key without a real PKI
(the security model of ref [8] is out of scope; only its hooks are needed).

Identity conventions, straight from the paper:

* class objects have ``class_specific == 0``;
* an instance's LOID carries its class's ``class_id``, so the LOID of the
  class responsible for locating a non-class object is computed by field
  surgery: keep ``class_id``, zero ``class_specific`` (section 4.1.3);
* LegionClass is the authority handing out unique class identifiers.

Routing and table lookups key on ``identity`` -- the (class_id,
class_specific) pair -- because the public key is a credential, not a
locator.  Full equality includes the key, so a forged LOID with a wrong
key never compares equal to the genuine one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import InvalidLOID

_U64 = (1 << 64) - 1

#: P, the public-key width in bits.  The paper leaves this constant open.
PUBLIC_KEY_BITS = 64
_KEY_MASK = (1 << PUBLIC_KEY_BITS) - 1

#: Reserved class identifiers for the core Abstract classes (section 2.1.3).
#: LegionClass itself must be locatable before any allocation can happen,
#: so the core identifiers are compile-time constants of the system.
CLASS_ID_LEGION_OBJECT = 1
CLASS_ID_LEGION_CLASS = 2
CLASS_ID_LEGION_HOST = 3
CLASS_ID_LEGION_MAGISTRATE = 4
CLASS_ID_LEGION_BINDING_AGENT = 5
CLASS_ID_LEGION_SCHEDULER = 6
FIRST_USER_CLASS_ID = 64


def derive_public_key(class_id: int, class_specific: int, secret: int = 0) -> int:
    """The deterministic P-bit key for an identity under ``secret``."""
    digest = hashlib.sha256(
        f"{secret}:{class_id}:{class_specific}".encode()
    ).digest()
    return int.from_bytes(digest[: PUBLIC_KEY_BITS // 8], "big") & _KEY_MASK


@dataclass(frozen=True, order=True, slots=True)
class LOID:
    """A Legion Object Identifier.

    Immutable and hashable; usable directly as a dict key.  Compare with
    ``==`` for full identity (including key) and via :attr:`identity` for
    locator purposes.
    """

    class_id: int
    class_specific: int
    public_key: int = 0
    #: The (class_id, class_specific) pair used for routing lookups.  Every
    #: cache probe, table lookup and pending key reads it, so it is built
    #: once here; it is derived, so equality, hashing, order, ``repr`` and
    #: the pickled form (three fields: ``Vault`` places OPRs by their
    #: size) all leave it out.
    identity: Tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0 <= self.class_id <= _U64):
            raise InvalidLOID(f"class_id {self.class_id} exceeds 64 bits")
        if not (0 <= self.class_specific <= _U64):
            raise InvalidLOID(f"class_specific {self.class_specific} exceeds 64 bits")
        if not (0 <= self.public_key <= _KEY_MASK):
            raise InvalidLOID(f"public_key exceeds {PUBLIC_KEY_BITS} bits")
        object.__setattr__(self, "identity", (self.class_id, self.class_specific))

    # -- structure -----------------------------------------------------------

    @property
    def is_class(self) -> bool:
        """Class objects conventionally have a zero class-specific field."""
        return self.class_specific == 0

    def class_identity(self) -> Tuple[int, int]:
        """Identity of the class responsible for locating this object.

        The field surgery of section 4.1.3: same class_id, zero
        class_specific.  For a class object this is its own identity --
        responsibility for *classes* is resolved through LegionClass's
        responsibility pairs instead.
        """
        return (self.class_id, 0)

    # -- wire form -------------------------------------------------------------

    def pack(self) -> bytes:
        """(128+P)/8 bytes: class_id | class_specific | public_key."""
        return (
            self.class_id.to_bytes(8, "big")
            + self.class_specific.to_bytes(8, "big")
            + self.public_key.to_bytes(PUBLIC_KEY_BITS // 8, "big")
        )

    @classmethod
    def unpack(cls, data: bytes) -> "LOID":
        """Inverse of :meth:`pack`."""
        expected = 16 + PUBLIC_KEY_BITS // 8
        if len(data) != expected:
            raise InvalidLOID(f"LOID wire form must be {expected} bytes, got {len(data)}")
        return cls(
            class_id=int.from_bytes(data[:8], "big"),
            class_specific=int.from_bytes(data[8:16], "big"),
            public_key=int.from_bytes(data[16:], "big"),
        )

    # -- construction ------------------------------------------------------------

    @classmethod
    def for_class(cls, class_id: int, secret: int = 0) -> "LOID":
        """The LOID of the class object with identifier ``class_id``."""
        return cls(class_id, 0, derive_public_key(class_id, 0, secret))

    @classmethod
    def for_instance(cls, class_id: int, sequence: int, secret: int = 0) -> "LOID":
        """The LOID of instance ``sequence`` of class ``class_id``."""
        if sequence == 0:
            raise InvalidLOID("instance class_specific must be non-zero (0 marks classes)")
        return cls(class_id, sequence, derive_public_key(class_id, sequence, secret))

    def verify_key(self, secret: int) -> bool:
        """Whether this LOID's key is genuine under the system secret."""
        return self.public_key == derive_public_key(
            self.class_id, self.class_specific, secret
        )

    def __str__(self) -> str:
        kind = "C" if self.class_specific == 0 else "O"  # is_class, without its call
        return f"{kind}<{self.class_id}.{self.class_specific}>"


# The pickled state is the three fields; ``identity`` is rebuilt on load.
# Assigned after the decorator: on CPython 3.10 (and 3.11 before 3.11.4)
# ``slots=True`` on a frozen dataclass overwrites any ``__getstate__`` /
# ``__setstate__`` defined in the class body with its own, which would
# pickle ``identity`` as a fourth field.
def _loid_getstate(loid: LOID) -> List[int]:
    return [loid.class_id, loid.class_specific, loid.public_key]


def _loid_setstate(loid: LOID, state: List[int]) -> None:
    class_id, class_specific, public_key = state
    object.__setattr__(loid, "class_id", class_id)
    object.__setattr__(loid, "class_specific", class_specific)
    object.__setattr__(loid, "public_key", public_key)
    object.__setattr__(loid, "identity", (class_id, class_specific))


LOID.__getstate__ = _loid_getstate  # type: ignore[method-assign]
LOID.__setstate__ = _loid_setstate  # type: ignore[method-assign]

