"""Object Addresses and Object Address Elements (paper section 3.4).

An Object Address Element is a 32-bit *address type* plus 256 bits of
type-specific information.  For the IP type the paper allocates 32 bits of
IP address, 16 bits of port, and on multiprocessors a 32-bit
platform-specific node number; the remaining bits are zero.  We pack and
unpack these fields exactly so the representation is bit-faithful, while
also exposing convenience accessors.

An Object Address is a *list* of elements plus semantic information saying
how the list is to be used (paper Fig. 14): all of them, one at random,
k of N, or the first that answers.  Multi-element addresses with an
appropriate semantic are how Legion replicates an object at the system
level without changing application semantics (section 4.3).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

from repro.errors import AddressError

_U32 = (1 << 32) - 1
_U16 = (1 << 16) - 1
_INFO_BITS = 256
_INFO_MASK = (1 << _INFO_BITS) - 1


class AddressType(enum.IntEnum):
    """The 32-bit address-type field of an Object Address Element."""

    IP = 1
    XTP = 2
    #: Simulated transport used by this reproduction's network fabric.
    #: Behaves like IP (host, port, node) but marks the element as born
    #: inside the simulator rather than parsed from the outside world.
    SIM = 1000


class AddressSemantic(enum.Enum):
    """How the element list of an Object Address is to be used (Fig. 14).

    The paper names send-to-all, choose-one-at-random, and k-of-N as the
    envisioned options and leaves the full set open; FIRST (try elements
    in order until one answers) is our one user-defined extension, used
    for primary/backup replica groups.
    """

    ALL = "all"
    ANY_RANDOM = "any-random"
    K_OF_N = "k-of-n"
    FIRST = "first"


class ObjectAddressElement(namedtuple("_ElementFields", "addr_type host port node")):
    """One physical address: a 32-bit type plus 256 bits of information.

    ``host`` is the simulated analogue of the 32-bit IP address, ``port``
    the 16-bit port, and ``node`` the 32-bit multiprocessor node number.

    Tuple-backed (immutable, ordered field by field): the network keys
    its endpoint table by element and looks one up per delivery, so
    equality and hashing must stay in C.
    """

    __slots__ = ()

    def __new__(
        cls, addr_type: int, host: int, port: int, node: int = 0
    ) -> "ObjectAddressElement":
        if not (0 <= addr_type <= _U32):
            raise AddressError(f"address type {addr_type} exceeds 32 bits")
        if not (0 <= host <= _U32):
            raise AddressError(f"host field {host} exceeds 32 bits")
        if not (0 <= port <= _U16):
            raise AddressError(f"port field {port} exceeds 16 bits")
        if not (0 <= node <= _U32):
            raise AddressError(f"node field {node} exceeds 32 bits")
        return tuple.__new__(cls, (addr_type, host, port, node))

    # -- bit-level form (paper-faithful packing) ----------------------------

    def info_bits(self) -> int:
        """The 256-bit information field as an integer.

        Layout (from the high end): host(32) | port(16) | node(32) | 0...
        mirroring "48 of the 256 bits will be utilized: 32 bits for the IP
        address, and 16 bits for a port number", with the optional 32-bit
        node number following.
        """
        value = self.host
        value = (value << 16) | self.port
        value = (value << 32) | self.node
        return value << (_INFO_BITS - 80)

    def pack(self) -> bytes:
        """36-byte wire form: 4 bytes of type + 32 bytes of information."""
        return self.addr_type.to_bytes(4, "big") + self.info_bits().to_bytes(32, "big")

    @classmethod
    def unpack(cls, data: bytes) -> "ObjectAddressElement":
        """Inverse of :meth:`pack`."""
        if len(data) != 36:
            raise AddressError(f"element wire form must be 36 bytes, got {len(data)}")
        addr_type = int.from_bytes(data[:4], "big")
        info = int.from_bytes(data[4:], "big")
        if info & ((1 << (_INFO_BITS - 80)) - 1):
            raise AddressError("unused information bits are non-zero")
        packed = info >> (_INFO_BITS - 80)
        node = packed & _U32
        port = (packed >> 32) & _U16
        host = (packed >> 48) & _U32
        return cls(addr_type=addr_type, host=host, port=port, node=node)

    # -- convenience --------------------------------------------------------

    @classmethod
    def sim(cls, host: int, port: int, node: int = 0) -> "ObjectAddressElement":
        """An element on the simulated transport."""
        return cls(addr_type=AddressType.SIM, host=host, port=port, node=node)

    @classmethod
    def ip(cls, host: int, port: int, node: int = 0) -> "ObjectAddressElement":
        """An element of the paper's most common type."""
        return cls(addr_type=AddressType.IP, host=host, port=port, node=node)

    def __str__(self) -> str:
        t = AddressType(self.addr_type).name if self.addr_type in AddressType._value2member_map_ else str(self.addr_type)
        suffix = f"/{self.node}" if self.node else ""
        return f"{t}:{self.host}:{self.port}{suffix}"


@dataclass(frozen=True, slots=True)
class ObjectAddress:
    """A list of Object Address Elements plus usage semantics (Fig. 14)."""

    elements: Tuple[ObjectAddressElement, ...]
    semantic: AddressSemantic = AddressSemantic.FIRST
    #: Only meaningful for K_OF_N.
    k: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.elements, tuple):
            object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise AddressError("an Object Address needs at least one element")
        if self.semantic is AddressSemantic.K_OF_N:
            if not (1 <= self.k <= len(self.elements)):
                raise AddressError(
                    f"k={self.k} outside 1..{len(self.elements)} for K_OF_N address"
                )

    @classmethod
    def single(cls, element: ObjectAddressElement) -> "ObjectAddress":
        """The common case: one element, FIRST semantics."""
        return cls(elements=(element,))

    @classmethod
    def replicated(
        cls,
        elements: Sequence[ObjectAddressElement],
        semantic: AddressSemantic = AddressSemantic.ANY_RANDOM,
        k: int = 1,
    ) -> "ObjectAddress":
        """A multi-element (replica-group) address, section 4.3 style."""
        return cls(elements=tuple(elements), semantic=semantic, k=k)

    # -- wire form -----------------------------------------------------------

    def pack(self) -> bytes:
        """Length-prefixed concatenation of element wire forms + semantics."""
        head = len(self.elements).to_bytes(2, "big")
        sem = self.semantic.value.encode().ljust(12, b"\0")
        kb = self.k.to_bytes(2, "big")
        return head + sem + kb + b"".join(e.pack() for e in self.elements)

    @classmethod
    def unpack(cls, data: bytes) -> "ObjectAddress":
        """Inverse of :meth:`pack`."""
        if len(data) < 16:
            raise AddressError("truncated Object Address")
        n = int.from_bytes(data[:2], "big")
        sem = AddressSemantic(data[2:14].rstrip(b"\0").decode())
        k = int.from_bytes(data[14:16], "big")
        body = data[16:]
        if len(body) != 36 * n:
            raise AddressError("Object Address body length mismatch")
        elements = tuple(
            ObjectAddressElement.unpack(body[i * 36 : (i + 1) * 36]) for i in range(n)
        )
        return cls(elements=elements, semantic=sem, k=k)

    # -- behaviour -----------------------------------------------------------

    def primary(self) -> ObjectAddressElement:
        """The first element (the only one, for unreplicated objects)."""
        return self.elements[0]

    def targets(self, rng=None) -> Tuple[ObjectAddressElement, ...]:
        """The elements a single send should address, per the semantic.

        ``rng`` (a ``random.Random``) is required for ANY_RANDOM and is
        used to pick the element; deterministic semantics ignore it.
        For FIRST the caller is expected to try elements in the returned
        order until one answers; for K_OF_N the caller sends to all and
        waits for ``k`` replies.
        """
        if self.semantic is AddressSemantic.ALL:
            return self.elements
        if self.semantic is AddressSemantic.K_OF_N:
            return self.elements
        if self.semantic is AddressSemantic.ANY_RANDOM:
            if rng is None:
                raise AddressError("ANY_RANDOM address needs an rng to pick a target")
            return (self.elements[rng.randrange(len(self.elements))],)
        return self.elements  # FIRST: in order

    def without(self, element: ObjectAddressElement) -> Optional["ObjectAddress"]:
        """A copy lacking ``element``; None if that would empty the list.

        Used by replica managers to shrink a group after a member fails.
        """
        remaining = tuple(e for e in self.elements if e != element)
        if not remaining:
            return None
        k = min(self.k, len(remaining)) if self.semantic is AddressSemantic.K_OF_N else self.k
        return ObjectAddress(elements=remaining, semantic=self.semantic, k=k)

    def __iter__(self) -> Iterator[ObjectAddressElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        inner = ",".join(str(e) for e in self.elements)
        if self.semantic is AddressSemantic.K_OF_N:
            return f"[{inner}|{self.semantic.value}:{self.k}]"
        return f"[{inner}|{self.semantic.value}]"
