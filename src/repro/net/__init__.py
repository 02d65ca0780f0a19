"""Simulated wide-area network substrate.

Implements the paper's addressing layer (section 3.4) and the message
delivery fabric the Legion communication layer rides on:

* :class:`ObjectAddressElement` -- 32-bit address-type field plus 256 bits
  of type-specific information (the paper's first and most common type is
  IP: 32-bit address + 16-bit port, plus an optional 32-bit node number on
  multiprocessors).
* :class:`ObjectAddress` -- a list of elements together with a semantic
  describing how to use the list (send-to-all, pick-one-at-random,
  k-of-N, ...), which is what enables system-level object replication
  (section 4.3).
* :class:`Network` -- registers endpoints under elements, delivers
  messages with latencies drawn from a (local | LAN | WAN) classification
  of the endpoints' hosts, and -- crucially for stale-binding detection
  (section 4.1.4) -- reports a :class:`~repro.errors.DeliveryFailure` to
  the sender when the destination element is no longer registered.
"""

from repro.net.address import (
    AddressSemantic,
    AddressType,
    ObjectAddress,
    ObjectAddressElement,
)
from repro.net.latency import LatencyModel, LinkClass
from repro.net.message import Message, MessageKind, Undeliverable
from repro.net.network import Endpoint, Network, NetworkStats

__all__ = [
    "AddressSemantic",
    "AddressType",
    "ObjectAddress",
    "ObjectAddressElement",
    "LatencyModel",
    "LinkClass",
    "Message",
    "MessageKind",
    "Undeliverable",
    "Endpoint",
    "Network",
    "NetworkStats",
]
