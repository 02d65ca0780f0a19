"""Unit tests for Object Addresses and their elements (paper 3.4)."""

import pickle
import random

import pytest

from repro.errors import AddressError
from repro.net.address import (
    AddressSemantic,
    AddressType,
    ObjectAddress,
    ObjectAddressElement,
)


class TestElement:
    def test_field_ranges_enforced(self):
        with pytest.raises(AddressError):
            ObjectAddressElement(addr_type=1 << 32, host=0, port=0)
        with pytest.raises(AddressError):
            ObjectAddressElement(addr_type=1, host=1 << 32, port=0)
        with pytest.raises(AddressError):
            ObjectAddressElement(addr_type=1, host=0, port=1 << 16)
        with pytest.raises(AddressError):
            ObjectAddressElement(addr_type=1, host=0, port=0, node=1 << 32)

    def test_pack_is_36_bytes(self):
        element = ObjectAddressElement.ip(host=0xC0A80101, port=8080, node=3)
        assert len(element.pack()) == 36  # 32-bit type + 256-bit info

    def test_pack_unpack_roundtrip(self):
        element = ObjectAddressElement.ip(host=0xFFFFFFFF, port=0xFFFF, node=7)
        assert ObjectAddressElement.unpack(element.pack()) == element

    def test_unpack_rejects_wrong_length(self):
        with pytest.raises(AddressError):
            ObjectAddressElement.unpack(b"\x00" * 35)

    def test_unpack_rejects_dirty_reserved_bits(self):
        raw = bytearray(ObjectAddressElement.ip(1, 2).pack())
        raw[-1] = 1  # low-order reserved bit
        with pytest.raises(AddressError):
            ObjectAddressElement.unpack(bytes(raw))

    def test_info_bits_layout(self):
        # host occupies the top 32 bits of the 256-bit info field.
        element = ObjectAddressElement.ip(host=1, port=0, node=0)
        assert element.info_bits() >> (256 - 32) == 1

    def test_sim_constructor_uses_sim_type(self):
        assert ObjectAddressElement.sim(1, 2).addr_type == AddressType.SIM

    def test_equal_elements_hash_equal(self):
        a = ObjectAddressElement.sim(host=7, port=1024, node=2)
        b = ObjectAddressElement(AddressType.SIM, 7, 1024, node=2)
        assert a == b and hash(a) == hash(b)
        assert a != ObjectAddressElement.sim(host=7, port=1025, node=2)
        assert len({a, b}) == 1

    def test_elements_are_immutable(self):
        element = ObjectAddressElement.sim(1, 2)
        with pytest.raises(AttributeError):
            element.port = 3
        with pytest.raises(AttributeError):
            element.extra = 1

    def test_pickled_element_still_finds_its_endpoint(self):
        from repro.net.network import Network
        from repro.simkernel.kernel import SimKernel

        network = Network(SimKernel())
        element = network.allocate_element(host=4, node=1)
        network.register(element, lambda message: None)
        clone = pickle.loads(pickle.dumps(element))
        assert clone is not element
        assert type(clone) is ObjectAddressElement and clone == element
        assert repr(clone) == repr(element)
        assert network.is_registered(clone)
        assert network._endpoints[clone] is network._endpoints[element]


class TestObjectAddress:
    def elements(self, n):
        return [ObjectAddressElement.sim(host=i + 1, port=1024) for i in range(n)]

    def test_needs_at_least_one_element(self):
        with pytest.raises(AddressError):
            ObjectAddress(elements=())

    def test_k_of_n_validates_k(self):
        with pytest.raises(AddressError):
            ObjectAddress(
                elements=tuple(self.elements(2)),
                semantic=AddressSemantic.K_OF_N,
                k=3,
            )
        with pytest.raises(AddressError):
            ObjectAddress(
                elements=tuple(self.elements(2)),
                semantic=AddressSemantic.K_OF_N,
                k=0,
            )

    def test_single(self):
        element = self.elements(1)[0]
        address = ObjectAddress.single(element)
        assert address.primary() == element
        assert len(address) == 1

    def test_targets_all(self):
        els = self.elements(3)
        address = ObjectAddress.replicated(els, semantic=AddressSemantic.ALL)
        assert address.targets() == tuple(els)

    def test_targets_any_random_needs_rng(self):
        address = ObjectAddress.replicated(self.elements(3))
        with pytest.raises(AddressError):
            address.targets()

    def test_targets_any_random_picks_one(self):
        address = ObjectAddress.replicated(self.elements(3))
        rng = random.Random(0)
        picks = {address.targets(rng)[0] for _ in range(50)}
        assert picks <= set(address.elements)
        assert len(picks) > 1  # actually random

    def test_targets_first_in_order(self):
        els = self.elements(3)
        address = ObjectAddress(elements=tuple(els), semantic=AddressSemantic.FIRST)
        assert address.targets() == tuple(els)

    def test_without_shrinks(self):
        els = self.elements(3)
        address = ObjectAddress.replicated(els, semantic=AddressSemantic.ALL)
        smaller = address.without(els[1])
        assert smaller is not None
        assert len(smaller) == 2
        assert els[1] not in smaller.elements

    def test_without_last_element_returns_none(self):
        els = self.elements(1)
        address = ObjectAddress.single(els[0])
        assert address.without(els[0]) is None

    def test_without_clamps_k(self):
        els = self.elements(3)
        address = ObjectAddress.replicated(
            els, semantic=AddressSemantic.K_OF_N, k=3
        )
        smaller = address.without(els[0])
        assert smaller.k == 2

    def test_pack_unpack_roundtrip_all_semantics(self):
        for semantic, k in [
            (AddressSemantic.ALL, 1),
            (AddressSemantic.ANY_RANDOM, 1),
            (AddressSemantic.FIRST, 1),
            (AddressSemantic.K_OF_N, 2),
        ]:
            address = ObjectAddress(
                elements=tuple(self.elements(3)), semantic=semantic, k=k
            )
            assert ObjectAddress.unpack(address.pack()) == address

    def test_unpack_rejects_garbage(self):
        with pytest.raises(AddressError):
            ObjectAddress.unpack(b"short")
