"""Unit tests for LOIDs (paper 3.2, Fig. 12)."""

import dataclasses
import pickle

import pytest

from repro.errors import InvalidLOID
from repro.naming.loid import (
    LOID,
    LOIDAllocator,
    PUBLIC_KEY_BITS,
    derive_public_key,
)


class TestLOID:
    def test_field_ranges(self):
        with pytest.raises(InvalidLOID):
            LOID(class_id=1 << 64, class_specific=0)
        with pytest.raises(InvalidLOID):
            LOID(class_id=0, class_specific=1 << 64)
        with pytest.raises(InvalidLOID):
            LOID(class_id=0, class_specific=0, public_key=1 << PUBLIC_KEY_BITS)

    def test_class_convention(self):
        assert LOID(5, 0).is_class
        assert not LOID(5, 1).is_class

    def test_identity_excludes_key(self):
        a = LOID(5, 7, public_key=1)
        b = LOID(5, 7, public_key=2)
        assert a.identity == b.identity
        assert a != b  # full equality includes the key

    def test_class_identity_field_surgery(self):
        instance = LOID.for_instance(9, 4, secret=1)
        assert instance.class_identity() == (9, 0)

    def test_for_class_and_for_instance_keys_verify(self):
        cls = LOID.for_class(9, secret=42)
        inst = LOID.for_instance(9, 1, secret=42)
        assert cls.verify_key(42)
        assert inst.verify_key(42)
        assert not cls.verify_key(43)

    def test_for_instance_rejects_zero_sequence(self):
        with pytest.raises(InvalidLOID):
            LOID.for_instance(9, 0)

    def test_pack_width_is_128_plus_p_bits(self):
        loid = LOID.for_instance(1, 1)
        assert len(loid.pack()) * 8 == 128 + PUBLIC_KEY_BITS

    def test_pack_unpack_roundtrip(self):
        loid = LOID((1 << 64) - 1, (1 << 64) - 1, (1 << PUBLIC_KEY_BITS) - 1)
        assert LOID.unpack(loid.pack()) == loid

    def test_unpack_rejects_wrong_length(self):
        with pytest.raises(InvalidLOID):
            LOID.unpack(b"\x00" * 10)

    def test_ordering_and_hashing(self):
        a = LOID(1, 1)
        b = LOID(1, 2)
        assert a < b
        assert len({a, b, LOID(1, 1)}) == 2

    def test_identity_is_the_locator_pair(self):
        loid = LOID(70, 3, 12345)
        assert loid.identity == (loid.class_id, loid.class_specific) == (70, 3)

    def test_identity_takes_no_part_in_equality_hash_or_order(self):
        a = LOID(70, 3, 12345)
        b = LOID(70, 3, 12345)
        object.__setattr__(b, "identity", (0, 0))  # differs in identity only
        assert a == b
        assert hash(a) == hash(b)
        assert not a < b and not b < a and a <= b and b <= a

    def test_repr_has_no_identity(self):
        assert repr(LOID(70, 3, 12345)) == (
            "LOID(class_id=70, class_specific=3, public_key=12345)"
        )

    def test_replace_recomputes_identity(self):
        moved = dataclasses.replace(LOID(70, 3, 12345), class_specific=9)
        assert moved.identity == (70, 9)

    def test_pickle_keeps_the_three_field_form(self):
        """``Vault`` places OPRs by their size: a stored identity must not
        grow the pickled LOID (56 bytes at protocol 5, as before)."""
        assert len(pickle.dumps(LOID(70, 3, 12345), protocol=5)) == 56

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_roundtrip_restores_identity(self, protocol):
        loid = LOID(70, 3, 12345)
        back = pickle.loads(pickle.dumps(loid, protocol=protocol))
        assert back == loid and back.identity == (70, 3)

    def test_unpack_restores_identity(self):
        back = LOID.unpack(LOID(70, 3, 12345).pack())
        assert back == LOID(70, 3, 12345) and back.identity == (70, 3)

    def test_key_derivation_depends_on_all_inputs(self):
        base = derive_public_key(1, 2, 3)
        assert derive_public_key(9, 2, 3) != base
        assert derive_public_key(1, 9, 3) != base
        assert derive_public_key(1, 2, 9) != base


class TestAllocator:
    def test_sequences_start_at_one(self):
        allocator = LOIDAllocator(class_id=8, secret=0)
        assert allocator.next_instance().class_specific == 1

    def test_unique_and_monotone(self):
        allocator = LOIDAllocator(class_id=8, secret=0)
        loids = [allocator.next_instance() for _ in range(100)]
        assert len({l.identity for l in loids}) == 100
        specifics = [l.class_specific for l in loids]
        assert specifics == sorted(specifics)

    def test_start_below_one_rejected(self):
        with pytest.raises(InvalidLOID):
            LOIDAllocator(class_id=8, start=0)

    def test_iteration_protocol(self):
        allocator = LOIDAllocator(class_id=8)
        it = iter(allocator)
        assert next(it).class_specific == 1
        assert next(it).class_specific == 2
