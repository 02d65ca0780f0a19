"""Unit tests for OPRs, stores, and vaults (paper 3.1)."""

import random

import pytest

from repro.errors import StorageError
from repro.naming.loid import LOID
from repro.persistence.opr import OPRecord
from repro.persistence.storage import PersistentStore
from repro.persistence.vault import Vault


def make_opr(seq=1, state=None):
    return OPRecord(
        loid=LOID.for_instance(40, seq),
        class_loid=LOID.for_class(40),
        factory_chain=[("app.counter", {"start": 5})],
        state=state,
        component_kind="application",
        annotations={"memo": "x"},
    )


class TestOPRecord:
    def test_bytes_roundtrip(self):
        opr = make_opr(state=b"\x01\x02")
        back = OPRecord.from_bytes(opr.to_bytes())
        assert back.loid == opr.loid
        assert back.class_loid == opr.class_loid
        assert back.factory_chain == opr.factory_chain
        assert back.state == b"\x01\x02"
        assert back.annotations == {"memo": "x"}

    def test_corrupt_bytes_rejected(self):
        with pytest.raises(StorageError):
            OPRecord.from_bytes(b"not a pickle")

    def test_with_state_copies(self):
        opr = make_opr()
        stamped = opr.with_state(b"abc")
        assert stamped.state == b"abc"
        assert opr.state is None  # original untouched
        assert stamped.factory_chain == opr.factory_chain

    def test_size_positive(self):
        assert len(make_opr().to_bytes()) > 0


class TestPersistentStore:
    def test_write_read_delete(self):
        store = PersistentStore("uva", "disk0")
        opr = make_opr()
        address = store.write(opr)
        assert store.exists(address)
        assert store.read(address).loid == opr.loid
        store.delete(address)
        assert not store.exists(address)
        with pytest.raises(StorageError):
            store.read(address)

    def test_addresses_are_jurisdiction_local(self):
        store = PersistentStore("uva", "disk0")
        other = PersistentStore("doe", "disk0")
        address = store.write(make_opr())
        # Section 3.1.1: an Object Persistent Address is only meaningful
        # within its own jurisdiction.
        with pytest.raises(StorageError):
            other.read(address)

    def test_distinct_filenames(self):
        store = PersistentStore("uva", "disk0")
        a = store.write(make_opr(1))
        b = store.write(make_opr(1))
        assert a.filename != b.filename

    def test_list_files(self):
        store = PersistentStore("uva", "disk0")
        store.write(make_opr(1))
        store.write(make_opr(2))
        assert len(store._files) == 2


class TestVault:
    def make_vault(self, disks=2):
        vault = Vault("uva")
        for i in range(disks):
            vault.add_store(PersistentStore("uva", f"disk{i}"))
        return vault

    def test_store_and_load(self):
        vault = self.make_vault()
        opr = make_opr(state=b"s")
        vault.store_opr(opr)
        assert vault.holds(opr.loid)
        assert vault.load_opr(opr.loid).state == b"s"

    def test_restore_replaces_old_opr(self):
        vault = self.make_vault()
        opr = make_opr()
        vault.store_opr(opr.with_state(b"old"))
        vault.store_opr(opr.with_state(b"new"))
        assert vault.opr_count == 1
        assert vault.load_opr(opr.loid).state == b"new"

    def test_load_missing_raises(self):
        with pytest.raises(StorageError):
            self.make_vault().load_opr(LOID.for_instance(40, 9))

    def test_delete_idempotent(self):
        vault = self.make_vault()
        opr = make_opr()
        vault.store_opr(opr)
        vault.delete_opr(opr.loid)
        vault.delete_opr(opr.loid)
        assert not vault.holds(opr.loid)

    def test_balances_across_disks(self):
        vault = self.make_vault(disks=2)
        for i in range(1, 9):
            vault.store_opr(make_opr(i))
        sizes = [len(s) for s in vault.stores()]
        assert sizes == [4, 4]

    def test_wrong_jurisdiction_store_rejected(self):
        vault = Vault("uva")
        with pytest.raises(StorageError):
            vault.add_store(PersistentStore("doe", "disk0"))

    def test_duplicate_store_rejected(self):
        vault = self.make_vault(disks=1)
        with pytest.raises(StorageError):
            vault.add_store(PersistentStore("uva", "disk0"))

    def test_no_stores_raises(self):
        vault = Vault("uva")
        with pytest.raises(StorageError):
            vault.store_opr(make_opr())


class TestPlacementByteCount:
    """``used_bytes`` is a running count, so placement reads it in O(1);
    it must place exactly as re-summing every blob did."""

    @staticmethod
    def resummed(store):
        return sum(len(blob) for blob in store._files.values())

    def test_a_random_history_places_as_the_resum_did(self):
        rng = random.Random(20260)
        vault = Vault("j")
        stores = [PersistentStore("j", name) for name in ("d0", "d1", "d2")]
        for store in stores:
            vault.add_store(store)
        held = set()
        for step in range(400):
            seq = rng.randrange(1, 40)
            if seq in held and rng.random() < 0.3:
                vault.delete_opr(LOID.for_instance(40, seq))
                held.discard(seq)
            else:
                # Re-storing an object writes the new OPR before dropping
                # the old one, so the old blob still counts at placement.
                expected = min(stores, key=lambda s: (self.resummed(s), s.name))
                state = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
                address = vault.store_opr(make_opr(seq, state=state))
                assert address.store == expected.name, step
                held.add(seq)
            for store in stores:
                assert store.used_bytes == self.resummed(store), step
        assert vault.opr_count == len(held)
        assert {s.used_bytes > 0 for s in stores} == {True}
