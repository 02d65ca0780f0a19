"""Tests for Jurisdiction structure (2.2, Fig. 10)."""


from repro.jurisdiction.jurisdiction import Jurisdiction
from repro.naming.loid import LOID


def host_object(n):
    return LOID.for_instance(3, n)


class TestMembership:
    def test_add_and_remove_hosts(self):
        j = Jurisdiction("uva")
        j.add_host(1, host_object(1))
        assert 1 in j.host_ids
        assert j.host_objects == [host_object(1)]
        j.remove_host(1, host_object(1))
        assert 1 not in j.host_ids
        assert j.host_objects == []

    def test_add_host_idempotent(self):
        j = Jurisdiction("uva")
        j.add_host(1, host_object(1))
        j.add_host(1, host_object(1))
        assert len(j.host_objects) == 1

    def test_overlap(self):
        # "Jurisdictions are potentially non-disjoint" -- one host may be
        # offered to two jurisdictions simultaneously.
        a = Jurisdiction("a")
        b = Jurisdiction("b")
        a.add_host(1, host_object(1))
        b.add_host(1, host_object(1))
        b.add_host(2, host_object(2))
        assert a.host_ids & b.host_ids
        assert b.host_ids & a.host_ids
        assert not a.host_ids & Jurisdiction("c").host_ids


class TestHierarchy:
    def test_parent_child_links(self):
        root = Jurisdiction("root")
        child = Jurisdiction("child", parent=root)
        grand = Jurisdiction("grand", parent=child)
        assert root.children == [child]
        assert grand.ancestors() == [child, root]
        assert [j.name for j in root.subtree()] == ["root", "child", "grand"]

    def test_vault_is_jurisdiction_scoped(self):
        j = Jurisdiction("uva")
        assert j.vault.jurisdiction == "uva"
