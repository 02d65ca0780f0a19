"""Tests for the logical table (Fig. 16) and the relation graph (Fig. 2)."""

import pytest

from repro.errors import ObjectModelError, UnknownObject
from repro.core.relations import RelationGraph
from repro.core.table import LogicalTable, TableRow
from repro.naming.loid import LOID
from repro.net.address import ObjectAddress, ObjectAddressElement
from tests._state import instances_of, subclasses_of


def loid(class_id, seq=0):
    return LOID(class_id, seq)


def address(host=1):
    return ObjectAddress.single(ObjectAddressElement.sim(host, 1024))


class TestLogicalTable:
    def make_row(self, seq=1, **kwargs):
        return TableRow(loid=loid(10, seq), **kwargs)

    def test_add_get_find(self):
        table = LogicalTable()
        row = self.make_row()
        table.add(row)
        assert table.get(row.loid) is row
        assert table.find(loid(10, 99)) is None
        with pytest.raises(UnknownObject):
            table.get(loid(10, 99))

    def test_duplicate_add_rejected(self):
        table = LogicalTable()
        table.add(self.make_row())
        with pytest.raises(UnknownObject):
            table.add(self.make_row())

    def test_deleted_row_can_be_replaced(self):
        table = LogicalTable()
        table.add(self.make_row())
        table.delete(loid(10, 1))
        table.add(self.make_row())  # LOID reuse after deletion is allowed

    def test_delete_drops_an_instance_row(self):
        table = LogicalTable()
        row = self.make_row(object_address=address(), current_magistrates=[loid(4, 1)])
        table.add(row)
        table.delete(row.loid)
        assert table.find(row.loid) is None
        assert row.loid not in table
        assert len(table._rows) == 0  # nothing of the instance stays

    def test_delete_keeps_a_subclass_tombstone(self):
        table = LogicalTable()
        row = TableRow(
            loid=loid(11, 0), object_address=address(), current_magistrates=[loid(4, 1)],
            is_subclass=True,
        )
        table.add(row)
        table.delete(row.loid)
        assert table.find(row.loid) is row
        assert row.deleted
        assert row.object_address is None
        assert row.current_magistrates == []
        assert row.loid not in table  # membership excludes deleted rows
        assert len(table) == 0

    def test_instance_subclass_partition(self):
        table = LogicalTable()
        table.add(self.make_row(1))
        table.add(TableRow(loid=loid(11, 0), is_subclass=True))
        assert [row.loid for row in table.instances()] == [loid(10, 1)]
        assert len(table) == 2


class TestRelationGraph:
    def test_is_a_exactly_one_class(self):
        graph = RelationGraph()
        graph.record_is_a(loid(10, 1), loid(10))
        with pytest.raises(ObjectModelError):
            graph.record_is_a(loid(10, 1), loid(11))
        assert graph.class_of(loid(10, 1)) == loid(10)
        assert instances_of(graph, loid(10)) == [loid(10, 1)]

    def test_kind_of_exactly_one_superclass(self):
        graph = RelationGraph()
        graph.record_kind_of(loid(11), loid(10))
        with pytest.raises(ObjectModelError):
            graph.record_kind_of(loid(11), loid(12))
        assert graph.superclass_of(loid(11)) == loid(10)
        assert subclasses_of(graph, loid(10)) == [loid(11)]

    def test_inherits_from_many_allowed(self):
        graph = RelationGraph()
        graph.record_inherits_from(loid(13), loid(10))
        graph.record_inherits_from(loid(13), loid(11))
        graph.record_inherits_from(loid(13), loid(11))  # idempotent
        assert sorted(graph.bases_of(loid(13))) == [loid(10), loid(11)]

    def test_inherits_from_self_rejected(self):
        graph = RelationGraph()
        with pytest.raises(ObjectModelError):
            graph.record_inherits_from(loid(13), loid(13))

    def test_inheritance_cycle_rejected(self):
        graph = RelationGraph()
        graph.record_inherits_from(loid(11), loid(10))
        graph.record_inherits_from(loid(12), loid(11))
        with pytest.raises(ObjectModelError):
            graph.record_inherits_from(loid(10), loid(12))

    def test_ancestry_chain(self):
        graph = RelationGraph()
        graph.record_kind_of(loid(11), loid(10))
        graph.record_kind_of(loid(12), loid(11))
        assert graph.superclass_of(loid(12)) == loid(11)
        assert graph.superclass_of(loid(11)) == loid(10)
        assert graph.superclass_of(loid(10)) is None
        assert subclasses_of(graph, loid(10)) == [loid(11)]

    def test_all_bases_transitive(self):
        graph = RelationGraph()
        graph.record_inherits_from(loid(12), loid(11))
        graph.record_inherits_from(loid(11), loid(10))
        assert graph._inherits_closure(loid(12)) == {loid(11), loid(10)}

    def test_sinks(self):
        graph = RelationGraph()
        graph.record_kind_of(loid(11), loid(10))
        graph.record_is_a(loid(11, 1), loid(11))
        assert graph.sinks() == [loid(10)]

    def test_forget_removes_node(self):
        graph = RelationGraph()
        graph.record_is_a(loid(10, 1), loid(10))
        graph.forget(loid(10, 1))
        assert loid(10, 1) not in graph
        assert instances_of(graph, loid(10)) == []

    def test_edge_counts_by_kind(self):
        graph = RelationGraph()
        graph.record_kind_of(loid(11), loid(10))
        graph.record_is_a(loid(11, 1), loid(11))
        graph.record_inherits_from(loid(11), loid(12))
        assert instances_of(graph, loid(11)) == [loid(11, 1)]
        assert subclasses_of(graph, loid(10)) == [loid(11)]
        assert graph.bases_of(loid(11)) == [loid(12)]

    def test_parallel_edges_and_neighbour_order(self):
        """A class may be kind-of and inherit-from the same class; results
        list neighbours in the order their first edge was recorded."""
        graph = RelationGraph()
        graph.record_kind_of(loid(11), loid(10))
        graph.record_inherits_from(loid(11), loid(12))
        graph.record_inherits_from(loid(11), loid(10))
        assert graph.bases_of(loid(11)) == [loid(10), loid(12)]
        assert graph.superclass_of(loid(11)) == loid(10)
        graph.forget(loid(10))
        assert graph.bases_of(loid(11)) == [loid(12)]
        assert graph.superclass_of(loid(11)) is None
        assert loid(12) in graph and loid(10) not in graph

    def test_forget_costs_the_degree_of_the_forgotten_node(self):
        """Delete() of one instance must not walk its 4,000 siblings:
        the hash and equality probes of a forget do not grow with the
        class."""

        class Node:
            probes = 0

            def __init__(self, key):
                self.key = key

            def __hash__(self):
                Node.probes += 1
                return hash(self.key)

            def __eq__(self, other):
                Node.probes += 1
                return self.key == other.key

        def probes_to_forget_one_of(instances: int) -> int:
            graph = RelationGraph()
            cls = Node("class")
            nodes = [Node(i) for i in range(instances)]
            for node in nodes:
                graph.record_is_a(node, cls)
            Node.probes = 0
            graph.forget(nodes[instances // 2])
            assert len(instances_of(graph, cls)) == instances - 1
            return Node.probes

        assert probes_to_forget_one_of(4_000) == probes_to_forget_one_of(4)
