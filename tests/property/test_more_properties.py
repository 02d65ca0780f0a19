"""More property-based tests: OPRs, relation graphs, vaults, composites."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ObjectModelError, StorageError
from repro.core.relations import RelationGraph
from repro.naming.loid import LOID
from repro.persistence.opr import OPRecord
from repro.persistence.storage import PersistentStore
from repro.persistence.vault import Vault
from tests._state import instances_of


u32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
safe_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20
)


@st.composite
def oprs(draw):
    class_id = draw(st.integers(1, 1000))
    seq = draw(st.integers(1, 10**6))
    chain_len = draw(st.integers(1, 4))
    chain = [
        (draw(safe_text.filter(bool)), {"arg": draw(st.integers(0, 99))})
        for _ in range(chain_len)
    ]
    state = draw(st.one_of(st.none(), st.binary(max_size=64)))
    return OPRecord(
        loid=LOID.for_instance(class_id, seq),
        class_loid=LOID.for_class(class_id),
        factory_chain=chain,
        state=state,
        component_kind=draw(
            st.sampled_from(["application", "class-object", "binding-agent"])
        ),
        annotations={"k": draw(st.integers(0, 9))},
    )


class TestOPRProperties:
    @given(oprs())
    def test_bytes_roundtrip_preserves_everything(self, opr):
        back = OPRecord.from_bytes(opr.to_bytes())
        assert back.loid == opr.loid
        assert back.class_loid == opr.class_loid
        assert back.factory_chain == opr.factory_chain
        assert back.state == opr.state
        assert back.component_kind == opr.component_kind
        assert back.annotations == opr.annotations

    @given(oprs(), st.binary(max_size=32))
    def test_with_state_never_mutates_original(self, opr, state):
        original_state = opr.state
        stamped = opr.with_state(state)
        assert opr.state == original_state
        assert stamped.state == state
        assert stamped.factory_chain == opr.factory_chain


class TestVaultProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 20), st.binary(max_size=32)),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 4),
    )
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_vault_always_returns_latest_state(self, writes, n_disks):
        vault = Vault("p")
        for i in range(n_disks):
            vault.add_store(PersistentStore("p", f"d{i}"))
        latest = {}
        for seq, state in writes:
            opr = OPRecord(
                loid=LOID.for_instance(5, seq),
                class_loid=LOID.for_class(5),
                factory_chain=[("f", {})],
                state=state,
            )
            vault.store_opr(opr)
            latest[seq] = state
        assert vault.opr_count == len(latest)
        for seq, state in latest.items():
            assert vault.load_opr(LOID.for_instance(5, seq)).state == state

    @given(st.lists(st.integers(1, 10), min_size=1, max_size=20))
    def test_delete_then_load_always_fails(self, seqs):
        vault = Vault("p")
        vault.add_store(PersistentStore("p", "d0"))
        for seq in set(seqs):
            vault.store_opr(
                OPRecord(
                    loid=LOID.for_instance(5, seq),
                    class_loid=LOID.for_class(5),
                    factory_chain=[("f", {})],
                )
            )
        victim = LOID.for_instance(5, seqs[0])
        vault.delete_opr(victim)
        with pytest.raises(StorageError):
            vault.load_opr(victim)


class TestRelationGraphProperties:
    @given(st.lists(st.integers(1, 30), min_size=2, max_size=30, unique=True))
    def test_kind_of_chains_have_single_root(self, class_ids):
        """Random linear derivations always give one sink and full ancestry."""
        graph = RelationGraph()
        loids = [LOID.for_class(cid) for cid in class_ids]
        for child, parent in zip(loids[1:], loids[:-1], strict=True):
            graph.record_kind_of(child, parent)
        assert graph.sinks() == [loids[0]]
        for child, parent in zip(loids[1:], loids[:-1], strict=True):
            assert graph.superclass_of(child) == parent

    @given(
        st.lists(
            st.tuples(st.integers(0, 14), st.integers(0, 14)),
            max_size=40,
        )
    )
    def test_inherits_from_never_admits_cycles(self, edges):
        """Whatever edge sequence we throw at it, the inherits-from
        relation stays acyclic (additions forming cycles raise)."""
        graph = RelationGraph()
        loids = [LOID.for_class(i + 1) for i in range(15)]
        for a, b in edges:
            if a == b:
                continue
            try:
                graph.record_inherits_from(loids[a], loids[b])
            except ObjectModelError:
                pass  # rejected additions are exactly the cycle-formers
        # Acyclicity: transitive closure of any node never contains itself.
        for loid in loids:
            assert loid not in graph._inherits_closure(loid)

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=50, unique=True))
    def test_instances_partition_across_classes(self, seqs):
        graph = RelationGraph()
        class_a = LOID.for_class(1)
        class_b = LOID.for_class(2)
        for i, seq in enumerate(seqs):
            instance = LOID.for_instance(3, seq)
            graph.record_is_a(instance, class_a if i % 2 == 0 else class_b)
        a_count = len(instances_of(graph, class_a))
        b_count = len(instances_of(graph, class_b))
        assert a_count + b_count == len(seqs)
        assert set(instances_of(graph, class_a)).isdisjoint(
            instances_of(graph, class_b)
        )
