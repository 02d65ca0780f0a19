"""Property-based tests (hypothesis) on core data structures and invariants."""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import InterfaceError
from repro.idl.interface import Interface
from repro.idl.parser import parse_interface, parse_signature
from repro.idl.signature import MethodSignature, Parameter
from repro.naming.binding import Binding
from repro.naming.cache import BindingCache
from repro.naming.loid import LOID, PUBLIC_KEY_BITS, derive_public_key
from repro.net.address import (
    AddressSemantic,
    ObjectAddress,
    ObjectAddressElement,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
u32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
u16 = st.integers(min_value=0, max_value=(1 << 16) - 1)
key = st.integers(min_value=0, max_value=(1 << PUBLIC_KEY_BITS) - 1)

loids = st.builds(LOID, class_id=u64, class_specific=u64, public_key=key)

elements = st.builds(
    ObjectAddressElement,
    addr_type=u32,
    host=u32,
    port=u16,
    node=u32,
)


@st.composite
def addresses(draw):
    els = draw(st.lists(elements, min_size=1, max_size=6, unique=True))
    semantic = draw(st.sampled_from(list(AddressSemantic)))
    k = draw(st.integers(1, len(els))) if semantic is AddressSemantic.K_OF_N else 1
    return ObjectAddress(elements=tuple(els), semantic=semantic, k=k)


identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,12}", fullmatch=True)

signatures = st.builds(
    MethodSignature,
    name=identifiers,
    parameters=st.lists(
        st.builds(Parameter, type_name=identifiers), max_size=4
    ).map(tuple),
    returns=st.one_of(st.none(), identifiers),
)


# ---------------------------------------------------------------------------
# LOIDs
# ---------------------------------------------------------------------------


class TestLOIDProperties:
    @given(loids)
    def test_pack_unpack_is_identity(self, loid):
        assert LOID.unpack(loid.pack()) == loid

    @given(loids)
    def test_packed_width_constant(self, loid):
        assert len(loid.pack()) == (128 + PUBLIC_KEY_BITS) // 8

    @given(loids)
    def test_class_identity_is_idempotent_surgery(self, loid):
        class_id, zero = loid.class_identity()
        assert class_id == loid.class_id
        assert zero == 0

    @given(u64, u64, st.integers(0, 2**31))
    def test_key_derivation_deterministic(self, class_id, class_specific, secret):
        a = derive_public_key(class_id, class_specific, secret)
        b = derive_public_key(class_id, class_specific, secret)
        assert a == b
        assert 0 <= a < (1 << PUBLIC_KEY_BITS)

    @given(u64, st.integers(1, (1 << 64) - 1), st.integers(0, 2**31))
    def test_genuine_keys_always_verify(self, class_id, seq, secret):
        assert LOID.for_instance(class_id, seq, secret).verify_key(secret)


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------


class TestAddressProperties:
    @given(elements)
    def test_element_roundtrip(self, element):
        assert ObjectAddressElement.unpack(element.pack()) == element

    @given(addresses())
    def test_address_roundtrip(self, address):
        assert ObjectAddress.unpack(address.pack()) == address

    @given(addresses())
    def test_without_every_element_shrinks_or_empties(self, address):
        current = address
        for element in address.elements:
            nxt = current.without(element)
            if nxt is None:
                assert len(current) == 1
                break
            assert len(nxt) == len(current) - 1
            assert element not in nxt.elements
            if nxt.semantic is AddressSemantic.K_OF_N:
                assert 1 <= nxt.k <= len(nxt)
            current = nxt

    @given(addresses(), st.randoms(use_true_random=False))
    def test_targets_subset_of_elements(self, address, rng):
        targets = address.targets(rng)
        assert set(targets) <= set(address.elements)
        assert len(targets) >= 1


# ---------------------------------------------------------------------------
# Binding cache
# ---------------------------------------------------------------------------


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.integers(1, 5)),
            min_size=1,
            max_size=200,
        ),
        st.integers(1, 8),
    )
    def test_capacity_never_exceeded_and_hits_are_correct(self, ops, capacity):
        cache = BindingCache(capacity=capacity)
        shadow = {}
        for seq, host in ops:
            loid = LOID.for_instance(7, seq)
            binding = Binding(
                loid,
                ObjectAddress.single(ObjectAddressElement.sim(host, 1024)),
            )
            cache.insert(binding)
            shadow[loid.identity] = binding
            assert len(cache) <= capacity
        # Every surviving entry must match the most recent insert for it.
        for entry in cache._entries.values():
            assert shadow[entry.loid.identity] == entry

    @given(st.lists(st.integers(1, 10), min_size=1, max_size=50))
    def test_lookup_never_returns_expired(self, seqs):
        cache = BindingCache(capacity=None)
        for i, seq in enumerate(seqs):
            cache.insert(
                Binding(
                    LOID.for_instance(7, seq),
                    ObjectAddress.single(ObjectAddressElement.sim(1, 1024)),
                    expires_at=float(i),
                )
            )
        now = float(len(seqs) + 1)
        for seq in seqs:
            assert cache.lookup(LOID.for_instance(7, seq), now) is None

    @given(st.data())
    def test_invalidate_exact_never_removes_different_binding(self, data):
        cache = BindingCache()
        loid = LOID.for_instance(7, 1)
        current = Binding(
            loid, ObjectAddress.single(ObjectAddressElement.sim(1, 1024))
        )
        other_host = data.draw(st.integers(2, 100))
        stale = Binding(
            loid,
            ObjectAddress.single(ObjectAddressElement.sim(other_host, 1024)),
        )
        cache.insert(current)
        cache.invalidate_exact(stale)
        assert cache.lookup(loid, 0.0) == current


# ---------------------------------------------------------------------------
# Interfaces
# ---------------------------------------------------------------------------


class TestInterfaceProperties:
    @given(st.lists(signatures, max_size=10))
    def test_merge_is_idempotent(self, sigs):
        try:
            iface = Interface(sigs)
        except InterfaceError:
            return  # conflicting random signatures: not a merge property
        merged = iface.merged_with(iface)
        assert merged == iface

    @given(st.lists(signatures, max_size=8), st.lists(signatures, max_size=8))
    def test_merge_result_conforms_to_both_inputs(self, sigs_a, sigs_b):
        try:
            a = Interface(sigs_a)
            b = Interface(sigs_b)
            merged = a.merged_with(b)
        except InterfaceError:
            return
        assert merged.conforms_to(a)
        assert merged.conforms_to(b)

    @given(signatures)
    def test_signature_text_roundtrips(self, sig):
        assert parse_signature(str(sig)) == sig

    @given(st.lists(signatures, max_size=8))
    def test_interface_describe_roundtrips(self, sigs):
        try:
            iface = Interface(sigs, name="Gen")
        except InterfaceError:
            return
        assert parse_interface(iface.describe()) == iface

    @given(st.lists(signatures, max_size=8))
    def test_conformance_is_reflexive(self, sigs):
        try:
            iface = Interface(sigs)
        except InterfaceError:
            return
        assert iface.conforms_to(iface)
        assert iface.equivalent_to(iface)


# ---------------------------------------------------------------------------
# Simulation kernel ordering
# ---------------------------------------------------------------------------


class TestKernelProperties:
    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_event_execution_times_are_monotone(self, delays):
        from repro.simkernel.kernel import SimKernel

        kernel = SimKernel()
        fired = []
        for delay in delays:
            kernel.schedule(delay, lambda d=delay: fired.append(kernel.now))
        kernel.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(0.1, 50.0), min_size=1, max_size=20))
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_process_timeouts_accumulate_exactly(self, waits):
        from repro.simkernel.kernel import SimKernel, Timeout

        kernel = SimKernel()

        def proc():
            for wait in waits:
                yield Timeout(wait)
            return kernel.now

        fut = kernel.spawn(proc())
        kernel.run()
        assert fut.result() == pytest.approx(sum(waits))


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------


class TestContextProperties:
    names = st.from_regex(r"[a-z]{1,6}(/[a-z]{1,6}){0,2}", fullmatch=True)

    @given(st.dictionaries(names, st.integers(1, 1000), min_size=1, max_size=30))
    def test_bound_names_always_resolve(self, mapping):
        from repro.naming.context import Context

        ctx = Context()
        for name, seq in mapping.items():
            ctx.bind(name, LOID.for_instance(7, seq), replace=True)
        for name, seq in mapping.items():
            assert ctx.lookup(name) == LOID.for_instance(7, seq)

    @given(st.dictionaries(names, st.integers(1, 1000), min_size=1, max_size=20))
    def test_unbind_removes_exactly_the_name(self, mapping):
        from repro.naming.context import Context

        ctx = Context()
        for name, seq in mapping.items():
            ctx.bind(name, LOID.for_instance(7, seq), replace=True)
        victim = sorted(mapping)[0]
        ctx.unbind(victim)
        assert ctx.try_lookup(victim) is None
        for name in mapping:
            if name != victim:
                assert ctx.try_lookup(name) is not None
