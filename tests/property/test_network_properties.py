"""Property-based tests on the network fabric's delivery guarantees."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.net.latency import LatencyModel
from repro.net.message import Message, MessageKind
from repro.net.network import Network
from repro.simkernel.kernel import SimKernel


def build_net():
    kernel = SimKernel()
    latency = LatencyModel()
    latency.assign_host(1, "a")
    latency.assign_host(2, "a")
    latency.assign_host(3, "b")
    net = Network(kernel, latency, rng=random.Random(0))
    return kernel, net


class TestDeliveryProperties:
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
    def test_fifo_per_link_without_jitter(self, payload_hosts):
        """With constant latencies, messages between one (src, dst) pair
        deliver in send order -- the property the dispatch layer's
        correlation logic silently leans on."""
        kernel, net = build_net()
        src = net.allocate_element(1)
        net.register(src, lambda m: None)
        dests = {}
        inboxes = {}
        for host in (1, 2, 3):
            element = net.allocate_element(host)
            inbox = []
            net.register(element, inbox.append)
            dests[host] = element
            inboxes[host] = inbox
        sent = {1: [], 2: [], 3: []}
        for i, selector in enumerate(payload_hosts):
            host = (1, 2, 3)[selector]
            net.send(Message.request(src, dests[host], i))
            sent[host].append(i)
        kernel.run()
        for host, inbox in inboxes.items():
            got = [m.payload for m in inbox]
            assert got == sent[host], f"host {host} reordered"

    @given(st.integers(1, 30))
    def test_every_message_delivered_or_failure_reported(self, count):
        """Conservation: with no drops, sent == delivered + failures, and
        failures only for unregistered destinations."""
        kernel, net = build_net()
        src = net.allocate_element(1)
        src_inbox = []
        net.register(src, src_inbox.append)
        live = net.allocate_element(2)
        live_inbox = []
        net.register(live, live_inbox.append)
        ghost = net.allocate_element(3)  # never registered
        rng = random.Random(count)
        expected_live = 0
        expected_ghost = 0
        for i in range(count):
            if rng.random() < 0.5:
                net.send(Message.request(src, live, i))
                expected_live += 1
            else:
                net.send(Message.request(src, ghost, i))
                expected_ghost += 1
        kernel.run()
        assert len(live_inbox) == expected_live
        failures = [
            m for m in src_inbox if m.kind is MessageKind.DELIVERY_FAILURE
        ]
        assert len(failures) == expected_ghost
        assert net.stats.messages_sent == count
        assert net.stats.delivery_failures == expected_ghost
