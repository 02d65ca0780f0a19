"""Failure-injection contracts of the network fabric.

Partitions must block *both* directions and be idempotent; per-link-class
drop probabilities must be honored exactly; and the NetStats counters must
reconcile -- every sent message is accounted for as delivered, dropped, or
bounced, with nothing double-counted or lost.
"""

import random

import pytest

from repro.net.latency import LatencyModel, LinkClass
from repro.net.message import Message, MessageKind, Undeliverable
from repro.net.network import Network


@pytest.fixture
def net(kernel):
    latency = LatencyModel()
    latency.assign_host(1, "uva")
    latency.assign_host(2, "uva")
    latency.assign_host(3, "doe")
    return Network(kernel, latency, rng=random.Random(0))


def sink(net, host):
    element = net.allocate_element(host)
    inbox = []
    net.register(element, inbox.append)
    return element, inbox


class _ScriptedRng:
    """Deterministic rng stub: hands out a preset sequence of draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


class TestPartitions:
    def test_partition_blocks_both_directions(self, net, kernel):
        a, a_inbox = sink(net, 1)
        b, b_inbox = sink(net, 3)
        net.partition("uva", "doe")
        net.send(Message.request(a, b, "a->b"))
        net.send(Message.request(b, a, "b->a"))
        kernel.run()
        payloads = [m.payload for m in a_inbox + b_inbox]
        assert "a->b" not in payloads and "b->a" not in payloads
        assert net.stats.partition_blocks == 2
        # Both senders heard about it (the 4.1.4 failure signal).
        assert [m.kind for m in a_inbox] == [MessageKind.DELIVERY_FAILURE]
        assert [m.kind for m in b_inbox] == [MessageKind.DELIVERY_FAILURE]
        assert a_inbox[0].payload is Undeliverable.PARTITION

    def test_partition_order_does_not_matter(self, net, kernel):
        a, _ = sink(net, 1)
        b, b_inbox = sink(net, 3)
        net.partition("doe", "uva")  # reversed site order
        net.send(Message.request(a, b, "x"))
        kernel.run()
        assert b_inbox == []

    def test_partition_and_heal_are_idempotent(self, net, kernel):
        a, _ = sink(net, 1)
        b, b_inbox = sink(net, 3)
        net.partition("uva", "doe")
        net.partition("uva", "doe")  # duplicate: still ONE partition
        net.heal("uva", "doe")  # one heal undoes it completely
        net.heal("uva", "doe")  # healing the healed is a no-op
        net.send(Message.request(a, b, "through"))
        kernel.run()
        assert [m.payload for m in b_inbox] == ["through"]
        assert net.stats.partition_blocks == 0

    def test_same_site_traffic_ignores_partitions(self, net, kernel):
        a, _ = sink(net, 1)
        peer, peer_inbox = sink(net, 2)
        net.partition("uva", "doe")
        net.send(Message.request(a, peer, "local"))
        kernel.run()
        assert [m.payload for m in peer_inbox] == ["local"]


class TestDropProbability:
    def test_drop_applies_only_to_the_configured_link_class(self, net, kernel):
        src, _ = sink(net, 1)
        lan, lan_inbox = sink(net, 2)
        wan, wan_inbox = sink(net, 3)
        net.drop_probability[LinkClass.WIDE_AREA] = 1.0
        net.send(Message.request(src, lan, "lan"))
        net.send(Message.request(src, wan, "wan"))
        kernel.run()
        assert [m.payload for m in lan_inbox] == ["lan"]
        assert wan_inbox == []  # silently dropped: no failure notice either
        assert net.stats.drops == 1

    def test_fractional_probability_follows_the_rng(self, net, kernel):
        # Draws alternate below/above p: drop, deliver, drop, deliver.
        net.rng = _ScriptedRng([0.1, 0.9, 0.2, 0.8])
        net.drop_probability[LinkClass.SAME_SITE] = 0.5
        src, _ = sink(net, 1)
        dst, inbox = sink(net, 2)
        for i in range(4):
            net.send(Message.request(src, dst, i))
        kernel.run()
        assert [m.payload for m in inbox] == [1, 3]
        assert net.stats.drops == 2

    def test_zero_probability_never_consults_the_rng(self, net, kernel):
        net.rng = _ScriptedRng([])  # any draw would IndexError
        src, _ = sink(net, 1)
        dst, inbox = sink(net, 2)
        net.send(Message.request(src, dst, "ok"))
        kernel.run()
        assert len(inbox) == 1


class TestStatsReconciliation:
    def test_every_sent_message_is_accounted_once(self, net, kernel):
        """sent == delivered + drops + bounced, under mixed failures."""
        src, src_inbox = sink(net, 1)
        lan, lan_inbox = sink(net, 2)
        wan, wan_inbox = sink(net, 3)
        stale = net.allocate_element(2)  # never registered

        net.drop_probability[LinkClass.WIDE_AREA] = 1.0
        for i in range(3):
            net.send(Message.request(src, lan, f"ok{i}"))  # delivered
        for i in range(2):
            net.send(Message.request(src, wan, f"drop{i}"))  # dropped
        for i in range(2):
            net.send(Message.request(src, stale, f"stale{i}"))  # bounced
        net.drop_probability[LinkClass.WIDE_AREA] = 0.0
        net.partition("uva", "doe")
        net.send(Message.request(src, wan, "blocked"))  # partition-bounced
        kernel.run()

        stats = net.stats
        assert stats.messages_sent == 8
        assert stats.messages_delivered == len(lan_inbox) == 3
        assert stats.drops == 2
        assert stats.partition_blocks == 1
        # Partition blocks and stale addresses both bounce a notice:
        assert stats.delivery_failures == 3
        assert (
            stats.messages_sent
            == stats.messages_delivered + stats.drops + stats.delivery_failures
        )
        # The sender heard one DELIVERY_FAILURE per bounced request.
        notices = [
            m for m in src_inbox if m.kind is MessageKind.DELIVERY_FAILURE
        ]
        assert len(notices) == 3
        assert wan_inbox == []

    def test_by_class_counters_cover_all_sends(self, net, kernel):
        src, _ = sink(net, 1)
        lan, _ = sink(net, 2)
        wan, _ = sink(net, 3)
        net.send(Message.request(src, lan, "a"))
        net.send(Message.request(src, wan, "b"))
        net.send(Message.request(src, src, "self"))
        kernel.run()
        by_class = net.stats.by_class
        assert sum(by_class.values()) == net.stats.messages_sent == 3
        assert by_class[LinkClass.SAME_SITE] == 1
        assert by_class[LinkClass.WIDE_AREA] == 1
        assert by_class[LinkClass.SAME_HOST] == 1

    def test_reset_zeroes_everything(self, net, kernel):
        src, _ = sink(net, 1)
        dst, _ = sink(net, 2)
        net.send(Message.request(src, dst, "x"))
        kernel.run()
        net.stats.reset()
        assert net.stats.messages_sent == 0
        assert net.stats.messages_delivered == 0
        assert all(v == 0 for v in net.stats.by_class.values())
