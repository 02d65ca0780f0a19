"""Unit tests for the network fabric: delivery, staleness, partitions."""

import pickle
import random

import pytest

from repro.errors import NetworkError
from repro.net.latency import LatencyModel, LinkClass
from repro.net.message import Message, MessageKind
from repro.net.network import Network


@pytest.fixture
def net(kernel):
    latency = LatencyModel()
    latency.assign_host(1, "uva")
    latency.assign_host(2, "uva")
    latency.assign_host(3, "doe")
    return Network(kernel, latency, rng=random.Random(0))


def register_sink(net, host):
    element = net.allocate_element(host)
    inbox = []
    net.register(element, inbox.append)
    return element, inbox


class TestRegistration:
    def test_allocate_gives_fresh_ports(self, net):
        a = net.allocate_element(1)
        b = net.allocate_element(1)
        assert a != b
        assert a.host == b.host == 1

    def test_duplicate_registration_rejected(self, net):
        element, _ = register_sink(net, 1)
        with pytest.raises(NetworkError):
            net.register(element, lambda m: None)

    def test_unregister_is_idempotent(self, net):
        element, _ = register_sink(net, 1)
        net.unregister(element)
        net.unregister(element)
        assert not net.is_registered(element)


class TestDelivery:
    def test_same_site_faster_than_wide_area(self, net, kernel):
        src, _ = register_sink(net, 1)
        lan_dst, lan_inbox = register_sink(net, 2)
        wan_dst, wan_inbox = register_sink(net, 3)
        net.send(Message.request(src, lan_dst, "lan"))
        net.send(Message.request(src, wan_dst, "wan"))
        kernel.run()
        # LAN delivery strictly before WAN delivery in simulated time.
        assert lan_inbox and wan_inbox
        base = net.latency.base
        assert base[net.latency.classify(1, 2)] < base[net.latency.classify(1, 3)]

    def test_a_send_orders_with_kernel_posts_as_a_post_would(self, net, kernel):
        # send pushes its delivery onto the kernel heap itself; it must take
        # the (time, seq) place a kernel.post of that delivery would take.
        kernel.post(3.0, lambda: None)
        kernel.run()
        src, _ = register_sink(net, 1)
        dst = net.allocate_element(2)
        order = []
        net.register(dst, lambda m: order.append(m.payload))
        one_way = net.latency.base[net.latency.classify(1, 2)]
        kernel.post(one_way, order.append, "post-before")
        net.send(Message.request(src, dst, "send"))
        kernel.post(one_way, order.append, "post-after")
        kernel.post(one_way / 2, order.append, "earlier")
        kernel.run()
        assert order == ["earlier", "post-before", "send", "post-after"]
        assert kernel.now == 3.0 + one_way

    def test_per_class_accounting(self, net, kernel):
        src, _ = register_sink(net, 1)
        dst, _ = register_sink(net, 3)
        net.send(Message.request(src, dst, "x"))
        kernel.run()
        assert net.stats.by_class[LinkClass.WIDE_AREA] == 1
        assert net.stats.messages_delivered == 1

    def test_per_class_counts_survive_pickling(self, net, kernel):
        """LinkClass members hash by identity; a pickled stats object
        (what a --jobs worker would hand back) must still answer by member."""
        src, _ = register_sink(net, 1)
        dst, _ = register_sink(net, 3)
        net.send(Message.request(src, dst, "x"))
        clone = pickle.loads(pickle.dumps(net.stats))
        assert clone.by_class == net.stats.by_class
        assert clone.by_class[LinkClass.WIDE_AREA] == 1
        assert list(clone.by_class) == list(LinkClass)

    def test_stale_destination_bounces_failure(self, net, kernel):
        src_element = net.allocate_element(1)
        src_inbox = []
        net.register(src_element, src_inbox.append)
        ghost = net.allocate_element(2)  # never registered
        net.send(Message.request(src_element, ghost, "hello"))
        kernel.run()
        assert len(src_inbox) == 1
        notice = src_inbox[0]
        assert notice.kind is MessageKind.DELIVERY_FAILURE
        assert notice.correlation_id != 0

    def test_failure_notice_correlates_with_request(self, net, kernel):
        src, inbox = register_sink(net, 1)
        ghost = net.allocate_element(2)
        message = Message.request(src, ghost, "x")
        net.send(message)
        kernel.run()
        assert inbox[0].correlation_id == message.correlation_id

    def test_unregistered_sender_gets_no_notice(self, net, kernel):
        ghost_src = net.allocate_element(1)
        ghost_dst = net.allocate_element(2)
        net.send(Message.request(ghost_src, ghost_dst, "x"))
        kernel.run()  # nothing to deliver anywhere; must not blow up
        assert net.stats.delivery_failures == 1

    def test_reply_to_dead_caller_is_dropped_silently(self, net, kernel):
        src, _ = register_sink(net, 1)
        dst, dst_inbox = register_sink(net, 2)
        request = Message.request(src, dst, "ping")
        net.send(request)
        kernel.run()
        net.unregister(src)
        net.send(dst_inbox[0].reply_with("pong"))
        kernel.run()  # no failure-notice loop
        assert net.stats.delivery_failures == 1


class TestFailureInjection:
    def test_partition_blocks_and_heals(self, net, kernel):
        src, src_inbox = register_sink(net, 1)
        dst, dst_inbox = register_sink(net, 3)
        net.partition("uva", "doe")
        net.send(Message.request(src, dst, "x"))
        kernel.run()
        assert dst_inbox == []
        assert src_inbox[0].kind is MessageKind.DELIVERY_FAILURE
        net.heal("uva", "doe")
        net.send(Message.request(src, dst, "y"))
        kernel.run()
        assert dst_inbox[0].payload == "y"

    def test_partition_does_not_block_same_site(self, net, kernel):
        src, _ = register_sink(net, 1)
        dst, inbox = register_sink(net, 2)
        net.partition("uva", "doe")
        net.send(Message.request(src, dst, "x"))
        kernel.run()
        assert inbox[0].payload == "x"

    def test_drops_are_silent(self, net, kernel):
        src, src_inbox = register_sink(net, 1)
        dst, dst_inbox = register_sink(net, 3)
        net.drop_probability[LinkClass.WIDE_AREA] = 1.0
        net.send(Message.request(src, dst, "x"))
        kernel.run()
        assert dst_inbox == []
        assert src_inbox == []  # silent: only timeouts can detect this
        assert net.stats.drops == 1

    def test_heal_all(self, net):
        net.partition("uva", "doe")
        net.heal_all()
        assert not net._partitioned(1, 3)


class TestLatencyModel:
    def test_classification(self):
        latency = LatencyModel()
        latency.assign_host(1, "a")
        latency.assign_host(2, "a")
        latency.assign_host(3, "b")
        assert latency.classify(1, 1) is LinkClass.SAME_HOST
        assert latency.classify(1, 2) is LinkClass.SAME_SITE
        assert latency.classify(1, 3) is LinkClass.WIDE_AREA
        assert latency.classify(1, 99) is LinkClass.WIDE_AREA  # unassigned

    def test_uniform_model(self):
        latency = LatencyModel.uniform(2.5)
        assert latency.base[latency.classify(1, 1)] == 2.5
        assert latency.base[latency.classify(1, 99)] == 2.5

    def test_zero_latency_is_allowed(self):
        assert LatencyModel.uniform(0.0).base[LinkClass.WIDE_AREA] == 0.0

    @pytest.mark.parametrize("bad", [-1, -0.5, float("nan"), float("inf")])
    def test_uniform_rejects_a_bad_latency(self, bad):
        with pytest.raises(NetworkError, match=r"LinkClass\.SAME_HOST\] is"):
            LatencyModel.uniform(bad)

    @pytest.mark.parametrize("bad", [-2.0, float("nan"), float("-inf")])
    def test_one_bad_class_is_named_with_its_value(self, bad):
        base = {c: 1.0 for c in LinkClass}
        base[LinkClass.SAME_SITE] = bad
        with pytest.raises(NetworkError) as err:
            LatencyModel(base=base)
        assert f"LinkClass.SAME_SITE] is {bad!r}" in str(err.value)

    def test_a_missing_class_is_named(self):
        base = {c: 1.0 for c in LinkClass if c is not LinkClass.WIDE_AREA}
        with pytest.raises(NetworkError, match="no latency for LinkClass.WIDE_AREA"):
            LatencyModel(base=base)
