"""The (src host, dst host) -> LinkClass memo behind ``Network.send``.

``LatencyModel.classify`` is the only definition of the locality rule;
``send`` reads its remembered answers.  The class a message is booked
under must therefore equal ``classify`` for every host pair -- assigned
or not -- and must follow a host that ``assign_host`` moves.
"""

import itertools

from repro.net.latency import LatencyModel, LinkClass
from repro.net.message import Message
from repro.net.network import Network
from repro.simkernel.kernel import SimKernel

SITES = {"uva": (1, 2), "doe": (3, 4), "nasa": (5, 6)}
UNASSIGNED = 99


def _testbed():
    latency = LatencyModel()
    for site, hosts in SITES.items():
        for host in hosts:
            latency.assign_host(host, site)
    network = Network(SimKernel(), latency)
    hosts = [h for pair in SITES.values() for h in pair] + [UNASSIGNED]
    elements = {host: network.allocate_element(host) for host in hosts}
    for element in elements.values():
        network.register(element, lambda message: None)
    return network, elements


def _booked_class(network, src, dst) -> LinkClass:
    """Send one message and return the class whose counter it bumped."""
    before = dict(network.stats.by_class)
    network.send(Message.event(src, dst, None))
    moved = [c for c in LinkClass if network.stats.by_class[c] != before[c]]
    assert len(moved) == 1
    return moved[0]


def test_send_books_every_host_pair_under_classify():
    network, elements = _testbed()
    fresh = LatencyModel()  # same rule, no memo: the reference
    for site, hosts in SITES.items():
        for host in hosts:
            fresh.assign_host(host, site)
    for _ in range(2):  # second pass is served from the table
        for a, b in itertools.product(elements, repeat=2):
            booked = _booked_class(network, elements[a], elements[b])
            assert booked is network.latency.classify(a, b) is fresh.classify(a, b), (a, b)
    assert _booked_class(network, elements[1], elements[1]) is LinkClass.SAME_HOST
    assert _booked_class(network, elements[1], elements[2]) is LinkClass.SAME_SITE
    assert _booked_class(network, elements[1], elements[3]) is LinkClass.WIDE_AREA
    assert _booked_class(network, elements[1], elements[UNASSIGNED]) is LinkClass.WIDE_AREA
    # Bounded by the pairs that talked.
    assert len(network.latency.links) == len(elements) ** 2


def test_moving_a_host_changes_the_next_messages_class():
    network, elements = _testbed()
    kernel = network.kernel
    assert _booked_class(network, elements[1], elements[3]) is LinkClass.WIDE_AREA
    assert _booked_class(network, elements[UNASSIGNED], elements[1]) is LinkClass.WIDE_AREA
    network.latency.assign_host(3, "uva")
    network.latency.assign_host(UNASSIGNED, "uva")
    assert _booked_class(network, elements[1], elements[3]) is LinkClass.SAME_SITE
    assert _booked_class(network, elements[UNASSIGNED], elements[1]) is LinkClass.SAME_SITE
    assert _booked_class(network, elements[3], elements[4]) is LinkClass.WIDE_AREA
    # ... and its latency: the re-homed pair now delivers at LAN speed.
    kernel.run()
    sent = kernel.now
    arrived = []
    network.unregister(elements[3])
    network.register(elements[3], lambda message: arrived.append(kernel.now))
    network.send(Message.event(elements[1], elements[3], None))
    kernel.run()
    assert arrived == [sent + network.latency.base[LinkClass.SAME_SITE]]
