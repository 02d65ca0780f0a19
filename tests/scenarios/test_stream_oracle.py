"""The compiled event stream, pinned bit for bit.

``compile_events`` is the interpreter of a scenario spec, and its draw
order is a contract: every replay (the rich driver, the columnar frames,
each E18 arm, the ledger's ``scenario_open``) reads the stream it
returns, so ``experiments_output.txt`` and the ledger digest move the
moment one draw moves.  This oracle hashes a rendering of the stream
that does not depend on the record types -- each record's field values
in declaration order, floats by ``float.hex`` -- so a change to how the
records are built cannot hide a change to what was drawn.

The digests were cut from a compiler that called ``random.Random``'s own
``randrange`` and ``expovariate``, so on every interpreter the suite
runs on they check the inlined draws against CPython's.
"""

import hashlib
import random
from math import log

import pytest

from repro.scenarios import compile_events, get_scenario

from tests._state import ticks

TICK_FIELDS = ("index", "t0", "phase", "arrivals")
ARRIVAL_FIELDS = (
    "offset",
    "site",
    "tenant",
    "klass",
    "target_site",
    "slot",
    "key",
    "completed",
    "requests",
)
REQUEST_FIELDS = ("kind", "think", "denied")

#: sha256 of the rendered stream per (scenario, seed, rate_scale).
DIGESTS = {
    ("diurnal-regional", 0, 1.0): "08265e62b157ff0850b9431df1d1a03cbb65b46fc49474dded8c4b94734ba673",
    ("diurnal-regional", 0, 4.0): "670cabc5bcf6156976e7b04fe26e0d80ee3dd945263d22d8d4820d34bb9a6350",
    ("diurnal-regional", 1, 1.0): "55f40b8fa259a492d5c6760a515361832cf433b476f92db096cbde943c6ce196",
    ("diurnal-regional", 1, 4.0): "a682f6803e82a04adec0979d07aed85df64359badb0eeb682599cabf566767ac",
    ("diurnal-regional", 7, 1.0): "ced31c4e8755471407207a37c144908184e1c603ca00dbe3e2760ecf4a2f8cda",
    ("diurnal-regional", 7, 4.0): "267d72dcce3bf35565231d2858a0077680c85efbb8049b4ee4b25227ad89dd31",
    ("flash-crowd", 0, 1.0): "8eb205d6fda39b7b5dd36a12ce21f75305546a8faa091ba2d2ef68808e116753",
    ("flash-crowd", 0, 4.0): "0f631965275a5f0319354b054b9d8e580741e77ded3fd83aa3efd08ec607b769",
    ("flash-crowd", 1, 1.0): "4cc5f2ae69140ddf4358dc2ec21bf012bf0b218a28b2cabf5fcf1e8bc7bc9219",
    ("flash-crowd", 1, 4.0): "a87686bce056505448385e4c5cba16ea500afa6985da0acb87ee8ee8079e3b5b",
    ("flash-crowd", 7, 1.0): "5e6809f2e0e4c16eea31a62754c9f7f62fc0a9efc30dd31eed60f2b5e860c54e",
    ("flash-crowd", 7, 4.0): "75d6bb80b49517c43e6532a4b5feeda9ce09921c78f7f5f7b7a803dcb49e6f0c",
    ("multi-tenant", 0, 1.0): "dded23ed39599fb61c57f81cb729f57cc3b2c79ec9e55932df43f00df79138b8",
    ("multi-tenant", 0, 4.0): "76d03c6be80c50e2a8ad47189deddbe780416463978165ef80830e830fd16ae8",
    ("multi-tenant", 1, 1.0): "1f7d5bd0a7935b35e9e7730d0e65692f31a26e395874e5e759270c26e1cdb658",
    ("multi-tenant", 1, 4.0): "002a1c5592b3b36419672180d78994ca699734fa8a89540b15c2565d31ac7cbc",
    ("multi-tenant", 7, 1.0): "49e9cb8b0b583b84ac4d3eac7dc8672dd3d96f3ce675ab3454657b6eb948dabe",
    ("multi-tenant", 7, 4.0): "e4fa1bbbd6c5e6a2c0420de6fe68e81d6b429b37c5360c423e33c48df54b8828",
    ("scientific-batch", 0, 1.0): "64f9e6029f41d5bd97bceedf73cc999c77550310dbe381a0182b10ea7fa3dceb",
    ("scientific-batch", 0, 4.0): "808aeab6d6975116b8526f87eb927939024daa9ec293e8f4784d39f18827c73b",
    ("scientific-batch", 1, 1.0): "370ac3503b53a78b465835cea495185c566a8ea1856b5ed3397587d6a89c1dd5",
    ("scientific-batch", 1, 4.0): "8309a48a155b72456ef41a9a03224c57ff2566ea47de934c5f4529812380e0c1",
    ("scientific-batch", 7, 1.0): "de36bf7c12e2b6ac431ae0e92edc6fa3a18787c0db54f389d2b91ea87169147a",
    ("scientific-batch", 7, 4.0): "9a2daa77f8cec146a164cf4047e987bdd2dbb249d4bce640012b45736f36beea",
    ("repository", 0, 1.0): "d64d6636033630d0de70192ca92e50bf37880c2020e9505b50b3ebbb9d739705",
    ("repository", 0, 4.0): "dfa0df482e5adf091ee5a46b992726cb75522f952a47cebca962dc99791961a2",
    ("repository", 1, 1.0): "5ca891cee6bdc1c074089e4aab8b76a0d79b5bf1beaa551dfe9cdfc0624eef68",
    ("repository", 1, 4.0): "0dbc178f06e55f453a719ce2b2ec097c214b6a54b1064b2e20b3a286b2d5fbd7",
    ("repository", 7, 1.0): "cbda8f0ca7519607f1aec5d3fb4628856a47d6f302e1f63823dd13425dbf60af",
    ("repository", 7, 4.0): "c2268c677dfa970afbeb8728a02eb91e4ed2ada7381a8b8abb80aefe03bb81b9",
}


def _atom(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def digest_of(plan) -> str:
    """sha256 of the stream's field values in declaration order, a record a line."""
    digest = hashlib.sha256()
    for tick in ticks(plan):
        head = [_atom(getattr(tick, f)) for f in TICK_FIELDS[:-1]]
        digest.update(("T " + " ".join(head) + "\n").encode())
        for arrival in tick.arrivals:
            head = [_atom(getattr(arrival, f)) for f in ARRIVAL_FIELDS[:-1]]
            digest.update(("A " + " ".join(head) + "\n").encode())
            for request in arrival.requests:
                line = " ".join(_atom(getattr(request, f)) for f in REQUEST_FIELDS)
                digest.update(("R " + line + "\n").encode())
    return digest.hexdigest()


@pytest.mark.parametrize(("name", "seed", "rate_scale"), sorted(DIGESTS))
def test_stream_is_pinned(name, seed, rate_scale):
    plan = compile_events(get_scenario(name), seed, rate_scale=rate_scale)
    assert digest_of(plan) == DIGESTS[name, seed, rate_scale]


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17])
def test_inlined_randrange_is_cpythons(n):
    """``compile_events`` draws ``randrange(n)`` as this rejection loop."""
    ours, theirs = random.Random(n), random.Random(n)
    getrandbits, k = ours.getrandbits, n.bit_length()
    for _ in range(1_000):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        assert r == theirs.randrange(n)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("mean", [0.5, 8.0, 25.0])
def test_inlined_expovariate_is_cpythons(mean):
    """``compile_events`` draws ``expovariate(1/mean)`` as this expression."""
    ours, theirs = random.Random(7), random.Random(7)
    lambd = 1.0 / mean
    for _ in range(1_000):
        assert -log(1.0 - ours.random()) / lambd == theirs.expovariate(lambd)
