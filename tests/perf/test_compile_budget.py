"""The compile budget: a scenario compiles at the cost of its draws.

``compile_events`` interprets a spec.  It is counted here under
``sys.setprofile`` as Python frames (``call`` events; builtin calls such
as ``random()`` and ``bisect_right`` are the draws themselves and are not
counted): validation, the CDF tables and one ``site_rate`` per (tick,
site), and nothing per session or per request.  So a compile costs the
same frames at ``rate_scale`` 1 and 4, although 4 draws about four times
the sessions.  Measured, at seed 0:

    scenario       before (rate_scale 1 -> 4)   after (1 and 4)
    flash-crowd    4,384 -> 17,511              105
    repository     6,543 -> 26,292              128
    multi-tenant   5,342 -> 20,683              145

Before, every session cost 8.5-9.8 frames: ``randrange`` and its
``_randbelow``, ``expovariate``, a Poisson helper, a frozen dataclass's
``__init__`` per record and a sort-key ``lambda``.  Each ceiling below is
the measured count, so one frame added per compile fails.

Counts are exact for a given interpreter, so, like the call budget, this
runs on CPython 3.11 only.
"""

import gc
import sys

import pytest

from repro.scenarios import compile_events, get_scenario

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="frame counts are pinned on CPython 3.11",
)

#: Python frames one ``compile_events`` may run, per catalog scenario.
FRAME_CEILINGS = {"flash-crowd": 105, "repository": 128, "multi-tenant": 145}


def frames_of_one_compile(spec, rate_scale: float) -> int:
    frames = 0

    def hook(_frame, event, _arg):
        nonlocal frames
        if event == "call":
            frames += 1

    gc.collect()
    gc.disable()  # a collection would run finalizers inside the count
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        compile_events(spec, 0, rate_scale=rate_scale)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return frames


@pytest.mark.parametrize("name", sorted(FRAME_CEILINGS))
def test_a_compile_costs_no_frame_per_session(name):
    spec = get_scenario(name)
    frames = frames_of_one_compile(spec, 1.0)
    assert frames <= FRAME_CEILINGS[name]
    assert frames_of_one_compile(spec, 4.0) == frames
