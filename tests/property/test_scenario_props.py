"""Property-based tests over the scenario language.

Hypothesis draws random well-formed specs (arrival shape, session
probabilities, topology) and seeds; for each one:

* compilation is a pure function: the same (spec, seed) yields the
  identical event stream, and a longer horizon extends it by prefix;
* the compiled stream conserves sessions: every arrival is either
  completed (reached max_requests) or abandoned, never both, and the
  per-tick counts sum to the total;
* the rich and columnar backends agree on per-frame session arrivals
  frame for frame (the mega backend's admission/serving may differ --
  the *workload* may not).
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    compile_events,
    from_dict,
    per_tick_arrivals,
    stream_stats,
)

from tests._state import ticks

arrivals = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("poisson"), "rate": st.floats(0.0, 1.5)}
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("diurnal"),
            "rate": st.floats(0.1, 1.0),
            "amplitude": st.floats(0.0, 1.0),
            "period": st.floats(40.0, 300.0),
        }
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("flash"),
            "rate": st.floats(0.05, 0.8),
            "surge_at": st.floats(0.0, 100.0),
            "surge_duration": st.floats(0.0, 80.0),
            "surge_mult": st.floats(1.0, 10.0),
        }
    ),
)


@st.composite
def specs(draw):
    p_continue = draw(
        st.floats(0.0, 1.0).map(lambda p: round(p, 3))
    )
    phase = {
        "name": "p0",
        "duration": draw(st.floats(40.0, 240.0)),
        "arrival": draw(arrivals),
        "session": {
            "think_time": draw(st.floats(0.0, 15.0)),
            "p_continue": p_continue,
            "p_abandon": round(1.0 - p_continue, 3),
            "max_requests": draw(st.integers(1, 5)),
        },
    }
    return from_dict(
        {
            "name": "prop",
            "sites": draw(st.integers(1, 3)),
            "n_classes": draw(st.integers(1, 4)),
            "targets_per_site": draw(st.integers(1, 2)),
            "mix": {
                "kinds": {"work": 0.5, "read": 0.5},
                "zipf_s": draw(st.floats(0.0, 2.0)),
                "locality": draw(st.floats(0.0, 1.0)),
            },
            "phases": [phase],
        }
    )


@settings(max_examples=40)
@given(spec=specs(), seed=st.integers(0, 2**31 - 1))
def test_compilation_is_deterministic(spec, seed):
    assert compile_events(spec, seed) == compile_events(spec, seed)


@settings(max_examples=40)
@given(spec=specs(), seed=st.integers(0, 2**31 - 1))
def test_longer_timeline_extends_the_stream_by_prefix(spec, seed):
    """Growing a phase keeps the shorter compilation as an exact prefix.

    The per-tick draws consume the seeded stream in tick order, so the
    first ``duration`` ms of a longer run are the identical event
    stream -- what makes --quick results a prefix of --full ones.
    """
    short = compile_events(spec, seed)
    phases = (
        dataclasses.replace(
            spec.phases[0], duration=spec.phases[0].duration + 100.0
        ),
    )
    longer = compile_events(dataclasses.replace(spec, phases=phases), seed)
    assert list(ticks(longer))[: len(short)] == list(ticks(short))


@settings(max_examples=40)
@given(spec=specs(), seed=st.integers(0, 2**31 - 1))
def test_compiled_stream_conserves_sessions(spec, seed):
    plan = compile_events(spec, seed)
    stats = stream_stats(plan)
    assert stats["sessions"] == stats["completed"] + stats["abandoned"]
    assert stats["sessions"] == sum(per_tick_arrivals(plan))
    max_requests = spec.phases[0].session.max_requests
    for tick in ticks(plan):
        for a in tick.arrivals:
            assert 1 <= len(a.requests) <= max_requests
            assert a.completed == (len(a.requests) == max_requests) or (
                not a.completed
            )
            # completed implies the trajectory reached the cap
            if a.completed:
                assert len(a.requests) == max_requests


@settings(max_examples=25)
@given(spec=specs(), seed=st.integers(0, 2**31 - 1))
def test_rich_and_mega_backends_see_identical_arrivals(spec, seed):
    from repro.scenarios.mega import compile_frames, frame_arrivals

    plan = compile_events(spec, seed)
    frames = compile_frames(spec, plan)
    assert frame_arrivals(spec, frames) == per_tick_arrivals(plan)
