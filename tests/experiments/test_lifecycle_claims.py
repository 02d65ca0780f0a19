"""The E6 and E13 claims at seeds where a lifecycle race once broke them.

* E6, seed 101: a class's Activate reached a magistrate that had just
  moved the object away; it must follow the object, not fail the call.
* E13, seed 105: a lost object came back through a plain Activate and
  crashed again; its checkpoint must still be there.
* After E6's fastest churn, at 40 seeds, every live process is the one
  its magistrate records, and no object runs twice.
"""

from repro.experiments import e6_stale_bindings, e13_availability
from tests.invariants import process_violations


def test_e6_churn_racing_a_move_costs_a_refresh_not_a_call():
    stats = e6_stale_bindings._run_level(50, 101, True)[0]
    assert (stats.calls_succeeded, stats.calls_issued) == (60, 60), stats.errors[:1]


def test_e13_a_lost_object_activated_plainly_keeps_its_checkpoint():
    assert e13_availability._run_level(3.0, 105, True)["state_intact"]


def test_e6_churn_leaves_one_recorded_process_per_object():
    problems = {
        seed: process_violations(e6_stale_bindings._run_level(50, seed, True)[4])
        for seed in range(40)
    }
    assert {seed: found for seed, found in problems.items() if found} == {}
