"""The ``--mega`` wiring on E9: sharding stays byte-identical.

``--mega N`` appends a columnar ladder (N/100, N/10, N -- floored at
10^4) to E9's sweep.  The sharded-runner contract must survive the new
arm: ``--jobs`` is purely a wall-clock optimisation, so the rendered
report has to match the sequential reference byte for byte at any
worker count.
"""

from repro.experiments.e9_scaling import EXPERIMENT as E9
from repro.experiments.e9_scaling import e9_mega_sizes, run_e9_mega_unit
from repro.experiments.runner import run_many

MEGA = 20_000  # ladder: [10_000, 20_000] under the LADDER_FLOOR


class TestE9MegaUnit:
    def test_unit_settles_and_exercises_the_boundary(self):
        unit = run_e9_mega_unit(10_000, seed=0, quick=True)
        assert unit["settled"] and unit["wire_settled"]
        assert unit["issued"] == unit["completed"] + unit["shed"]
        assert unit["promotions"] > 0
        assert unit["demotions"] == unit["promotions"]
        assert unit["allocator_high_water"] == 10_000
        assert unit["max_class_load"] > 0

    def test_unit_is_deterministic(self):
        a = run_e9_mega_unit(10_000, seed=3, quick=True)
        b = run_e9_mega_unit(10_000, seed=3, quick=True)
        assert a == b


def test_mega_units_extend_the_sweep():
    base = E9.units(True, E9.bind({}))
    mega = E9.units(True, E9.bind({"mega": MEGA}))
    assert base == [u for u in mega if u[0] != "mega"]
    assert [u for u in mega if u[0] == "mega"] == [
        ("mega", 10_000),
        ("mega", MEGA),
    ]


def test_ladder_floor_and_dedup():
    assert e9_mega_sizes(10_000, quick=True) == [10_000]
    assert e9_mega_sizes(2_000_000, quick=True) == [
        20_000,
        200_000,
        2_000_000,
    ]


def test_jobs_1_and_2_mega_reports_are_byte_identical():
    (seq,) = run_many(["e9"], quick=True, seeds=(0,), jobs=1, mega=MEGA)
    (par,) = run_many(["e9"], quick=True, seeds=(0,), jobs=2, mega=MEGA)
    assert seq.passed, f"e9 --mega failed sequentially:\n{seq.report}"
    assert seq.report == par.report, "e9 --mega diverged across --jobs"
    assert "mega" in seq.report

