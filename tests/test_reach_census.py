"""``benchmarks/reach_census.py``'s table, checked without running a driver.

The census itself (every shipped driver under a profile hook, ~3 min)
runs in CI's ``reach-census`` job.  Here: every ``ALLOWED`` key names a
``def`` that exists, every entry has one of the five categories, the
table is no longer than its ceiling, the verdict flags both directions
of drift, and every example is both a census driver and a test.
"""

import importlib.util
import os
from pathlib import Path

import pytest

from tests.integration.test_examples import EXAMPLES_DIR, EXPECTED_MARKERS

_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "reach_census.py"
)
#: ``len(ALLOWED)``: the unreached non-dunder functions of ``src/repro``.
#: A change that cuts one lowers this to the new length.
CEILING = 27


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("reach_census", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowed_key_is_a_def(census):
    assert sorted(census.ALLOWED.keys() - census.definitions().keys()) == []


def test_every_entry_has_a_category_and_a_reason(census):
    assert len(census.CATEGORIES) == 5
    for key, (category, reason) in census.ALLOWED.items():
        assert category in census.CATEGORIES, key
        assert reason.strip(), key


def test_the_table_only_shrinks(census):
    assert len(census.ALLOWED) <= CEILING


def test_the_verdict_flags_unlisted_and_stale_entries(census):
    defs = census.definitions()
    driven = {site for key, site in defs.items() if key not in census.ALLOWED}
    assert census.census(defs, driven) == []
    stale = next(iter(census.ALLOWED))
    unlisted = next(key for key in defs if key not in census.ALLOWED)
    assert census.census(defs, driven - {defs[unlisted]} | {defs[stale]}) == [
        f"unreached and not in ALLOWED: {unlisted}",
        f"in ALLOWED but reached (remove the entry): {stale}",
    ]


def test_every_example_is_a_census_driver_with_markers(census):
    examples = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))
    driven = sorted(
        Path(target).name for _kind, target, _argv in census.DRIVERS
        if target.startswith("examples/")
    )
    assert driven == examples
    assert sorted(EXPECTED_MARKERS) == examples
