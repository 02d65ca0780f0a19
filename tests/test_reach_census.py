"""``benchmarks/reach_census.py``'s table, checked without running a driver.

The census itself (every shipped driver under a profile hook, ~3 min)
runs in CI's ``reach-census`` job.  Here: every ``ALLOWED`` key names a
``def`` that exists, every entry has one of the seven categories, every
``paper`` reason cites a section, the table is no longer than its
ceiling, and the verdict flags both directions of drift.
"""

import importlib.util
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "reach_census.py"
)
#: ``len(ALLOWED)``: the unreached non-dunder functions of ``src/repro``.
#: A change that cuts one lowers this to the new length.
CEILING = 124


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("reach_census", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowed_key_is_a_def(census):
    assert sorted(census.ALLOWED.keys() - census.definitions().keys()) == []


def test_every_entry_has_a_category_and_a_reason(census):
    assert len(census.CATEGORIES) == 7
    for key, (category, reason) in census.ALLOWED.items():
        assert category in census.CATEGORIES, key
        assert reason.strip(), key
        if category == "paper":
            assert "§" in reason, key


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
