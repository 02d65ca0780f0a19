"""Tests for workload generators and the sample applications."""

import numpy as np
import pytest

from repro.errors import LegionError
from repro.workloads.apps import KVStoreImpl
from repro.workloads.generators import (
    LocalityMix,
    OpenLoopDriver,
    TrafficDriver,
    ZipfPopularity,
)


class TestZipfPopularity:
    def test_validation(self):
        with pytest.raises(LegionError):
            ZipfPopularity(0)
        with pytest.raises(LegionError):
            ZipfPopularity(5, s=-1)

    def test_rank_zero_most_popular(self):
        zipf = ZipfPopularity(10, s=1.2, rng=np.random.default_rng(0))
        samples = [zipf.sample() for _ in range(20_000)]
        counts = np.bincount(samples, minlength=10)
        assert counts[0] == counts.max()
        assert counts.argsort()[::-1][0] == 0

    def test_uniform_when_s_zero(self):
        zipf = ZipfPopularity(4, s=0.0, rng=np.random.default_rng(0))
        samples = [zipf.sample() for _ in range(40_000)]
        counts = np.bincount(samples, minlength=4) / 40_000
        assert np.allclose(counts, 0.25, atol=0.02)

    def test_sample_in_range(self):
        zipf = ZipfPopularity(3, rng=np.random.default_rng(1))
        assert all(0 <= zipf.sample() < 3 for _ in range(100))

    def test_empirical_matches_theoretical(self):
        zipf = ZipfPopularity(5, s=1.0, rng=np.random.default_rng(2))
        samples = [zipf.sample() for _ in range(50_000)]
        freq = np.bincount(samples, minlength=5) / 50_000
        weights = 1.0 / np.arange(1, 6)
        theory = weights / weights.sum()
        assert np.allclose(freq, theory, atol=0.02)


class TestLocalityMix:
    def targets(self):
        from repro.naming.loid import LOID

        return {
            "a": [LOID.for_instance(10, 1), LOID.for_instance(10, 2)],
            "b": [LOID.for_instance(10, 3)],
        }

    def test_validation(self):
        import random

        with pytest.raises(LegionError):
            LocalityMix(self.targets(), 1.5, random.Random(0))

    def test_full_locality(self):
        import random

        mix = LocalityMix(self.targets(), 1.0, random.Random(0))
        local = set(self.targets()["a"])
        assert all(mix.choose("a") in local for _ in range(50))

    def test_zero_locality_goes_remote(self):
        import random

        mix = LocalityMix(self.targets(), 0.0, random.Random(0))
        remote = set(self.targets()["b"])
        assert all(mix.choose("a") in remote for _ in range(50))

    def test_fraction_roughly_respected(self):
        import random

        mix = LocalityMix(self.targets(), 0.8, random.Random(0))
        local = set(self.targets()["a"])
        hits = sum(mix.choose("a") in local for _ in range(2000))
        assert 0.75 < hits / 2000 < 0.85

    def test_unknown_site_falls_back_to_any(self):
        import random

        mix = LocalityMix(self.targets(), 0.9, random.Random(0))
        pick = mix.choose("nowhere")
        assert pick in set(self.targets()["a"]) | set(self.targets()["b"])


class TestTrafficDriver:
    def test_all_calls_counted(self, fresh_legion):
        system, cls = fresh_legion
        target = system.call(cls.loid, "Create", {})
        clients = [system.new_client(f"t{i}") for i in range(2)]
        driver = TrafficDriver(
            system.kernel,
            clients,
            choose_target=lambda _c: target.loid,
            method="Increment",
            args=(1,),
            calls_per_client=5,
            think_time=1.0,
        )
        stats = system.kernel.run_until_complete(driver.start())
        assert stats.calls_issued == 10
        assert stats.success_rate == 1.0
        assert system.call(target.loid, "Get") == 10

    def test_failures_recorded_not_raised(self, fresh_legion):
        system, cls = fresh_legion
        target = system.call(cls.loid, "Create", {})
        driver = TrafficDriver(
            system.kernel,
            [system.new_client("t")],
            choose_target=lambda _c: target.loid,
            method="NoSuchMethod",
            calls_per_client=3,
            think_time=0.0,
        )
        stats = system.kernel.run_until_complete(driver.start())
        assert stats.calls_failed == 3
        assert stats.success_rate == 0.0
        assert stats.errors


class TestOpenLoopDriver:
    def test_schedule_stagger_and_per_call_records(self, fresh_legion):
        system, cls = fresh_legion
        target = system.call(cls.loid, "Create", {})
        clients = [system.new_client(f"o{i}") for i in range(2)]
        start = system.kernel.now
        driver = OpenLoopDriver(
            system.kernel,
            clients,
            choose_call=lambda _c: (target.loid, "Increment", (1,)),
            # 10 ms at one call per 5 ms, then 9 ms at one per 4 ms: the
            # second phase starts on time and its last sleep stops at its end.
            schedule=[(10.0, 5.0), (9.0, 4.0)],
            stagger=1.0,
        )
        stats = system.kernel.run_until_complete(driver.start())
        issued = sorted(round(r["issue"] - start, 6) for r in driver.records)
        per_client = [0.0, 5.0, 10.0, 14.0, 18.0]
        assert issued == sorted(per_client + [t + 1.0 for t in per_client])
        assert stats.calls_issued == stats.calls_succeeded == 10
        assert all(r["outcome"] == "ok" and r["done"] > r["issue"] for r in driver.records)
        assert system.call(target.loid, "Get") == 10

    def test_outcomes_are_classified_once_for_every_driver(self, fresh_legion):
        system, cls = fresh_legion
        target = system.call(cls.loid, "Create", {})
        methods = iter(["Get", "NoSuchMethod"])
        driver = OpenLoopDriver(
            system.kernel,
            [system.new_client("o")],
            choose_call=lambda _c: (target.loid, next(methods), ()),
            schedule=[(2.0, 1.0)],
        )
        stats = system.kernel.run_until_complete(driver.start())
        assert [r["outcome"] for r in driver.records] == ["ok", "failed"]
        assert (stats.calls_succeeded, stats.calls_failed) == (1, 1)
        assert len(stats.errors) == 1 and stats.errors[0].startswith("NoSuchMethod: ")


class TestApps:
    def test_counter_state(self, fresh_legion):
        system, cls = fresh_legion
        c = system.call(cls.loid, "Create", {"init": {"start": 10}})
        assert system.call(c.loid, "Increment", 5) == 15
        assert system.call(c.loid, "Get") == 15

    def test_kv_store_full_protocol(self, fresh_legion):
        system, _cls = fresh_legion
        kv_cls = system.create_class("KV3", factory=KVStoreImpl)
        kv = system.call(kv_cls.loid, "Create", {})
        system.call(kv.loid, "Put", "alpha", 1)
        system.call(kv.loid, "Put", "beta", [1, 2])
        assert system.call(kv.loid, "Get", "alpha") == 1
        assert system.call(kv.loid, "Get", "beta") == [1, 2]

    def test_kv_store_survives_migration(self, fresh_legion):
        system, _cls = fresh_legion
        kv_cls = system.create_class("KV4", factory=KVStoreImpl)
        kv = system.call(kv_cls.loid, "Create", {})
        system.call(kv.loid, "Put", "k", "v")
        row = system.call(kv_cls.loid, "GetRow", kv.loid)
        source = row.current_magistrates[0]
        target = [
            m.loid for m in system.magistrates.values() if m.loid != source
        ][0]
        system.call(source, "Move", kv.loid, target)
        assert system.call(kv.loid, "Get", "k") == "v"
