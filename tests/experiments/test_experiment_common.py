"""Unit tests for the experiment harness machinery itself."""


from repro.experiments.common import (
    Check,
    ExperimentResult,
    count_messages,
    populate,
    uniform_sites,
)
from repro.metrics.recorder import SeriesRecorder


class TestChecksAndResults:
    def make_result(self):
        recorder = SeriesRecorder(x_label="n")
        recorder.add(1, y=2)
        return ExperimentResult(
            experiment="EX",
            title="test experiment",
            claim="things hold",
            recorder=recorder,
        )

    def test_passed_requires_all_checks(self):
        result = self.make_result()
        result.check("a", True)
        assert result.passed
        result.check("b", False, "broke")
        assert not result.passed

    def test_render_contains_everything(self):
        result = self.make_result()
        result.check("good", True, "fine")
        result.check("bad", False, "broke")
        result.notes = "a note"
        text = result.render()
        assert "EX" in text and "things hold" in text
        assert "[PASS] good (fine)" in text
        assert "[FAIL] bad (broke)" in text
        assert "a note" in text

    def test_check_str(self):
        assert str(Check("x", True)) == "[PASS] x"
        assert str(Check("x", False, "d")) == "[FAIL] x (d)"


class TestHelpers:
    def test_uniform_sites(self):
        sites = uniform_sites(3, hosts_per_site=2)
        assert [s.name for s in sites] == ["site0", "site1", "site2"]
        assert all(s.hosts == 2 for s in sites)

    def test_count_messages(self, fresh_legion):
        system, cls = fresh_legion
        binding = system.call(cls.loid, "Create", {})
        system.call(binding.loid, "Ping")  # warm
        _, messages = count_messages(
            system, lambda: system.call(binding.loid, "Ping")
        )
        assert messages == 2  # warm call: request + reply

    def test_populate_creates_classes_and_instances(self, fresh_legion):
        system, _cls = fresh_legion
        out = populate(system, n_classes=2, instances_per_class=3)
        assert len(out) == 2
        for class_loid, instances in out.items():
            assert class_loid.is_class
            assert len(instances) == 3
            for binding in instances:
                assert system.call(binding.loid, "Ping") == "pong"
