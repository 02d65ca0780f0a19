"""The magistrate's primitive scheduling functions (section 3.8)."""

import pytest

from repro import errors


class TestSchedulingHooks:
    def test_get_hosts_lists_the_jurisdiction(self, fresh_legion):
        system, _cls = fresh_legion
        site = system.sites[0].name
        magistrate = system.magistrates[site].loid
        hosts = system.call(magistrate, "GetHosts")
        assert set(hosts) == set(system.jurisdictions[site].host_objects)

    def test_suggest_placement_consumed_on_next_activation(self, fresh_legion):
        system, cls = fresh_legion
        site = system.sites[0].name
        magistrate = system.magistrates[site].loid
        binding = system.call(cls.loid, "Create", {"magistrate": magistrate})
        system.call(magistrate, "Deactivate", binding.loid)

        # A (simulated) Scheduling Agent pins the next activation.
        target_host = system.jurisdictions[site].host_objects[1]
        system.call(magistrate, "SuggestPlacement", binding.loid, target_host)
        address = system.call(magistrate, "Activate", binding.loid)
        host_server = next(
            s for s in system.host_servers.values() if s.loid == target_host
        )
        assert address.primary().host == host_server.impl.host_id

        # Consumed once: the next cycle reverts to the default policy.
        assert binding.loid.identity not in system.magistrates[site].impl.placement_suggestions

    def test_suggest_placement_rejects_foreign_host(self, fresh_legion):
        system, cls = fresh_legion
        site0, site1 = system.sites[0].name, system.sites[1].name
        magistrate = system.magistrates[site0].loid
        binding = system.call(cls.loid, "Create", {"magistrate": magistrate})
        foreign = system.jurisdictions[site1].host_objects[0]
        with pytest.raises(errors.RequestRefused):
            system.call(magistrate, "SuggestPlacement", binding.loid, foreign)

    def test_explicit_hint_beats_standing_suggestion(self, fresh_legion):
        system, cls = fresh_legion
        site = system.sites[0].name
        magistrate = system.magistrates[site].loid
        binding = system.call(cls.loid, "Create", {"magistrate": magistrate})
        system.call(magistrate, "Deactivate", binding.loid)
        hosts = system.jurisdictions[site].host_objects
        system.call(magistrate, "SuggestPlacement", binding.loid, hosts[0])
        address = system.call(magistrate, "Activate", binding.loid, hosts[1])
        host_server = next(
            s for s in system.host_servers.values() if s.loid == hosts[1]
        )
        assert address.primary().host == host_server.impl.host_id
