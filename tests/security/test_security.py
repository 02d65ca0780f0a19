"""Unit tests for the security hooks (paper 2.4)."""

import pytest

from repro.naming.loid import LOID
from repro.security.environment import CallEnvironment
from repro.security.identity import Credentials, verify_identity
from repro.security.mayi import (
    ACLPolicy,
    AllowAll,
    CompositePolicy,
    DenyAll,
    MethodFilterPolicy,
    PredicatePolicy,
    TrustSetPolicy,
)


def actor(n):
    return LOID.for_instance(30, n, secret=5)


class TestCallEnvironment:
    def test_originating_plays_all_roles(self):
        env = CallEnvironment.originating(actor(1))
        assert env.responsible_agent == actor(1)
        assert env.security_agent == actor(1)
        assert env.calling_agent == actor(1)

    def test_originating_with_security_agent(self):
        env = CallEnvironment.originating(actor(1), security_agent=actor(2))
        assert env.security_agent == actor(2)

    def test_forwarding_preserves_ra_and_sa(self):
        env = CallEnvironment.originating(actor(1)).forwarded_by(actor(2))
        assert env.responsible_agent == actor(1)
        assert env.calling_agent == actor(2)
        deeper = env.forwarded_by(actor(3))
        assert deeper.responsible_agent == actor(1)
        assert deeper.calling_agent == actor(3)

    def test_rerooting_changes_ra(self):
        env = CallEnvironment.originating(actor(1)).rerooted(actor(9), actor(2))
        assert env.responsible_agent == actor(9)
        assert env.calling_agent == actor(2)


class TestIdentity:
    def test_genuine_loid_verifies(self):
        loid = LOID.for_instance(30, 1, secret=5)
        assert verify_identity(loid, 5)
        assert not verify_identity(loid, 6)

    def test_iam_challenge_response(self):
        loid = LOID.for_instance(30, 1, secret=5)
        creds = Credentials.respond(loid, challenge=777, system_secret=5)
        assert creds.verify(777, 5)
        assert not creds.verify(778, 5)  # replayed for another challenge
        assert not creds.verify(777, 6)  # wrong system

    def test_forged_loid_fails_even_with_matching_token(self):
        forged = LOID(30, 1, public_key=123)
        creds = Credentials.respond(forged, 777, 5)
        assert not creds.verify(777, 5)


class TestMayIPolicies:
    def env(self, ra=1, ca=2):
        return CallEnvironment(
            responsible_agent=actor(ra),
            security_agent=actor(ra),
            calling_agent=actor(ca),
        )

    def test_allow_and_deny(self):
        assert AllowAll().may_i("Anything", self.env())
        assert not DenyAll().may_i("Anything", self.env())

    def test_acl_checks_calling_agent(self):
        policy = ACLPolicy()
        policy.allow("Read", actor(2))
        assert policy.may_i("Read", self.env(ca=2))
        assert not policy.may_i("Read", self.env(ca=3))
        assert not policy.may_i("Write", self.env(ca=2))  # default deny

    def test_acl_default_allow(self):
        policy = ACLPolicy(default=True)
        assert policy.may_i("Unlisted", self.env())

    def test_trust_set_checks_responsible_agent(self):
        policy = TrustSetPolicy()
        policy.trust(actor(1))
        assert policy.may_i("X", self.env(ra=1, ca=99))
        assert not policy.may_i("X", self.env(ra=2, ca=1))
        policy.revoke(actor(1))
        assert not policy.may_i("X", self.env(ra=1))

    def test_method_filter(self):
        policy = MethodFilterPolicy(frozenset({"Get"}))
        assert policy.may_i("Get", self.env())
        assert not policy.may_i("Put", self.env())

    def test_predicate(self):
        policy = PredicatePolicy(lambda method, env: method.startswith("Get"))
        assert policy.may_i("GetState", self.env())
        assert not policy.may_i("SetState", self.env())

    def test_composition_operators(self):
        trusted = TrustSetPolicy()
        trusted.trust(actor(1))
        reads = MethodFilterPolicy(frozenset({"Get"}))
        both = trusted & reads
        either = trusted | reads
        assert both.may_i("Get", self.env(ra=1))
        assert not both.may_i("Put", self.env(ra=1))
        assert either.may_i("Put", self.env(ra=1))
        assert either.may_i("Get", self.env(ra=9))
        assert not either.may_i("Put", self.env(ra=9))

    def test_composite_mode_validation(self):
        with pytest.raises(ValueError):
            CompositePolicy([AllowAll()], mode="xor")
