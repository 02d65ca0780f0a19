"""Unit tests for the security hooks (paper 2.4)."""

from repro.naming.loid import LOID
from repro.security.environment import CallEnvironment
from repro.security.identity import Credentials, verify_identity
from repro.security.mayi import (
    ACLPolicy,
    AllowAll,
    DenyAll,
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
        policy = ACLPolicy(acl={"Read": {actor(2)}})
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
