"""MayI() policies: the per-object admission check (paper section 2.4).

Every Legion object exports ``MayI()``; the dispatch loop consults the
object's policy before running any method.  "These functions may default
to empty for the case of no security" -- :class:`AllowAll` is that empty
default.  The other policies exercise the decisions the paper motivates:
DOE-style trust sets (Fig. 9) and per-method ACLs.

A policy's ``may_i`` returns True to admit, False to refuse; refusals are
surfaced to the caller as :class:`~repro.errors.SecurityDenied`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from repro.naming.loid import LOID
from repro.security.environment import CallEnvironment


class MayIPolicy:
    """Base policy.  Subclasses override :meth:`may_i`."""

    def may_i(self, method: str, env: CallEnvironment) -> bool:
        """Decide whether ``method`` may run under ``env``."""
        raise NotImplementedError


class AllowAll(MayIPolicy):
    """The 'no security' default: every MayI() is empty and admits."""

    def may_i(self, method: str, env: CallEnvironment) -> bool:
        return True


class DenyAll(MayIPolicy):
    """Refuse everything (a decommissioned or quarantined object)."""

    def may_i(self, method: str, env: CallEnvironment) -> bool:
        return False


@dataclass
class ACLPolicy(MayIPolicy):
    """Per-method access control lists over calling agents.

    ``acl`` maps method name → set of admitted caller LOIDs; ``default``
    governs methods absent from the map.  The check inspects the Calling
    Agent (the immediate caller); pair with :class:`TrustSetPolicy` on
    the Responsible Agent for end-to-end control.
    """

    acl: Dict[str, Set[LOID]] = field(default_factory=dict)
    default: bool = False

    def may_i(self, method: str, env: CallEnvironment) -> bool:
        admitted = self.acl.get(method)
        if admitted is None:
            return self.default
        return env.calling_agent in admitted


@dataclass
class TrustSetPolicy(MayIPolicy):
    """Admit only call chains whose Responsible Agent is trusted.

    This is the DOE scenario of Fig. 9: a site's magistrate and hosts
    admit work only on behalf of principals the site trusts, regardless
    of which intermediary (binding agent, class object) physically makes
    the call.
    """

    trusted: Set[LOID] = field(default_factory=set)

    def trust(self, principal: LOID) -> None:
        """Add a principal to the trust set."""
        self.trusted.add(principal)

    def may_i(self, method: str, env: CallEnvironment) -> bool:
        return env.responsible_agent in self.trusted
