"""MayI() policies: the per-object admission check (paper section 2.4).

Every Legion object exports ``MayI()``; the dispatch loop consults the
object's policy before running any method.  "These functions may default
to empty for the case of no security" -- :class:`AllowAll` is that empty
default.  The other policies exercise the decisions the paper motivates:
DOE-style trust sets (Fig. 9), per-method ACLs, and composition.

A policy's ``may_i`` returns True to admit, False to refuse; refusals are
surfaced to the caller as :class:`~repro.errors.SecurityDenied`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Sequence, Set, Tuple

from repro.naming.loid import LOID
from repro.security.environment import CallEnvironment


class MayIPolicy:
    """Base policy.  Subclasses override :meth:`may_i`."""

    def may_i(self, method: str, env: CallEnvironment) -> bool:
        """Decide whether ``method`` may run under ``env``."""
        raise NotImplementedError

    # -- composition sugar ----------------------------------------------------

    def __and__(self, other: "MayIPolicy") -> "CompositePolicy":
        return CompositePolicy([self, other], mode="all")

    def __or__(self, other: "MayIPolicy") -> "CompositePolicy":
        return CompositePolicy([self, other], mode="any")


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

    def allow(self, method: str, caller: LOID) -> None:
        """Admit ``caller`` to ``method``."""
        self.acl.setdefault(method, set()).add(caller)

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

    def revoke(self, principal: LOID) -> None:
        """Remove a principal (idempotent)."""
        self.trusted.discard(principal)

    def may_i(self, method: str, env: CallEnvironment) -> bool:
        return env.responsible_agent in self.trusted


@dataclass
class MethodFilterPolicy(MayIPolicy):
    """Admit only a fixed set of methods (e.g. read-only export)."""

    allowed_methods: FrozenSet[str] = frozenset()

    def may_i(self, method: str, env: CallEnvironment) -> bool:
        return method in self.allowed_methods


class PredicatePolicy(MayIPolicy):
    """Wrap an arbitrary ``(method, env) -> bool`` callable.

    The escape hatch for user-built policies, honouring the paper's
    philosophy that users implement their own security.
    """

    def __init__(self, predicate: Callable[[str, CallEnvironment], bool]) -> None:
        self.predicate = predicate

    def may_i(self, method: str, env: CallEnvironment) -> bool:
        return bool(self.predicate(method, env))


class CompositePolicy(MayIPolicy):
    """Combine policies with all-of / any-of semantics."""

    def __init__(self, policies: Sequence[MayIPolicy], mode: str = "all") -> None:
        if mode not in ("all", "any"):
            raise ValueError(f"mode must be 'all' or 'any', got {mode!r}")
        self.policies: Tuple[MayIPolicy, ...] = tuple(policies)
        self.mode = mode

    def may_i(self, method: str, env: CallEnvironment) -> bool:
        checks = (p.may_i(method, env) for p in self.policies)
        return all(checks) if self.mode == "all" else any(checks)
