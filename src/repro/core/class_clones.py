"""The class object's clone pool (section 5.2.2).

"The cloned class is derived from the heavily used class without changing
the interface in any way.  New instantiation and derivation requests are
passed to the cloned object, making it responsible for the new objects."

:class:`ClonePool` is mixed into
:class:`~repro.core.legion_class.ClassObjectImpl`, whose ``__init__``
creates the pool (``clones``, ``_clone_rr``, ``clone_epoch``) and whose
``persistent_attributes()`` saves it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import LegionError, UnknownObject
from repro.core.method import InvocationContext
from repro.core.object_base import legion_method
from repro.naming.binding import Binding
from repro.naming.loid import LOID
from repro.net.address import ObjectAddress
from repro.simkernel.kernel import Timeout

#: RetireClone() drain loop: poll the clone's PendingDispatches() every
#: ``RETIRE_POLL`` simulated ms, giving up after ``RETIRE_DRAIN_BUDGET``
#: (a crashed clone must not wedge the retirement forever).
RETIRE_POLL = 2.0
RETIRE_DRAIN_BUDGET = 200.0


class ClonePool:
    """Clone(), RetireClone() and the delegation of new work to clones."""

    def _delegate(self, method: str, args: Tuple[Any, ...], env):
        """Pass a Create()/Derive() request to the next clone, round-robin."""
        clone = self.clones[self._clone_rr % len(self.clones)]
        self._clone_rr = (self._clone_rr + 1) % len(self.clones)
        binding = yield from self.runtime.invoke(clone.loid, method, *args, env=env)
        return binding

    def _clones_changed(self) -> None:
        """The pool changed membership: bump the epoch, and keep the
        round-robin index inside the (possibly shrunken) pool -- left past
        it, the modulo restart skews which survivor soaks up the next
        burst of requests."""
        self.clone_epoch += 1
        size = len(self.clones)
        self._clone_rr = self._clone_rr % size if size else 0

    def _drop_clone(self, loid: LOID) -> None:
        """Remove ``loid`` from the routing pool if it is a clone."""
        survivors = [c for c in self.clones if c.loid != loid]
        if len(survivors) != len(self.clones):
            self.clones = survivors
            self._clones_changed()

    def _readdress_clone(self, loid: LOID, address) -> None:
        """A clone came back at a (possibly new) address: refresh the
        routing pool in place so delegation follows it."""
        if any(c.loid == loid for c in self.clones):
            self.clones = [
                self._binding_for(loid, address) if c.loid == loid else c
                for c in self.clones
            ]
            self.clone_epoch += 1

    @legion_method("binding Clone()")
    def clone_default(self, *, ctx: Optional[InvocationContext] = None):
        """Clone() with no options."""
        return self.clone_with_options({}, ctx=ctx)

    @legion_method("binding Clone(options)")
    def clone_with_options(self, options: Dict[str, Any], *, ctx: Optional[InvocationContext] = None):
        """Relieve a hot class: derive an interface-identical clone.

        The clone is registered so that subsequent Create()/Derive()
        requests are passed to it round-robin (several clones may exist,
        "with the different clones residing in different domains" --
        use the ``magistrate`` option to place them).
        """
        opts = dict(options)
        opts["no_delegate"] = True  # the clone is created by *us*, directly
        name = opts.pop("name", f"{self.class_name}.clone{len(self.clones) + 1}")
        binding = yield from self.derive_with_options(name, opts, ctx=ctx)
        self.clones.append(binding)
        self._clones_changed()
        self._propagate("add-binding", binding)
        return binding

    @legion_method("bool RetireClone(LOID)")
    def retire_clone(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """Drain a clone and fold it back into an OPR (autoscale scale-down).

        The clone leaves the routing pool immediately (no new work reaches
        it through us), then we poll its PendingDispatches() until its
        in-flight work drains (bounded by ``RETIRE_DRAIN_BUDGET``), and
        finally ask a Current Magistrate to Deactivate() it -- SaveState()
        into an OPR, so a straggler reference can still resurrect it
        through the ordinary GetBinding() path.  Returns True when the
        OPR reconciliation succeeded.
        """
        if all(c.loid != loid for c in self.clones):
            raise UnknownObject(f"{loid} is not a clone of {self.class_name}")
        self._drop_clone(loid)
        self._propagate("invalidate", loid)
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        deadline = self.services.kernel.now + RETIRE_DRAIN_BUDGET
        while True:
            try:
                pending = yield from self.runtime.invoke(
                    loid, "PendingDispatches", env=env
                )
            except LegionError:
                break  # crashed or unreachable: nothing left to drain
            if not pending or self.services.kernel.now >= deadline:
                break
            yield Timeout(RETIRE_POLL)
        row = self.table.find(loid)
        if row is None or row.deleted:
            return False
        for magistrate in list(row.current_magistrates):
            try:
                yield from self.runtime.invoke(magistrate, "Deactivate", loid, env=env)
                return True
            except LegionError:
                continue
        return False

    @legion_method("int CloneCount()")
    def clone_count(self) -> int:
        """How many clones currently share this class's creation load."""
        return len(self.clones)

    @legion_method("int CloneEpoch()")
    def get_clone_epoch(self) -> int:
        """Monotone counter of clone-pool changes (cheap staleness check)."""
        return self.clone_epoch

    @legion_method("pair GetClonePool()")
    def get_clone_pool(self) -> Tuple[int, List[Binding]]:
        """(epoch, [self + live clones]) for clone-aware client routing.

        Server-side forwarding keeps naive clients correct, but the load
        only truly leaves the hot class when clients learn the clones and
        go direct -- "the different clones residing in different domains".
        Clients re-fetch when CloneEpoch() moves; our own binding comes
        first, so a client can spread traffic across the whole pool
        without special-casing the parent.
        """
        own = ObjectAddress.single(self.runtime.element)
        pool = [self._binding_for(self.loid, own)]
        pool.extend(self.clones)
        return (self.clone_epoch, pool)
