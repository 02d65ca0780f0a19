"""Derivation and inheritance for class objects (section 2.1.1).

Derive() creates a subclass -- a new class object through a Magistrate,
exactly like any other object -- and InheritFrom() is the active,
run-time multiple-inheritance step that alters the composition
(interface *and* implementation chain) of future instances.

:class:`Derivation` is mixed into
:class:`~repro.core.legion_class.ClassObjectImpl`, whose
``persistent_attributes()`` saves ``instance_interface``, ``base_chain``
and ``bases``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ObjectModelError
from repro.core.class_types import ClassFlavor
from repro.core.method import InvocationContext
from repro.core.object_base import legion_method
from repro.idl.interface import Interface
from repro.naming.loid import LOID
from repro.persistence.opr import OPRecord

#: Factory-registry name under which the class-object implementation itself
#: is registered; Derive() creates new class objects through it.
CLASS_OBJECT_FACTORY = "legion.class-object"


class Derivation:
    """Derive(), InheritFrom() and the queries an inheritor makes."""

    @legion_method("binding Derive(string)")
    def derive_named(self, name: str, *, ctx: Optional[InvocationContext] = None):
        """Derive(name) with default options."""
        return self.derive_with_options(name, {}, ctx=ctx)

    @legion_method("binding Derive(string, options)")
    def derive_with_options(
        self, name: str, options: Dict[str, Any], *, ctx: Optional[InvocationContext] = None
    ):
        """Create a subclass; returns the new class object's Binding.

        The new class inherits this class's instance interface, factory,
        implementation chain, candidate magistrates, and scheduling agent,
        each overridable through ``options`` (keys: ``instance_factory``,
        ``instance_init``, ``flavor``, ``candidate_magistrates``,
        ``scheduling_agent``, ``binding_ttl``, ``magistrate``, ``host``,
        ``instance_component_kind``).
        """
        self.flavor.check_derive(self.class_name)
        env = ctx.nested_env(self.loid) if ctx else self.own_env()

        if self.clones and not options.get("no_delegate"):
            binding = yield from self._delegate("Derive", (name, options), env)
            return binding

        legion_class = self.services.well_known_loid("LegionClass")
        new_class_id = yield from self.runtime.invoke(
            legion_class, "AllocateClassID", self.loid, name, env=env
        )
        new_loid = LOID.for_class(new_class_id, self.services.secret)

        flavor = options.get("flavor", ClassFlavor.REGULAR)
        init = {
            "class_name": name,
            "class_id": new_class_id,
            "flavor": flavor.value if isinstance(flavor, ClassFlavor) else flavor,
            "instance_factory": options.get("instance_factory", self.instance_factory),
            "instance_init": options.get("instance_init", dict(self.instance_init)),
            "instance_interface": options.get(
                "instance_interface", self.instance_interface
            ),
            "superclass": self.loid,
            "candidate_magistrates": options.get(
                "candidate_magistrates",
                list(self.candidate_magistrates)
                if self.candidate_magistrates is not None
                else None,
            ),
            "scheduling_agent": options.get("scheduling_agent", self.scheduling_agent),
            "binding_ttl": options.get("binding_ttl", self.binding_ttl),
            "instance_component_kind": options.get(
                "instance_component_kind", self.instance_component_kind
            ),
            "base_chain": list(self.base_chain),
            "bases": list(self.bases),
        }
        opr = OPRecord(
            loid=new_loid,
            class_loid=self.loid,
            factory_chain=[(CLASS_OBJECT_FACTORY, init)],
            component_kind="class-object",
        )
        magistrate = yield from self._choose_magistrate(options, env)
        address = yield from self.runtime.invoke(
            magistrate, "CreateObject", opr, options.get("host"), env=env
        )
        return self._add_row(new_loid, address, [magistrate], True, 0)

    @legion_method("InheritFrom(LOID)")
    def inherit_from(self, base: LOID, *, ctx: Optional[InvocationContext] = None):
        """Add a base class: merge its instance interface and impl chain.

        "Invoking InheritFrom() on an existing class object A, and passing
        the name of an existing class object B, causes A to inherit from
        B" -- an active, run-time process affecting *future* instances.
        """
        yield from self.inherit_from_selective(base, None, ctx=ctx)

    @legion_method("InheritFrom(LOID, list)")
    def inherit_from_selective(
        self,
        base: LOID,
        only: Optional[List[str]],
        *,
        ctx: Optional[InvocationContext] = None,
    ):
        """InheritFrom with component selection.

        The paper's footnote: "Legion may allow a class to select the
        components that it wishes to inherit from its superclass."  We
        support it for InheritFrom bases: ``only`` is a list of method
        names to take from the base (None means all).  The base's
        implementation chain is still spliced in -- the parts are one
        implementation -- but the selection is enforced at dispatch by an
        exposure filter recorded in the factory chain, so unselected
        methods neither appear in the interface nor execute.
        """
        self.flavor.check_inherit_from(self.class_name)
        if not base.is_class:
            raise ObjectModelError(f"InheritFrom target {base} is not a class object")
        if base.identity == self.loid.identity:
            raise ObjectModelError(f"class {self.class_name} cannot inherit from itself")
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        base_interface = yield from self.runtime.invoke(
            base, "GetInstanceInterface", env=env
        )
        base_spec = yield from self.runtime.invoke(
            base, "GetImplementationSpec", env=env
        )
        if only is not None:
            base_interface = base_interface.restricted_to(only)
        # Record the relation first: it validates against cycles.
        self.services.relations.record_inherits_from(self.loid, base)
        self.instance_interface = self.instance_interface.merged_with(
            base_interface, name=self.class_name
        )
        known = {entry[0] for entry in self.base_chain}
        known.add(self.instance_factory)
        for factory, init in base_spec:
            if factory not in known:
                entry_init = dict(init)
                if only is not None:
                    entry_init["__expose__"] = list(only)
                self.base_chain.append((factory, entry_init))
                known.add(factory)
        if base not in self.bases:
            self.bases.append(base)

    @legion_method("interface GetInstanceInterface()")
    def get_instance_interface(self) -> Interface:
        """The interface future instances of this class will export.

        The union of (a) the interface contributed by this class's own
        implementation factory (its exported methods), (b) the interface
        inherited from the superclass at Derive() time, and (c) every
        base's interface added by InheritFrom().
        """
        iface = self.instance_interface
        factory = (
            self.services.impls.get(self.instance_factory)
            if self.services is not None and self.instance_factory
            else None
        )
        if factory is not None and hasattr(factory, "exported_interface"):
            iface = iface.merged_with(
                factory.exported_interface(), name=self.class_name
            )
        return iface

    @legion_method("spec GetImplementationSpec()")
    def get_implementation_spec(self) -> List[Tuple[str, Dict[str, Any]]]:
        """The factory chain an inheritor should splice in (own + bases)."""
        chain: List[Tuple[str, Dict[str, Any]]] = []
        if self.instance_factory:
            chain.append((self.instance_factory, dict(self.instance_init)))
        chain.extend(self.base_chain)
        return chain
