"""Interfaces: named sets of method signatures, with merge and conformance.

An object's interface "fully describes" it (paper section 2) and is
inherited from its class.  Two operations matter for the object model:

* **merge** -- InheritFrom() "causes B's member functions to be added to
  C's interface" (section 2.1.1); merging rejects *conflicts* (same name
  and parameter types but different return type), which is the only
  ambiguity our overload-by-arity dispatch cannot tolerate.
* **conformance** -- a clone of a hot class must expose the same interface
  "without changing the interface in any way" (section 5.2.2); replica
  groups likewise require member interfaces to conform.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import InterfaceError
from repro.idl.signature import MethodSignature


class Interface:
    """An immutable-by-convention set of method signatures.

    Signatures are keyed by ``(name, parameter types)`` so overloads
    coexist; lookup helpers support dispatch by name + arity, which is how
    the runtime routes an incoming MethodInvocation.
    """

    def __init__(self, signatures: Iterable[MethodSignature] = (), name: str = "") -> None:
        self.name = name
        self._by_key: Dict[Tuple[str, Tuple[str, ...]], MethodSignature] = {}
        for sig in signatures:
            self._add(sig)

    def _add(self, sig: MethodSignature) -> None:
        existing = self._by_key.get(sig.key)
        if existing is not None and existing.returns != sig.returns:
            raise InterfaceError(
                f"conflicting signatures for {sig.name}: "
                f"{existing} vs {sig} (same parameters, different return)"
            )
        self._by_key[sig.key] = sig

    # -- queries -----------------------------------------------------------

    def methods(self) -> Tuple[MethodSignature, ...]:
        """All signatures, sorted for deterministic iteration."""
        return tuple(sorted(self._by_key.values()))

    def has_method(self, name: str, arity: Optional[int] = None) -> bool:
        """Whether any overload of ``name`` (optionally of ``arity``) exists.

        Unlike :meth:`find`, multiple matching overloads are fine here --
        the question is existence, not dispatch.
        """
        return any(
            s.name == name and (arity is None or s.arity == arity)
            for s in self._by_key.values()
        )

    def find(self, name: str, arity: Optional[int] = None) -> Optional[MethodSignature]:
        """The unique signature for ``name`` (and ``arity`` if given).

        Returns None if absent; raises :class:`InterfaceError` when the
        request is ambiguous (multiple overloads match), since dispatch
        would be undefined.
        """
        matches = [
            s
            for s in self._by_key.values()
            if s.name == name and (arity is None or s.arity == arity)
        ]
        if not matches:
            return None
        if len(matches) > 1:
            raise InterfaceError(
                f"ambiguous lookup {name}/{arity if arity is not None else '*'}: "
                + "; ".join(str(m) for m in sorted(matches))
            )
        return matches[0]

    # -- set algebra -----------------------------------------------------------

    def merged_with(self, other: "Interface", name: str = "") -> "Interface":
        """A new interface containing both sets of signatures.

        This is the InheritFrom() operation on interfaces.  Identical
        signatures coalesce; same-key different-return conflicts raise.
        """
        out = Interface(name=name or self.name)
        for sig in self._by_key.values():
            out._add(sig)
        for sig in other._by_key.values():
            out._add(sig)
        return out

    def restricted_to(self, names: Iterable[str], name: str = "") -> "Interface":
        """A new interface keeping only the given method names.

        Supports the paper's footnote that "Legion may allow a class to
        select the components that it wishes to inherit".
        """
        keep = set(names)
        return Interface(
            (s for s in self._by_key.values() if s.name in keep),
            name=name or self.name,
        )

    def conforms_to(self, other: "Interface") -> bool:
        """True when this interface offers *at least* everything in ``other``.

        Every signature of ``other`` must be present here with a compatible
        return type; extra methods are allowed (a subclass conforms to its
        superclass's interface).
        """
        for key, sig in other._by_key.items():
            mine = self._by_key.get(key)
            if mine is None or not mine.compatible_with(sig):
                return False
        return True

    def equivalent_to(self, other: "Interface") -> bool:
        """Mutual conformance: identical method sets (names may differ)."""
        return self.conforms_to(other) and other.conforms_to(self)

    # -- protocol -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[MethodSignature]:
        return iter(self.methods())

    def __contains__(self, name: str) -> bool:
        return any(s.name == name for s in self._by_key.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interface):
            return NotImplemented
        return self._by_key == other._by_key

    def __hash__(self) -> int:
        return hash(frozenset(self._by_key.items()))

    def describe(self) -> str:
        """IDL text for this interface (re-parseable by the parser)."""
        header = f"interface {self.name or 'Anonymous'} {{"
        body = "".join(f"\n  {sig};" for sig in self.methods())
        return header + body + "\n}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Interface {self.name or '?'} methods={len(self)}>"
