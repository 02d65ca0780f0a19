"""Method signatures: the unit an interface is made of (paper section 2).

A signature is a return type, a method name, and an ordered parameter
list.  Legion methods are invoked by name across the network; overloading
by arity is allowed (the paper itself overloads ``GetBinding(LOID)`` /
``GetBinding(binding)`` and ``Activate(LOID)`` / ``Activate(LOID,LOID)``),
so a signature's identity is the ``(name, parameter types)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import InterfaceError

_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _check_ident(name: str, what: str) -> None:
    if not name or name[0].isdigit() or any(c not in _IDENT_OK for c in name):
        raise InterfaceError(f"invalid {what} {name!r}")


@dataclass(frozen=True, order=True)
class Parameter:
    """One formal parameter: a type name and an optional parameter name."""

    type_name: str
    name: str = ""

    def __post_init__(self) -> None:
        _check_ident(self.type_name, "parameter type")
        if self.name:
            _check_ident(self.name, "parameter name")

    def __str__(self) -> str:
        return f"{self.type_name} {self.name}".strip()


@dataclass(frozen=True, order=True)
class MethodSignature:
    """A single method signature.

    ``returns`` may be None for methods with no return value (the paper
    writes these with no return type, e.g. ``Deactivate(LOID)``).
    """

    name: str
    parameters: Tuple[Parameter, ...] = ()
    returns: Optional[str] = None

    def __post_init__(self) -> None:
        _check_ident(self.name, "method name")
        if self.returns is not None:
            _check_ident(self.returns, "return type")
        if not isinstance(self.parameters, tuple):
            object.__setattr__(self, "parameters", tuple(self.parameters))

    @property
    def key(self) -> Tuple[str, Tuple[str, ...]]:
        """Identity under overloading: name + parameter type names."""
        return (self.name, tuple(p.type_name for p in self.parameters))

    @property
    def arity(self) -> int:
        """Number of formal parameters."""
        return len(self.parameters)

    def compatible_with(self, other: "MethodSignature") -> bool:
        """Same key AND same return type: substitutable implementations."""
        return self.key == other.key and self.returns == other.returns

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.parameters)
        prefix = f"{self.returns} " if self.returns else ""
        return f"{prefix}{self.name}({params})"
