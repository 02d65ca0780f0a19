"""Interface description: signatures, interfaces, and a small IDL parser.

"Each method has a signature that describes the parameters and return
value, if any, of the method.  The complete set of method signatures for an
object fully describes that object's interface, which is inherited from its
class.  Legion class interfaces can be described in an Interface
Description Language." (paper section 2)

The paper names two IDLs (CORBA IDL and MPL); this reproduction ships one
small C-flavoured IDL for both (DESIGN.md §1) whose grammar covers the
signatures the paper itself writes, e.g. ``binding GetBinding(LOID)`` and
``binding Activate(LOID, LOID)``.  Interfaces are value objects supporting
the *merge* operation that InheritFrom() needs and the *conformance* check
that lets a clone replace a hot class "without changing the interface in
any way" (section 5.2.2).
"""

from repro.idl.signature import MethodSignature, Parameter
from repro.idl.interface import Interface
from repro.idl.parser import parse_interface, parse_signature

__all__ = [
    "MethodSignature",
    "Parameter",
    "Interface",
    "parse_interface",
    "parse_signature",
]
