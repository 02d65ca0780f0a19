"""CORBA-flavoured IDL support.

The paper (section 2, footnote): "At least two different IDLs will be
supported by Legion: the CORBA IDL Interface Definition Language, and the
Mentat Programming Language (MPL)."  The default parser
(:mod:`repro.idl.parser`) covers the paper's own MPL-ish signature style;
this module accepts the CORBA IDL subset that maps onto Legion method
signatures:

* ``void`` return → no return value;
* parameter direction keywords ``in`` / ``out`` / ``inout`` (recorded by
  convention in the parameter name prefix for out/inout, since Legion's
  invocation model returns results in the reply);
* CORBA basic types normalised to the neutral names the rest of the
  system uses (``long``/``short``/``unsigned long`` → int, ``double`` /
  ``float`` → float, ``boolean`` → bool, ``string`` → string, ``octet`` /
  ``any`` kept as-is);
* ``readonly attribute T name`` → a ``GetName()`` accessor, and a
  writable ``attribute`` additionally yields ``SetName(T)``;
* an optional trailing ``;`` after the interface block (CORBA style).

The output is an ordinary :class:`~repro.idl.interface.Interface`,
indistinguishable from one built with the default IDL -- which is the
point: two front-ends, one object model.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import InterfaceError
from repro.idl.interface import Interface
from repro.idl.parser import _Cursor
from repro.idl.signature import MethodSignature, Parameter

_TOKEN = re.compile(
    r"\s*(?:(//[^\n]*|/\*.*?\*/)|([A-Za-z_][A-Za-z0-9_]*)|([{}();,]))", re.DOTALL
)

#: CORBA basic type → neutral type name.
_TYPE_MAP = {
    "long": "int",
    "short": "int",
    "unsigned": "int",  # 'unsigned long' / 'unsigned short' collapse
    "double": "float",
    "float": "float",
    "boolean": "bool",
    "string": "string",
    "wstring": "string",
    "char": "string",
    "octet": "octet",
    "any": "any",
    "void": None,
}

_DIRECTIONS = {"in", "out", "inout"}


def _normalise_type(cur: _Cursor) -> Optional[str]:
    """Consume one (possibly two-word) CORBA type; return the neutral name."""
    first = cur.next()
    if first == "unsigned":
        follow = cur.peek()
        if follow in ("long", "short"):
            cur.next()
        return "int"
    if first in _TYPE_MAP:
        return _TYPE_MAP[first]
    return first  # user-defined type name passes through


def _parse_params(cur: _Cursor) -> Tuple[Parameter, ...]:
    cur.expect("(")
    params: List[Parameter] = []
    if cur.peek() == ")":
        cur.next()
        return tuple(params)
    while True:
        direction = "in"
        if cur.peek() in _DIRECTIONS:
            direction = cur.next()
        type_name = _normalise_type(cur)
        if type_name is None:
            raise InterfaceError("void is not a parameter type")
        name = ""
        if cur.peek() not in (",", ")"):
            name = cur.next()
        if direction != "in" and name:
            name = f"{direction}_{name}"
        params.append(Parameter(type_name=type_name, name=name))
        token = cur.next()
        if token == ")":
            return tuple(params)
        if token != ",":
            raise InterfaceError(f"expected ',' or ')', got {token!r}")


def _attribute_signatures(cur: _Cursor, readonly: bool) -> List[MethodSignature]:
    type_name = _normalise_type(cur)
    if type_name is None:
        raise InterfaceError("void is not an attribute type")
    name = cur.next()
    accessor = "Get" + name[0].upper() + name[1:]
    out = [MethodSignature(name=accessor, parameters=(), returns=type_name)]
    if not readonly:
        mutator = "Set" + name[0].upper() + name[1:]
        out.append(
            MethodSignature(
                name=mutator,
                parameters=(Parameter(type_name=type_name, name=name),),
                returns=None,
            )
        )
    return out


def parse_corba_interface(text: str) -> Interface:
    """Parse a CORBA IDL ``interface`` block into an Interface."""
    cur = _Cursor(text, _TOKEN, "CORBA IDL")
    cur.expect("interface")
    name = cur.next()
    cur.expect("{")
    signatures: List[MethodSignature] = []
    while cur.peek() != "}":
        if cur.peek() == "readonly":
            cur.next()
            cur.expect("attribute")
            signatures.extend(_attribute_signatures(cur, readonly=True))
        elif cur.peek() == "attribute":
            cur.next()
            signatures.extend(_attribute_signatures(cur, readonly=False))
        else:
            returns = _normalise_type(cur)
            method = cur.next()
            signatures.append(
                MethodSignature(
                    name=method, parameters=_parse_params(cur), returns=returns
                )
            )
        cur.expect(";")
    cur.expect("}")
    if not cur.done() and cur.peek() == ";":
        cur.next()
    if not cur.done():
        raise InterfaceError(f"trailing tokens: {cur.tokens[cur.i:]}")
    return Interface(signatures, name=name)
