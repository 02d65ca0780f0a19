"""A small IDL parser for the signatures the paper writes.

Grammar (whitespace-insensitive, ``//`` line comments)::

    interface  := "interface" IDENT "{" (signature ";")* "}"
    signature  := [IDENT] IDENT "(" [param ("," param)*] ")"
    param      := IDENT [IDENT]

i.e. an optional return type, a method name, and a parenthesised parameter
list of ``type [name]`` pairs -- exactly the style of the paper's own
member-function lists: ``binding GetBinding(LOID)``, ``Deactivate(LOID)``,
``binding Activate(LOID, LOID)``.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.errors import InterfaceError
from repro.idl.interface import Interface
from repro.idl.signature import MethodSignature, Parameter

_TOKEN = re.compile(r"\s*(?:(//[^\n]*)|([A-Za-z_][A-Za-z0-9_]*)|([{}();,]))")


def _tokenize(text: str, token: re.Pattern, dialect: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        match = token.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise InterfaceError(f"{dialect} syntax error near {remainder[:20]!r}")
        comment, ident, punct = match.groups()
        if ident:
            tokens.append(ident)
        elif punct:
            tokens.append(punct)
        # comments are skipped
        pos = match.end()
    return tokens


class _Cursor:
    """The token stream of ``text``, shared with :mod:`repro.idl.corba`:
    ``token`` is the dialect's lexeme pattern (comment, identifier,
    punctuation groups) and ``dialect`` names it in error messages."""

    def __init__(self, text: str, token: re.Pattern = _TOKEN, dialect: str = "IDL") -> None:
        self.tokens = _tokenize(text, token, dialect)
        self.dialect = dialect
        self.i = 0

    def peek(self) -> str:
        if self.i >= len(self.tokens):
            raise InterfaceError(f"unexpected end of {self.dialect} input")
        return self.tokens[self.i]

    def next(self) -> str:
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise InterfaceError(f"expected {tok!r}, got {got!r}")

    def done(self) -> bool:
        return self.i >= len(self.tokens)


def _parse_params(cur: _Cursor) -> Tuple[Parameter, ...]:
    cur.expect("(")
    params: List[Parameter] = []
    if cur.peek() == ")":
        cur.next()
        return tuple(params)
    while True:
        type_name = cur.next()
        name = ""
        if cur.peek() not in (",", ")"):
            name = cur.next()
        params.append(Parameter(type_name=type_name, name=name))
        tok = cur.next()
        if tok == ")":
            return tuple(params)
        if tok != ",":
            raise InterfaceError(f"expected ',' or ')' in parameter list, got {tok!r}")


def _parse_signature(cur: _Cursor) -> MethodSignature:
    first = cur.next()
    if cur.peek() == "(":
        # No return type: `Deactivate(LOID)`.
        return MethodSignature(name=first, parameters=_parse_params(cur), returns=None)
    name = cur.next()
    return MethodSignature(name=name, parameters=_parse_params(cur), returns=first)


def parse_signature(text: str) -> MethodSignature:
    """Parse one signature, e.g. ``"binding GetBinding(LOID)"``."""
    cur = _Cursor(text)
    sig = _parse_signature(cur)
    if not cur.done() and cur.peek() == ";":
        cur.next()
    if not cur.done():
        raise InterfaceError(f"trailing tokens after signature: {cur.tokens[cur.i:]}")
    return sig


def parse_interface(text: str) -> Interface:
    """Parse an ``interface Name { ... }`` block into an :class:`Interface`."""
    cur = _Cursor(text)
    cur.expect("interface")
    name = cur.next()
    cur.expect("{")
    signatures: List[MethodSignature] = []
    while cur.peek() != "}":
        signatures.append(_parse_signature(cur))
        cur.expect(";")
    cur.expect("}")
    if not cur.done():
        raise InterfaceError(f"trailing tokens after interface: {cur.tokens[cur.i:]}")
    return Interface(signatures, name=name)
