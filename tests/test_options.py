"""The options ratchet: ``src/repro`` may lose options, never gain one.

An *option* is a parameter with a default value (``self`` and ``ctx``
are not counted) or a field with a default on a ``@dataclass`` (not a
``field(init=False)``, which no caller can pass).  Each
one is a value some caller may set differently, so each multiplies the
configurations tests and benchmarks must cover.  The count comes from
the source's AST, so it is the same on every interpreter.  A change
that removes options lowers ``CEILING`` to the new count.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
#: The option count of ``src/repro``; the test fails above it.
CEILING = 439


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_init_false(value: ast.expr) -> bool:
    """Whether a dataclass field's default is ``field(..., init=False)``."""
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    )


def options_in(source: str):
    """(definition, option name) for every option ``source`` declares."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [
                arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults, strict=True)
                if default is not None
            ]
            name = getattr(node, "name", "<lambda>")
            found += [(name, a.arg) for a in defaulted if a.arg not in ("self", "ctx")]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [
                (node.name, stmt.target.id)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and stmt.value is not None
                and not _is_init_false(stmt.value)
                and isinstance(stmt.target, ast.Name)
            ]
    return found


def count_options(root: Path = SRC) -> int:
    return sum(len(options_in(path.read_text())) for path in root.rglob("*.py"))


def test_the_definition_counts_defaults_and_dataclass_fields():
    source = '''
from dataclasses import dataclass, field

def f(a, b=1, *args, c, d=2, ctx=None, **kw): ...

class C:
    def m(self, e=3): ...

@dataclass(frozen=True)
class D:
    g: int
    h: int = 4
    i: list = field(default_factory=list)
    j: int = field(init=False, repr=False)
    J = 5
'''
    assert sorted(options_in(source)) == [
        ("D", "h"), ("D", "i"), ("f", "b"), ("f", "d"), ("m", "e"),
    ]


def test_option_count_does_not_rise():
    count = count_options()
    assert count <= CEILING, (
        f"src/repro declares {count} options, above the ratchet's {CEILING}: "
        "make the new value a constant unless two existing callers need "
        "different values"
    )
