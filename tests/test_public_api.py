"""Guard on the public API: every name in ``bistrata.__all__`` has a caller.

A caller is a module of the package other than ``__init__``; tests do not
count.  A name used only inside its own
definition (a recursive call, a class naming itself) has no caller.
"""

import ast
import pathlib

import bistrata

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_FILES = [path for path in sorted((ROOT / "src" / "bistrata").glob("*.py"))
                if path.name != "__init__.py"]


class References(ast.NodeVisitor):
    """Names a module reads, leaving out each name inside its own definition."""

    def __init__(self):
        self.names: set[str] = set()
        self.defining: list[str] = []

    def _definition(self, node):
        self.defining.append(node.name)
        self.generic_visit(node)
        self.defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name, ctx):
        if isinstance(ctx, ast.Load) and name not in self.defining:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node.id, node.ctx)

    def visit_Attribute(self, node):
        self._read(node.attr, node.ctx)
        self.generic_visit(node)


def referenced_names() -> set[str]:
    refs = References()
    for path in CALLER_FILES:
        refs.visit(ast.parse(path.read_text(), filename=str(path)))
    return refs.names


def test_every_public_name_resolves_and_has_a_caller():
    assert all(hasattr(bistrata, name) for name in bistrata.__all__)
    used = referenced_names()
    assert sorted(set(bistrata.__all__) - used) == []
