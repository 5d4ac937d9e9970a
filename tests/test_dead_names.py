"""Every function, method and class defined in src/ghfp is used somewhere
in src/ghfp/*.py or perfbench/*.py other than inside its own definition:
a method when some `x.<name>` attribute reads it, a function or class
when its name is loaded, imported (exports in ghfp/__init__.py count) or
reached as an attribute.  A builtin, a local or an alias of the same name
is no use.  A name only the tests use belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _Uses(ast.NodeVisitor):
    """Definitions as (qualified name, name, is_method), and the names read
    as attributes and as loaded or imported names, each outside a
    definition of that name."""

    def __init__(self):
        self.defined, self.attrs, self.names = set(), set(), set()
        self._enclosing = []

    def _use(self, into, name):
        if name not in self._enclosing:
            into.add(name)

    def visit_ClassDef(self, node):
        self._define(node, False)

    def visit_FunctionDef(self, node, method=False):
        self._define(node, method)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _define(self, node, method):
        self.defined.add((".".join([*self._enclosing, node.name]),
                          node.name, method))
        self._enclosing.append(node.name)
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef) and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.visit_FunctionDef(child, method=True)
            else:
                self.visit(child)
        self._enclosing.pop()

    def visit_Attribute(self, node):
        self._use(self.attrs, node.attr)
        self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(self.names, node.id)

    def visit_alias(self, node):
        self._use(self.names, node.name)


def test_every_library_name_is_used():
    library = _Uses()
    for p in sorted((ROOT / "src" / "ghfp").glob("*.py")):
        library.visit(ast.parse(p.read_text()))
    uses = _Uses()
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        uses.visit(ast.parse(p.read_text()))
    attrs, names = library.attrs | uses.attrs, library.names | uses.names
    assert len(library.defined) > 100  # the scan found the library
    dead = sorted(
        qualname for qualname, name, method in library.defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in attrs and (method or name not in names))
    assert not dead, f"defined in src/ghfp but used nowhere: {dead}"
