"""The package exports what its command line runs.

Every function and class in ``spherefv.__all__`` is read somewhere in
``src/spherefv`` outside its own definition and ``__init__.py``, or the
acceptance suite imports it.  An export that only tests read is a test
oracle, and belongs in ``tests/identities.py`` or next to its test."""

import ast
import inspect
import os

import spherefv

PACKAGE = os.path.dirname(os.path.abspath(spherefv.__file__))
ACCEPTANCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "test_acceptance.py")


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


class _Reads(ast.NodeVisitor):
    """The names read as an ``ast.Name`` or an ``ast.Attribute``, each
    outside the definitions of that name that enclose it."""

    def __init__(self):
        self.names = set()
        self.enclosing = []

    def _definition(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name):
        if name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)


def _package_reads():
    reads = _Reads()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "__init__.py":
            reads.visit(_parse(os.path.join(PACKAGE, name)))
    return reads.names


def _acceptance_imports():
    return {alias.name for node in ast.walk(_parse(ACCEPTANCE))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spherefv")
            for alias in node.names}


def test_every_exported_function_and_class_has_a_reader():
    exported = [name for name in spherefv.__all__
                if inspect.isfunction(getattr(spherefv, name))
                or inspect.isclass(getattr(spherefv, name))]
    read = _package_reads() | _acceptance_imports()
    assert "make_flux" in exported and "VectorField" in exported
    assert sorted(set(exported) - read) == []
