"""The package imports only the standard library, and gmpy2 optionally."""

import ast
import pathlib
import sys

import diadeform

PACKAGE = pathlib.Path(diadeform.__file__).parent
OPTIONAL = {"gmpy2"}


def _imports(tree):
    """(top-level module name, node, parents) for every absolute import."""
    stack = [(tree, ())]
    while stack:
        node, parents = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node, parents
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node, parents
        for child in ast.iter_child_nodes(node):
            stack.append((child, parents + (node,)))


def _guarded(node, parents):
    """node sits in the body of a try that catches ImportError."""
    chain = parents + (node,)
    return any(isinstance(parent, ast.Try) and child in parent.body
               and any(isinstance(h.type, ast.Name)
                       and h.type.id == "ImportError"
                       for h in parent.handlers)
               for parent, child in zip(chain, chain[1:]))


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    seen = set()
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name, node, parents in _imports(tree):
            seen.add(name)
            where = "%s:%d imports %s" % (path.name, node.lineno, name)
            if name in OPTIONAL:
                assert _guarded(node, parents), where + " unguarded"
            else:
                assert name in sys.stdlib_module_names, where
    assert "gmpy2" in seen
