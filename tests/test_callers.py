"""Every public top-level name in the package has a caller.

A public function or class must be referenced by code somewhere in
``src/dcpoly`` outside its own definition, or be used by the acceptance
tests; a name only its own tests call is dead weight.  A reference is a
name, an attribute, an imported name or a string constant that is not a
docstring (``closedform`` re-exports ``ratios`` names by string).  The
suites registered with ``verify._suite`` are exempt: ``run_suites``
finds them by name.
"""

import ast
from pathlib import Path

import dcpoly

SRC = Path(dcpoly.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _docstrings(tree):
    bodies = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return {
        id(body.body[0].value) for body in bodies
        if body.body and isinstance(body.body[0], ast.Expr)
        and isinstance(body.body[0].value, ast.Constant)
    }


def _references(node, docstrings):
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if id(sub) not in docstrings:
                found.add(sub.value)
    return found


def _is_suite(node):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_suite"
        for d in node.decorator_list
    )


def uncalled():
    """(module, name) of every public top-level def or class with no caller."""
    definitions = []
    references = []  # (top-level node, the names it references)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = _docstrings(tree)
        for node in tree.body:
            references.append((node, _references(node, docstrings)))
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and not _is_suite(node)
            ):
                definitions.append((path.stem, node))
    acceptance = ast.parse(ACCEPTANCE.read_text())
    references.append((acceptance, _references(acceptance, _docstrings(acceptance))))
    return [
        (module, node.name)
        for module, node in definitions
        if not any(node.name in names for other, names in references if other is not node)
    ]


def test_every_public_name_has_a_caller_outside_its_tests():
    assert uncalled() == []
