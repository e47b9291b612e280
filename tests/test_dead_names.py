"""Every function, class and method in src/fsskit has a use in src/fsskit.

A definition that nothing in the package refers to is dead code, or code
kept alive only by its own tests. A module-level function or class counts
as used when some name or attribute access in the package refers to it; a
method counts only through an attribute access. Imports do not count, and
dunders are never reported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fsskit"

# Definitions kept without a use in the package, each with its reason.
ALLOWED = {
    "Corpus.staff": "perfbench/tracing.py wraps it (ROADMAP item 2)",
    "Corpus.publications_of": "perfbench/tracing.py wraps it (ROADMAP item 2)",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parsed_modules():
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SRC.glob("*.py"))]


def definitions(modules):
    """(qualified name, is a method) of every module-level function and
    class, and of every method of a module-level class."""
    for module in modules:
        for node in module.body:
            if not isinstance(node, DEFINITIONS):
                continue
            yield node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFINITIONS):
                        yield f"{node.name}.{item.name}", True


def unused(modules) -> list[str]:
    names, attributes = set(), set()
    for module in modules:
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    out = []
    for qualified, is_method in definitions(modules):
        name = qualified.rpartition(".")[2]
        if name.startswith("__") and name.endswith("__"):
            continue
        if name not in attributes and (is_method or name not in names):
            out.append(qualified)
    return out


def test_every_definition_has_a_use():
    found = unused(parsed_modules())
    dead = [name for name in found if name not in ALLOWED]
    assert dead == [], f"defined in src/fsskit but used nowhere there: {', '.join(dead)}"
    # An allowed name that gains a use, or is deleted, leaves the list.
    assert sorted(ALLOWED) == sorted(found)
