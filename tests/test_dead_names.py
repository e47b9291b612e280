"""Every function, class, method and field in src/fsskit has a use there.

A definition that nothing in the package refers to is dead code, or code
kept alive only by its own tests. A module-level function or class counts
as used when some name or attribute access in the package refers to it; a
method counts only through an attribute access. Imports do not count, and
dunders are never reported. An annotated field of a module-level class
(a NamedTuple field) counts as read only when the package loads an
attribute of that name.

A census is also built in one place: only the loaders construct a Corpus,
nothing calls ``_replace``, the one way to copy a record (a Corpus among
them) with some fields changed, and corpus.py, which only loads, reads no
run setting from config.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fsskit"

# Definitions kept without a use in the package, each with its reason.
ALLOWED = {
    "Corpus.staff": "perfbench/tracing.py wraps it (ROADMAP item 2)",
    "Corpus.publications_of": "perfbench/tracing.py wraps it (ROADMAP item 2)",
}

# Classes ("Class") and fields ("Class.field") whose fields are read other
# than by attribute, each with its reason.
FIELDS_ALLOWED = {
    "FieldMeans": "FieldMeans.standardize reads its tables through getattr",
    "ComparisonStats": "write_comparison serializes it whole through _asdict",
    "LPSolution.iterations": "perfbench/tracing.py sums it into simplex.pivots",
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


def class_fields(modules):
    """Qualified name of every annotated field of a module-level class."""
    for module in modules:
        for node in module.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{node.name}.{item.target.id}"


def unread_fields(modules) -> list[str]:
    reads = {node.attr for module in modules for node in ast.walk(module)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [qualified for qualified in class_fields(modules)
            if qualified.rpartition(".")[2] not in reads]


def test_every_definition_has_a_use():
    found = unused(parsed_modules())
    dead = [name for name in found if name not in ALLOWED]
    assert dead == [], f"defined in src/fsskit but used nowhere there: {', '.join(dead)}"
    # An allowed name that gains a use, or is deleted, leaves the list.
    assert sorted(ALLOWED) == sorted(found)


def test_every_field_is_read():
    found = unread_fields(parsed_modules())

    def allowed_by(qualified):
        return {qualified, qualified.partition(".")[0]} & set(FIELDS_ALLOWED)

    unread = [name for name in found if not allowed_by(name)]
    assert unread == [], f"fields in src/fsskit that nothing there reads: {', '.join(unread)}"
    # An allowed entry whose fields all gain a reader, or are deleted, leaves the list.
    assert set().union(*map(allowed_by, found)) == set(FIELDS_ALLOWED)


def test_only_the_loaders_build_a_corpus():
    builders, copies, corpus_imports = set(), [], []
    for path in sorted(SRC.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in module.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "Corpus" in (getattr(node.func, "id", None),
                                                              getattr(node.func, "attr", None)):
                    builders.add(getattr(top, "name", "<module>"))
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_replace":
                    copies.append(f"{path.name}:{node.lineno}")
                if isinstance(node, ast.ImportFrom) and path.name == "corpus.py":
                    corpus_imports.append(node.module)
    assert builders == {"load_corpus", "generate_synthetic_corpus"}
    assert copies == [], f"_replace called in src/fsskit at {', '.join(copies)}"
    assert "config" not in corpus_imports
