"""Every top-level function and class of padic_hua is named somewhere in
the package itself, and every method or property that is not a dunder is
read there as an attribute (x.name): library code that only tests call is
deleted."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = [ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted((ROOT / "src" / "padic_hua").glob("*.py"))]
# Definitions reached from outside the package, with the reason each stays.
# A name that perfbench/tracer.py wraps is not counted as reached: the
# tracer alone keeps no code alive.
_TRACED_ONLY = ("kept only because perfbench's TRACED wraps it; delete with "
                "the perfbench change of ROADMAP item 12")
ALLOWED: dict = {
    "_Parser.error": "argparse calls it on each usage error, so the error "
                     "ends the run as one error line with exit code 2",
    "sample_hua_singulars": _TRACED_ONLY,
    "corner": _TRACED_ONLY,
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(qualified name, bare name) of each top-level function or class and
    of each non-dunder method or property of a top-level class."""
    for tree in TREES:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not _is_dunder(item.name)):
                        yield f"{node.name}.{item.name}", item.name


def _unreached():
    # A bare name (a local variable, say) reaches no method or property.
    attrs = {node.attr for tree in TREES for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    names = attrs | {node.id for tree in TREES for node in ast.walk(tree)
                     if isinstance(node, ast.Name)}
    return {qualname for qualname, name in _definitions()
            if name not in (attrs if "." in qualname else names)}


def test_every_definition_is_reached_from_the_package():
    assert sorted(_unreached() - set(ALLOWED)) == []


def test_every_allowed_definition_is_still_unreached():
    # An entry whose definition is gone, or is now reached, is stale.
    assert set(ALLOWED) <= _unreached()
