"""Every public name has a caller in a computation or a check.

A name that ``holonomy_lab/__init__.py`` imports is public.  It has a
caller when it appears as a name or an attribute, outside its own def or
class, in the library (``selftest`` counts as a check), in ``perfbench/``
or in ``benchmarks/``; tests do not count.  The names in ``ORPHANS`` have
none yet, each with the ROADMAP direction that would give it one; the
test also fails when one of them gains a caller, so the list stays true.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "holonomy_lab"

ORPHANS = {
    "weight_residual": "direction 2: the forward-accuracy criterion",
    "solid_angle": "directions 5 and 8: Hannay's loop phase or the qubit k-gon",
}


def public_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def used_names(tree: ast.AST, inside: tuple = ()) -> set[str]:
    """Names and attributes read (not stored) in tree, except within the
    def or class that defines that same name."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= used_names(node, inside + (node.name,))
            continue
        if isinstance(getattr(node, "ctx", None), ast.Load):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name not in inside:
                found.add(name)
        found |= used_names(node, inside)
    return found


def callers() -> set[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files += sorted((ROOT / "benchmarks").glob("*.py"))
    found = set()
    for path in files:
        found |= used_names(ast.parse(path.read_text(), filename=str(path)))
    return found


def test_every_public_name_has_a_caller():
    missing = public_names() - callers()
    assert missing == set(ORPHANS), (
        f"public names without a caller: {sorted(missing - set(ORPHANS))}; "
        f"listed orphans that now have one: {sorted(set(ORPHANS) - missing)}")


def test_walk_skips_a_names_own_definition():
    tree = ast.parse("def f(x):\n    return f(x) + g\n\n"
                     "class C:\n    def m(self):\n        return C.k\n\n"
                     "h = mod.f")
    assert used_names(tree) == {"x", "g", "k", "mod", "f"}
