"""Every public function, method and class of the package has a caller.

A public name that nothing in `src/piezofrac` refers to is reachable only
from tests, so it is either a second copy of a formula the chain computes
elsewhere or dead code.  The check is by name: a reference is any
identifier or attribute with that name outside the definition itself.
"""

import ast
from pathlib import Path

import piezofrac

SRC = Path(piezofrac.__file__).parent

# load_mesh is the only reader of the `<prefix>_mesh.txt` file that the
# `mesh` verb writes, and thereby the only check of save_mesh's format
ALLOWED = {"load_mesh"}


def _definitions_and_references():
    defs, refs = [], set()

    def visit(node, module, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            top = not owners or (len(owners) == 1
                                 and isinstance(owners[0], ast.ClassDef))
            if top and not node.name.startswith("_"):
                defs.append((module, node.name, node.lineno))
            owners = owners + [node]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if all(o.name != name for o in owners):
                refs.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, module, owners)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, [])
    return defs, refs


def test_every_public_name_has_a_caller_in_src():
    defs, refs = _definitions_and_references()
    assert len(defs) > 50   # the walk found the package
    orphans = [f"{module}:{line} {name}" for module, name, line in defs
               if name not in refs and name not in ALLOWED]
    assert not orphans, "public names no code in src refers to: " + \
        ", ".join(orphans)


def test_allowlist_names_existing_orphans_only():
    defs, refs = _definitions_and_references()
    defined = {name for _, name, _ in defs}
    assert ALLOWED <= defined
    assert not ALLOWED & refs
