"""Every public top-level function and class in the package serves a command
or a script: some other code in ``src/portsens`` or ``scripts`` names it.

Tests do not count as callers, so a helper that only tests exercise fails
here.  ``__init__.py`` only re-exports and is not scanned.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# name -> why it stays without a caller
ALLOWED = {
    "value_closed_form": "the closed-form reference the solver and "
                         "acceptance tests compare estimates against",
    "format_config": "canonical config text for the planned per-run record",
}


def _names(node) -> set:
    """Identifiers a subtree refers to: names, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def unused_public_names(files) -> list:
    """Public top-level definitions that no other code names."""
    defs, refs = [], []  # refs: (defining node or None, names)
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not node.name.startswith("_"):
                    defs.append(node)
                refs.append((node, _names(node)))
            else:
                refs.append((None, _names(node)))
    return sorted(node.name for node in defs
                  if not any(node.name in names
                             for owner, names in refs if owner is not node))


def _sources():
    pkg = sorted(p for p in (ROOT / "src" / "portsens").glob("*.py")
                 if p.name != "__init__.py")
    return pkg + sorted((ROOT / "scripts").glob("*.py"))


def test_every_public_name_has_a_caller():
    # an allowed name that gains a caller leaves the list too
    assert unused_public_names(_sources()) == sorted(ALLOWED)
