"""No dead code in the package: every module-level function and class of
``src/wavetriads`` is referenced somewhere in the package or exported."""

import ast
from pathlib import Path

import wavetriads

#: Helpers README documents for interactive use, with no caller inside.
DOCUMENTED = {"bve_square_spec", "bve_rectangle_quarter_spec"}


def test_every_module_level_definition_has_a_caller_or_is_exported():
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(Path(wavetriads.__file__).parent.glob("*.py"))}
    used = set(wavetriads.__all__) | DOCUMENTED
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    orphans = [f"{module}:{node.name}" for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name not in used]
    assert orphans == []
