"""Every public module-level function and class of ca_verify is reached:
used by name or attribute somewhere in the package or its scripts, or
exported through ca_verify.__all__. Code only tests call belongs in tests.
"""

import ast
from pathlib import Path

import ca_verify

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_definition_has_a_caller():
    package = sorted((ROOT / "src" / "ca_verify").glob("*.py"))
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in package + scripts]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = [
        f"{path.stem}.{node.name}"
        for path, tree in zip(package, trees)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    reached = used | set(ca_verify.__all__)
    unreached = [name for name in defined if name.split(".")[1] not in reached]
    assert not unreached, f"no caller outside tests: {', '.join(unreached)}"
