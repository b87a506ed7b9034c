"""Every module-level function and class of ca_verify is reached: used by
name or attribute somewhere in the package, its scripts or perfbench.
Being listed in ca_verify.__all__ does not count as a caller. Code only
tests call belongs in tests, and a private search or helper goes with
its last caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unreached_definitions(private: bool) -> list[str]:
    """module.name of every private (or every public) module-level
    function and class of the package that nothing reaches.
    """
    package = sorted((ROOT / "src" / "ca_verify").glob("*.py"))
    callers = sorted((ROOT / "scripts").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    trees = [ast.parse(path.read_text()) for path in package + callers]
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
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
    ]
    return [name for name in defined if name.split(".")[1] not in used]


def test_every_public_definition_has_a_caller():
    unreached = unreached_definitions(private=False)
    assert not unreached, f"no caller outside tests: {', '.join(unreached)}"


def test_every_private_definition_has_a_caller():
    unreached = unreached_definitions(private=True)
    assert not unreached, (
        f"no caller in the package, its scripts or perfbench: {', '.join(unreached)}"
    )
