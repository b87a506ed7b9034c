"""Every module-level function and class of ca_verify is reached: used by
name or attribute somewhere in the package or its scripts, or, when
public, exported through ca_verify.__all__. Code only tests call belongs
in tests, and a private search or helper goes with its last caller.
"""

import ast
from pathlib import Path

import ca_verify

ROOT = Path(__file__).resolve().parent.parent


def unreached_definitions(private: bool) -> list[str]:
    """module.name of every private (or every public) module-level
    function and class of the package that nothing reaches.
    """
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
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
    ]
    reached = used if private else used | set(ca_verify.__all__)
    return [name for name in defined if name.split(".")[1] not in reached]


def test_every_public_definition_has_a_caller():
    unreached = unreached_definitions(private=False)
    assert not unreached, f"no caller outside tests: {', '.join(unreached)}"


def test_every_private_definition_has_a_caller():
    unreached = unreached_definitions(private=True)
    assert not unreached, f"no caller in the package or its scripts: {', '.join(unreached)}"
