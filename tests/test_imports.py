"""Module boundaries inside the package."""

import ast
from pathlib import Path

import wregret

PACKAGE = Path(wregret.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "wregret":
                found += [
                    f"{path.relative_to(PACKAGE)}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []
