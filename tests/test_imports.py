"""Module boundaries inside the package."""

import ast
import json
import os
import subprocess
import sys
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


def test_cli_import_path_is_lean_and_complete():
    # `import wregret.cli` loads every layer the benchmark's tracer wraps
    # (perfbench/tracing.py `TARGETS`), and none of the costly reflection
    # modules: `dataclasses` pulls in `inspect` and, through it, `ast` and `dis`
    tracing = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    code = "import json, sys, wregret.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert {"dataclasses", "inspect"} & loaded == set()
    assert {f"wregret.{layer}" for layer in targets} <= loaded
