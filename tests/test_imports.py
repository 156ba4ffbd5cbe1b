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


def _traced_targets() -> dict[str, tuple[str, ...]]:
    """perfbench/tracing.py's `TARGETS`: layer -> wrapped entry points."""
    tracing = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    return next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )


def test_cli_import_path_is_lean_and_complete():
    # `import wregret.cli` loads every layer the benchmark's tracer wraps
    # (perfbench/tracing.py `TARGETS`), and none of the costly reflection
    # modules: `dataclasses` pulls in `inspect` and, through it, `ast` and `dis`
    targets = _traced_targets()
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    code = "import json, sys, wregret.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert {"dataclasses", "inspect"} & loaded == set()
    assert {f"wregret.{layer}" for layer in targets} <= loaded


def test_every_traced_target_resolves():
    # resolved the way `tracing.install` wraps them, getattr on the module or
    # the class's own __dict__ for "Class.method", so a rename or a method
    # moved to another class fails here and not in a `--trace 1` run
    import wregret.cli  # noqa: F401  (loads every layer)

    unresolved = []
    for layer, names in _traced_targets().items():
        module = sys.modules[f"wregret.{layer}"]
        for qualname in names:
            cls_name, _, attr = qualname.rpartition(".")
            try:
                target = getattr(module, cls_name).__dict__[attr] if cls_name else getattr(module, attr)
            except (AttributeError, KeyError):
                target = None
            if not callable(target):
                unresolved.append(f"{layer}.{qualname}")
    assert unresolved == []
