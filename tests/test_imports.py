"""Module boundaries inside the package."""

import ast
import importlib
import json
import os
import re
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


def _defined_names(tree: ast.Module) -> set[str]:
    """Every name a module binds: defs, classes, assigned names and
    attributes, and the strings listed in a `__slots__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in node.targets):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


# standard-library functions that are public though their names begin with
# an underscore
PUBLIC_UNDERSCORED = {"os._exit"}


def test_no_module_reads_a_private_attribute_of_another():
    # `x._name` is read only on self or cls, or when the module itself
    # defines `_name` (its own class's slot, method or field)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _defined_names(tree)
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_") and not node.attr.startswith("__")
            and getattr(node.value, "id", None) not in ("self", "cls")
            and node.attr not in own
            and ast.unparse(node) not in PUBLIC_UNDERSCORED
        ]
    assert found == []


# Public top-level names that no module in the package references and that
# `wregret.__all__` does not export, each kept by the README or the ROADMAP
UNREFERENCED_BUT_KEPT = {
    "axioms.replay": "README, axiom checker: `replay()` re-confirms against the oracle",
    "axioms.check_mdc": "README, axiom checker: dynamic consistency (`check_mdc`, `replay_mdc`); ROADMAP item 10",
    "axioms.replay_mdc": "README, axiom checker: dynamic consistency (`check_mdc`, `replay_mdc`); ROADMAP item 10",
    "dynamics.splice_menu": "README, `wregret.dynamics` row: act splicing",
    "dynamics.frozen_weight_family": "README, `wregret.dynamics` row: `frozen_weight_family` keeps each measure's weight",
    "learning.es_update": "README, `wregret.learning` row: threshold (relative-likelihood) updating",
    "fixtures.fixture_path": "README, CLI examples: `f.fixture_path('delivery.dp')` locates the fixtures",
    "linfeas.solve_nonneg": "perfbench/tracing.py `TARGETS` wraps it; ROADMAP item 1's tracer change drops it",
}


def test_every_public_name_is_referenced_exported_or_kept():
    # a public top-level function or class is read somewhere in the package
    # (by name, as an attribute or in an import), or exported by the package
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.rglob("*.py"))}
    referenced = set(wregret.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, (ast.Attribute, ast.alias)):
                referenced.add(node.attr if isinstance(node, ast.Attribute) else node.name)
    found = []
    for path, tree in trees.items():
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts).removesuffix(".__init__")
        found += [
            f"{module}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in referenced
        ]
    # an entry here is new and unreferenced, or kept but referenced again
    assert set(found) ^ set(UNREFERENCED_BUT_KEPT) == set()


# Public methods that no module in the package references, each kept by a
# README line, perfbench/tracing.py `TARGETS` or a ROADMAP item
UNREFERENCED_METHODS_KEPT = {
    "decisions.Act.utility_profile": "TARGETS wraps it; README: `Act.utility_profile` hands out a read-only mapping",
    "decisions.Menu.best_profile": "TARGETS wraps it; README: `Menu.best_profile` hands out a read-only mapping",
    "learning.Trajectory.final_weights": "ROADMAP item 5: `--summary` prints each seed's final weights",
}


def _overrides(module: str, cls: str, method: str) -> bool:
    """Whether the top-level class `cls` of `module` inherits a `method`
    that it overrides, so that its base class calls it."""
    klass = getattr(importlib.import_module(f"wregret.{module}".removesuffix(".__init__")), cls, None)
    return klass is not None and any(method in vars(base) for base in klass.__mro__[1:])


def test_every_public_method_is_referenced_or_kept():
    # a public method defined in a class body is read somewhere in the
    # package, as an attribute or in an import, or overrides an inherited
    # one (argparse calls `print_help`); a bare name does not count, since
    # a local variable may share a method's name
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.rglob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    found = []
    for path, tree in trees.items():
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts).removesuffix(".__init__")
        found += [
            f"{module}.{cls.name}.{node.name}"
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in referenced
            and not _overrides(module, cls.name, node.name)
        ]
    # an entry here is new and unreferenced, or kept but referenced again
    assert set(found) ^ set(UNREFERENCED_METHODS_KEPT) == set()
    assert all(
        any(cite in why for cite in ("README", "TARGETS", "ROADMAP item"))
        for why in UNREFERENCED_METHODS_KEPT.values()
    )


def test_every_name_kept_for_the_readme_is_named_there():
    # an allow-list entry whose reason cites README is kept by a README line
    # that names it, by its last dotted name as a whole word
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    kept = {**UNREFERENCED_BUT_KEPT, **UNREFERENCED_METHODS_KEPT}
    unnamed = [
        name for name, why in kept.items()
        if "README" in why and not re.search(rf"\b{name.rpartition('.')[2]}\b", readme)
    ]
    assert unnamed == []


def _traced_targets() -> dict[str, tuple[str, ...]]:
    """perfbench/tracing.py's `TARGETS`: layer -> wrapped entry points."""
    tracing = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    return next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )


IMPORT_CLI = """
import sys, typing
built = []
init = typing.ForwardRef.__init__
typing.ForwardRef.__init__ = lambda self, *args, **kwargs: (built.append(args[0]), init(self, *args, **kwargs))[1]
import wregret.cli
loaded = sorted(sys.modules)
import json
print(json.dumps({"loaded": loaded, "forward_refs": built}))
"""


def test_cli_import_path_is_lean_and_complete():
    # `import wregret.cli` loads every layer the benchmark's tracer wraps
    # (perfbench/tracing.py `TARGETS`), and none of the costly reflection
    # modules: `dataclasses` pulls in `inspect` and, through it, `ast` and `dis`.
    # It builds no `typing.ForwardRef` (a `typing.NamedTuple` record compiles
    # one per string annotation), leaves `json` to the JSON writer, and leaves
    # `wregret.fixtures`, whose `importlib.resources` pulls in `zipfile`,
    # `tempfile`, `bz2` and `lzma`, to the axiom checker's default fixtures
    targets = _traced_targets()
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_CLI], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    report = json.loads(out)
    loaded = set(report["loaded"])
    assert {"dataclasses", "inspect", "json", "wregret.fixtures"} & loaded == set()
    assert report["forward_refs"] == []
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
