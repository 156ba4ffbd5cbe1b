"""README's examples run as written and show what they return."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    """The first fenced block of the language under a `## heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


def test_library_quick_start_shows_what_each_line_returns():
    # every `expr  # text` line is evaluated and its repr compared with the text
    source = _block("Library quick start", "python")
    lines = source.splitlines()
    namespace: dict = {}
    shown, stated = [], []
    for statement in ast.parse(source).body:
        comment = lines[statement.end_lineno - 1][statement.end_col_offset:].strip()
        if isinstance(statement, ast.Expr) and comment.startswith("#"):
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            shown.append(repr(value))
            stated.append(comment[1:].strip())
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert len(stated) == 2 and shown == stated


def test_readme_stays_within_its_budget():
    # README says what the library offers and what a user can rely on; how a
    # module works is stated in its docstrings, so README need not grow with it
    assert len(README.read_bytes()) <= 15_000
