"""Only ``cli`` writes to the console: every other module computes and returns,
and ``cli.main`` alone prints what a command made, so that a run's output is
decided in one place."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "metaaudit"
STREAMS = {"stdout", "stderr", "__stdout__", "__stderr__"}


def console_uses(path):
    """``(line, name)`` of each ``print`` call and each use of a standard stream in ``path``."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "print":
                uses.append((node.lineno, "print"))
        elif isinstance(node, ast.Attribute) and node.attr in STREAMS:
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            uses += [(node.lineno, alias.name) for alias in node.names if alias.name in STREAMS]
    return uses


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_cli_writes_to_the_console(path):
    if path.name == "cli.py":
        assert console_uses(path), "the console writes moved out of cli.py"
    else:
        assert console_uses(path) == []
