"""Only ``datasets`` opens a file: every byte the package reads or writes goes
through that one module, so that what a run read and wrote can be counted and
hashed in one place."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "metaaudit"
FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def file_calls(path):
    """``(line, name)`` of each call in ``path`` to a function or method named in FILE_CALLS."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                calls.append((node.lineno, name))
    return calls


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_datasets_opens_a_file(path):
    if path.name == "datasets.py":
        assert file_calls(path), "the file reader and writer moved out of datasets.py"
    else:
        assert file_calls(path) == []
