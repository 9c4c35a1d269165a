"""Every module of the package, every demo and every test parses as the oldest
Python that ``pyproject.toml`` allows, so newer syntax is caught without an
interpreter of that version."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [*sorted((ROOT / "src" / "metaaudit").glob("*.py")),
           *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "tests").glob("*.py"))]


def python_floor():
    """(major, minor) of ``requires-python = ">=X.Y"``, the one place the floor is declared."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=python_floor())
