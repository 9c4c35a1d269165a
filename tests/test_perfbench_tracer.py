"""The benchmark tracer wraps package functions by name; each name must exist.

A traced run (``perfbench/run.py --trace 1``) looks every listed function up
on its ``metaaudit`` module, so a renamed or deleted function would break
every traced run. The tracer file is only read here, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _tracer()


@pytest.mark.parametrize(
    "module, name",
    [
        (module, name)
        for table in (_TRACER.TIMED, _TRACER.COUNTED)
        for module, names in table.items()
        for name in names
    ],
)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"metaaudit.{module}"), name))
