"""The package namespace re-exports each module's ``__all__``."""

import importlib
import pkgutil

import metaaudit

# Every module but the command line publishes its names through the package.
MODULES = [
    importlib.import_module(f"metaaudit.{info.name}")
    for info in pkgutil.iter_modules(metaaudit.__path__)
    if info.name != "cli"
]


def test_package_all_is_the_union_of_the_module_alls():
    assert len(MODULES) == 8
    assert len(metaaudit.__all__) == len(set(metaaudit.__all__))
    assert set(metaaudit.__all__) == {name for module in MODULES for name in module.__all__}


def test_each_exported_name_is_the_object_of_its_module():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(metaaudit, name) is getattr(module, name), (module.__name__, name)
