"""Reliability auditing for meta-analyses of observational studies.

Counts the analysis search space behind each base study, back-calculates
p-values from published risk ratios, draws rank-ordered p-value plots and
volcano plots as deterministic SVG, pools effects by fixed-effect or
DerSimonian-Laird random-effects weighting, and simulates p-value
populations under null, effect, selection, and mixture regimes.
"""

import importlib

__version__ = "0.1.0"

# The modules whose __all__ the package re-exports, each after the modules it
# imports. None is imported until one of its names is first used (PEP 562), so
# each module's __all__ stays the one list of what it publishes.
_MODULES = ("errors", "statcore", "searchspace", "diagnostics", "datasets", "pooling",
            "svgplot", "simulate")


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        globals()[name] = [n for m in _MODULES for n in __getattr__(m).__all__]
        return globals()[name]
    if not (name.startswith("__") and name.endswith("__")):
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                globals()[name] = getattr(module, name)
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
