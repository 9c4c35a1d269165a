"""Run one metaaudit CLI invocation with every listed layer function traced.

Usage: python tracer.py SPANS_JSON CLI_ARG...

The process times its imports, wraps the functions listed below from the
outside, calls ``metaaudit.cli.main(CLI_ARG...)`` and exits with its return
code. Spans (name, start, end, parent index, max RSS at start and end) and
counters are kept in memory and written to SPANS_JSON once main returns.

A function is rebound at every place it is reachable from: the defining
module and every metaaudit module that imported it by name (``simulate``
imports ``build_pplot``, ``uniformity_ks`` and ``bilinearity_fit``; ``cli``,
``pooling`` and ``diagnostics`` import ``p_from_estimate``).
"""

import time

# Functions that get a span: calls, self time and self RSS rise.
TIMED = {
    "cli": ("main",),
    "datasets": ("load_pvalues", "load_case_dataset"),
    "diagnostics": ("build_pplot", "uniformity_ks", "bilinearity_fit"),
    "simulate": ("simulate_pvalues", "shape_check"),
    "svgplot": ("render_pplot_svg", "render_volcano_svg"),
}
# Functions that only count calls; their time stays in the caller's span.
COUNTED = {
    "datasets": ("load_counts", "load_effects"),
    "diagnostics": ("build_volcano", "descriptives"),
    "statcore": ("p_from_estimate",),
    "pooling": ("pool_fixed", "pool_random_dl"),
    "searchspace": ("compute_space", "summarize_spaces"),
}
COUNTERS = (
    "cli.bytes_out",
    "datasets.rows_loaded",
    "diagnostics.breakpoints_tried",
    "simulate.pvalues_drawn",
    "simulate.uniforms_drawn",
    "svgplot.bytes_out",
)


def _count_work(name, args, result, counters):
    """Add the work a call did to the layer counters."""
    if name in ("datasets.load_pvalues", "datasets.load_counts", "datasets.load_effects"):
        counters["datasets.rows_loaded"] += len(result)
    elif name == "diagnostics.bilinearity_fit":
        counters["diagnostics.breakpoints_tried"] += args[0].m - 3  # ranks 2..m-2
    elif name == "simulate.simulate_pvalues":
        cfg = args[0]
        counters["simulate.pvalues_drawn"] += cfg.replicates * cfg.m
        if cfg.regime == "phack":  # the other benchmarked regime draws normals
            counters["simulate.uniforms_drawn"] += cfg.replicates * cfg.m * cfg.s_tests
    elif name.startswith("svgplot."):
        counters["svgplot.bytes_out"] += len(result.encode("utf-8"))


def _install(package, modules, spans, counters, maxrss):
    from time import perf_counter

    stack = []

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, maxrss(), 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[5] = maxrss()
                stack.pop()
            _count_work(name, args, result, counters)
            return result
        return wrapper

    def counted(name, fn):
        key = name + ".calls"
        counters[key] = 0

        def wrapper(*args, **kwargs):
            counters[key] += 1
            result = fn(*args, **kwargs)
            _count_work(name, args, result, counters)
            return result
        return wrapper

    namespaces = [vars(package)] + [vars(m) for m in modules.values()]
    for make, table in ((timed, TIMED), (counted, COUNTED)):
        for module, names in table.items():
            for fname in names:
                original = getattr(modules[module], fname)
                wrapper = make(f"{module}.{fname}", original)
                for namespace in namespaces:
                    for attr, value in list(namespace.items()):
                        if value is original:
                            namespace[attr] = wrapper


def _out_dir_bytes(argv):
    from pathlib import Path

    out = Path(argv[argv.index("--out") + 1])
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def main(spans_path, argv):
    t0 = time.monotonic()
    import numpy  # noqa: F401
    t1 = time.monotonic()
    import scipy.special  # noqa: F401
    t2 = time.monotonic()
    import importlib

    import metaaudit
    modules = {name: importlib.import_module(f"metaaudit.{name}")
               for name in ("cli", "datasets", "diagnostics", "pooling", "searchspace",
                            "simulate", "statcore", "svgplot")}
    t3 = time.monotonic()

    import json
    import resource

    def maxrss():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    spans = []
    counters = dict.fromkeys(COUNTERS, 0)
    _install(metaaudit, modules, spans, counters, maxrss)
    code = modules["cli"].main(argv)
    counters["cli.bytes_out"] = _out_dir_bytes(argv)
    record = {
        "t_start": t0,
        "import": {"numpy_s": t1 - t0, "scipy_special_s": t2 - t1, "metaaudit_s": t3 - t2},
        "spans": spans,
        "counters": counters,
    }
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1], sys.argv[2:]))
