"""Reliability auditing for meta-analyses of observational studies.

Counts the analysis search space behind each base study, back-calculates
p-values from published risk ratios, draws rank-ordered p-value plots and
volcano plots as deterministic SVG, pools effects by fixed-effect or
DerSimonian-Laird random-effects weighting, and simulates p-value
populations under null, effect, selection, and mixture regimes.
"""

from .datasets import (
    Dataset,
    case_counts_path,
    case_effects_path,
    case_pvalues_path,
    load_case_dataset,
    load_counts,
    load_dataset,
    load_effects,
    load_pvalues,
    save_counts,
    save_effects,
    save_pvalues,
)
from .diagnostics import (
    BilinearityFit,
    EndpointDescriptives,
    KsResult,
    PValuePlotSeries,
    PValueRecord,
    VolcanoPoint,
    bilinearity_fit,
    build_pplot,
    build_volcano,
    descriptives,
    uniformity_ks,
)
from .errors import (
    DegenerateIntervalError,
    EmptySeriesError,
    InsufficientDataError,
    SearchSpaceOverflowError,
    ValidationError,
)
from .pooling import PooledResult, i2, pool_fixed, pool_random_dl
from .searchspace import (
    SearchSpace,
    SpaceSummary,
    StudyCounts,
    compute_space,
    summarize_spaces,
)
from .simulate import (
    REGIMES,
    ShapeStats,
    SimConfig,
    draw_pvalues,
    shape_check,
    shape_stats,
    simulate_pvalues,
)
from .statcore import (
    BackCalcResult,
    BonferroniLine,
    EffectEstimate,
    P_FLOOR,
    bonferroni_line,
    fwer,
    normal_cdf,
    normal_quantile,
    p_from_estimate,
    quantile_type6,
    z_crit,
)
from .svgplot import PlotOptions, render_pplot_svg, render_volcano_svg

__version__ = "0.1.0"

__all__ = [
    "BackCalcResult",
    "BilinearityFit",
    "BonferroniLine",
    "Dataset",
    "DegenerateIntervalError",
    "EffectEstimate",
    "EmptySeriesError",
    "EndpointDescriptives",
    "InsufficientDataError",
    "KsResult",
    "P_FLOOR",
    "PValuePlotSeries",
    "PValueRecord",
    "PlotOptions",
    "PooledResult",
    "REGIMES",
    "SearchSpace",
    "SearchSpaceOverflowError",
    "ShapeStats",
    "SimConfig",
    "SpaceSummary",
    "StudyCounts",
    "ValidationError",
    "VolcanoPoint",
    "bilinearity_fit",
    "bonferroni_line",
    "build_pplot",
    "build_volcano",
    "case_counts_path",
    "case_effects_path",
    "case_pvalues_path",
    "compute_space",
    "descriptives",
    "draw_pvalues",
    "fwer",
    "i2",
    "load_case_dataset",
    "load_counts",
    "load_dataset",
    "load_effects",
    "load_pvalues",
    "normal_cdf",
    "normal_quantile",
    "p_from_estimate",
    "pool_fixed",
    "pool_random_dl",
    "quantile_type6",
    "render_pplot_svg",
    "render_volcano_svg",
    "save_counts",
    "save_effects",
    "save_pvalues",
    "shape_check",
    "shape_stats",
    "simulate_pvalues",
    "summarize_spaces",
    "uniformity_ks",
    "z_crit",
]
