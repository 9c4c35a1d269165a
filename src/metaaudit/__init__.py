"""Reliability auditing for meta-analyses of observational studies.

Counts the analysis search space behind each base study, back-calculates
p-values from published risk ratios, draws rank-ordered p-value plots and
volcano plots as deterministic SVG, pools effects by fixed-effect or
DerSimonian-Laird random-effects weighting, and simulates p-value
populations under null, effect, selection, and mixture regimes.
"""

# Each module's __all__ is the one list of what it publishes; the package
# re-exports them all.
from . import datasets, diagnostics, errors, pooling, searchspace, simulate, statcore, svgplot
from .datasets import *
from .diagnostics import *
from .errors import *
from .pooling import *
from .searchspace import *
from .simulate import *
from .statcore import *
from .svgplot import *

__version__ = "0.1.0"

__all__ = []
__all__ += datasets.__all__
__all__ += diagnostics.__all__
__all__ += errors.__all__
__all__ += pooling.__all__
__all__ += searchspace.__all__
__all__ += simulate.__all__
__all__ += statcore.__all__
__all__ += svgplot.__all__
