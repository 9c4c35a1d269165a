"""Monte-Carlo p-value populations under null, effect, and selection regimes.

Generates the p-value collections whose rank-ordered plots illustrate the
shapes the diagnostics are built to detect: a 45-degree line under the null,
a shallow slope under a common real effect, and a bilinear hockey stick when
some studies report the minimum p-value found across a search of many
candidate tests ("phack"), or when such studies are mixed with null ones.

Candidate tests within a study are simulated as independent, so the chance
of at least one p <= alpha across S candidates is the familiar
``1 - (1 - alpha)**S``. Real search spaces are correlated, and independent
candidates maximise that chance, so independence bounds what selection can
do; it does not model the case study's data. At each study's own ``space3``
it predicts almost no reported p above 0.05, yet 61 of the 104 bundled
p-values are.

The reported minimum of S iid Uniform(0,1) candidate p-values is Beta(1, S),
drawn exactly from one uniform per study, so S costs O(1) per study.

Determinism: ``SeedSequence(seed)`` spawns one generator per kind of variate
(selection uniforms, candidate uniforms, normals), and replicate i is the
i-th block of m draws of each kind, so a replicate's p-values do not depend
on how many replicates are drawn.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .diagnostics import _FIT_MIN_M, _SSE_LINEAR_EPS, PValueRecord, _line_sse
from .errors import InsufficientDataError, ValidationError
from .statcore import _SQRT2, P_FLOOR, _Record, _require_finite, _require_int, _shown

# numpy is imported inside the functions that build or read arrays, so that
# commands which never touch one start without paying for its import.

__all__ = [
    "MIX_COMPONENTS", "REGIMES", "ShapeStats", "SimConfig", "draw_pvalues", "shape_check",
    "shape_stats", "simulate_pvalues",
]

REGIMES = ("null", "effect", "phack", "mixture")

MIX_COMPONENTS = ("phack", "effect")

_SEED_MAX = 2**64 - 1

# Author label of simulated records and of the rows of a simulated p-value CSV.
RECORD_AUTHOR = "sim"

# shape_stats needs this many replicates; fewer are too noisy to summarize by a mean.
_MIN_REPLICATES = 100

# shape_stats sorts and fits rows in blocks of about this many p-values, and of at
# least one row, so that its temporaries do not grow with the number of replicates;
# _two_sided_p maps math.erfc over blocks of exactly this many values.
_BLOCK = 2**13


class SimConfig(_Record):
    """Configuration of one simulation run.

    Attributes
    ----------
    regime : str
        One of ``"null"``, ``"effect"``, ``"phack"``, ``"mixture"``.
    m : int
        Number of reported p-values per replicate; at least 1.
    seed : int
        RNG seed in [0, 2**64).
    delta : float
        Mean of the test statistic of effect studies. Required when
        :meth:`reads` names it (regime ``"effect"``, or a mixture of effect
        studies), since 0.0 draws the null; 0.0 otherwise.
    s_tests : int
        Candidate tests searched per study under phack; at least 1.
    pi_mix : float
        Fraction of non-null studies under the mixture regime, in [0, 1].
    replicates : int
        Number of independent replicates; at least 1.
    mix_component : str
        What the non-null fraction of a mixture consists of:
        ``"phack"`` (default) or ``"effect"``.
    """

    __slots__ = (
        "regime", "m", "seed", "delta", "s_tests", "pi_mix", "replicates", "mix_component",
    )

    def __init__(
        self, regime: str, m: int, seed: int, delta: float | None = None, s_tests: int = 1,
        pi_mix: float = 0.0, replicates: int = 1, mix_component: str = "phack",
    ) -> None:
        # Stored first: the delta check asks reads(), which reads the stored fields.
        self._set_fields((regime, m, seed, delta, s_tests, pi_mix, replicates, mix_component))
        if self.regime not in REGIMES:
            raise ValidationError(
                f"regime must be one of {', '.join(REGIMES)}; got {self.regime!r}"
            )
        for name in ("m", "s_tests", "replicates"):
            _require_int(name, getattr(self, name), minimum=1)
        _require_finite("s_tests", self.s_tests)  # the Beta(1, S) draw divides floats by S
        # One array holds every p-value, 8 bytes each, and may span at most sys.maxsize bytes.
        if self.m * self.replicates * 8 > sys.maxsize:
            raise ValidationError(
                f"replicates * m must be at most {sys.maxsize // 8}: one array holds every p-value"
            )
        if not 0 <= _require_int("seed", self.seed) <= _SEED_MAX:
            raise ValidationError(f"seed must lie in [0, 2**64), got {_shown(self.seed)}")
        if self.delta is None and "delta" in self.reads():
            raise ValidationError(f"regime {self.regime!r} draws effect studies; give delta")
        delta = 0.0 if self.delta is None else self.delta
        object.__setattr__(self, "delta", _require_finite("delta", delta))
        pi_mix = _require_finite("pi_mix", self.pi_mix)
        if not 0.0 <= pi_mix <= 1.0:
            raise ValidationError(f"pi_mix must lie in [0, 1], got {pi_mix!r}")
        object.__setattr__(self, "pi_mix", pi_mix)
        if self.mix_component not in MIX_COMPONENTS:
            raise ValidationError(
                f"mix_component must be one of {', '.join(MIX_COMPONENTS)}; "
                f"got {self.mix_component!r}"
            )

    def reads(self) -> frozenset[str]:
        """Names of the fields the draws of this run read; the others go unused."""
        component = "delta" if self.mix_component == "effect" else "s_tests"
        specific = {
            "null": (), "effect": ("delta",), "phack": ("s_tests",),
            "mixture": ("pi_mix", "mix_component", component),
        }[self.regime]
        return frozenset(("regime", "m", "seed", "replicates", *specific))


def _two_sided_p(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2 * Phi(-|z|) of each value, in one new array or in ``out``, which may be ``z``."""
    # 2 * Phi(-|z|) = erfc(|z| / sqrt 2). A scalar math.erfc per value is cheap
    # next to the import a vectorised special-function library would cost. It runs
    # on blocks of _BLOCK values, so that no list of Python floats spans the whole array.
    import numpy as np

    x = np.abs(z, out=out)
    x = np.divide(x, _SQRT2, out=x).ravel()
    for start in range(0, x.size, _BLOCK):
        block = x[start:start + _BLOCK]
        block[:] = np.fromiter(map(math.erfc, block.tolist()), float, block.size)
    return x.reshape(z.shape)


def _min_p(u: np.ndarray, s_tests: int) -> np.ndarray:
    """The uniforms ``u`` overwritten by the Beta(1, S) minimum p-values they draw."""
    # The minimum of S iid Uniform(0,1) p-values is Beta(1, S); this is its
    # inverse CDF, 1 - (1 - u)**(1/S), at the uniforms u.
    import numpy as np

    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.divide(u, s_tests, out=u)
    np.expm1(u, out=u)
    return np.negative(u, out=u)


def draw_pvalues(cfg: SimConfig) -> np.ndarray:
    """Simulated p-values in [P_FLOOR, 1] as a ``(cfg.replicates, cfg.m)`` array.

    ``SeedSequence(cfg.seed).spawn(3)`` seeds one generator each for
    selection uniforms, candidate uniforms and normals; each kind a regime
    uses is one ``(replicates, m)`` draw, so row ``i`` (replicate ``i``, in
    study order) is the i-th block of m draws of each kind. A null or effect
    study reports the two-sided p of its normal (plus delta for an effect),
    a phack study the exact Beta(1, S) minimum p from its candidate uniform;
    a mixture study is non-null when its selection uniform is below
    ``pi_mix``. Time is O(replicates * m) for any S. Each draw is overwritten
    in place, so working memory is the output array plus, for a mixture, one
    byte per value of selection flags and, for a phack mixture, one more
    array of candidate uniforms.
    """
    import numpy as np

    shape = (cfg.replicates, cfg.m)
    selection, candidates, normals = (
        np.random.default_rng(seq) for seq in np.random.SeedSequence(cfg.seed).spawn(3)
    )
    if cfg.regime == "phack":
        p = _min_p(candidates.random(shape), cfg.s_tests)
        return np.clip(p, P_FLOOR, 1.0, out=p)
    # The flags come first, so the selection uniforms are freed before the normals exist.
    selected = selection.random(shape) < cfg.pi_mix if cfg.regime == "mixture" else None
    p = normals.standard_normal(shape)
    if cfg.regime == "effect":
        p += cfg.delta
    elif selected is not None and cfg.mix_component == "effect":
        np.add(p, cfg.delta, out=p, where=selected)
    p = _two_sided_p(p, out=p)
    if selected is not None and cfg.mix_component == "phack":
        np.copyto(p, _min_p(candidates.random(shape), cfg.s_tests), where=selected)
    return np.clip(p, P_FLOOR, 1.0, out=p)


def simulate_pvalues(cfg: SimConfig) -> list[list[PValueRecord]]:
    """Simulated p-value records, one inner list of length m per replicate.

    Records carry the study index as citation and the regime name as
    endpoint, so they feed straight into the diagnostics functions. The
    values are the rows of :func:`draw_pvalues`.

    Parameters
    ----------
    cfg : SimConfig

    Returns
    -------
    list of list of PValueRecord
        ``cfg.replicates`` inner lists, each of length ``cfg.m``.
    """
    return [
        [
            PValueRecord(citation=study, author=RECORD_AUTHOR, endpoint=cfg.regime, p=value)
            for study, value in enumerate(row.tolist(), start=1)
        ]
        for row in draw_pvalues(cfg)
    ]


class ShapeStats(NamedTuple):
    """Replicate-averaged diagnostics of a simulated p-value population."""

    mean_frac_le_005: float
    mean_ks_d: float
    mean_bilinearity_ratio: float


def _ks_d(sorted_p: np.ndarray) -> np.ndarray:
    """KS distance from Uniform(0,1) of each row of a row-sorted 2-D array in (0, 1]."""
    import numpy as np

    m = sorted_p.shape[1]
    i = np.arange(1, m + 1, dtype=float)
    return np.maximum(np.max(i / m - sorted_p, axis=1), np.max(sorted_p - (i - 1.0) / m, axis=1))


def _two_segment_fits(sorted_p: np.ndarray):
    """:func:`.bilinearity_fit` of every row of a row-sorted (n, m) array, m >= 6.

    Returns arrays ``(breakpoint_rank, sse_two_segment, sse_one_segment, ratio)``.
    """
    import numpy as np

    n, m = sorted_p.shape
    x, y = np.arange(1, m + 1, dtype=float), sorted_p
    # Running sums along each row; those of x are the same for every row.
    sums = (np.cumsum(x), np.cumsum(y, axis=1), np.cumsum(x * x),
            np.cumsum(y * y, axis=1), np.cumsum(x * y, axis=1))
    ranks = np.arange(2, m - 1)  # the left segment's last rank is also its size
    left = [s[..., ranks - 1] for s in sums]
    right = [s[..., -1:] - s_left for s, s_left in zip(sums, left)]
    totals = _line_sse(ranks, *left) + _line_sse(m - ranks, *right)
    best = np.argmin(totals, axis=1)  # the first minimum: ties go to the smallest rank
    sse_two = totals[np.arange(n), best]
    sse_one = _line_sse(m, *(s[..., -1] for s in sums))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(sse_one <= _SSE_LINEAR_EPS, 1.0, np.minimum(sse_two / sse_one, 1.0))
    return ranks[best], sse_two, sse_one, ratio


def shape_stats(p: np.ndarray) -> ShapeStats:
    """Average the shape diagnostics over the rows of a ``(replicates, m)`` array.

    Per row (replicate): the fraction of p <= 0.05, the KS distance from
    uniformity and the two-segment/one-line SSE ratio, equal to what
    ``build_pplot``, ``uniformity_ks`` and ``bilinearity_fit`` give for the
    row; the three are then averaged over rows. Needs p in (0, 1], at least
    100 rows and ``m >= 6``. The rows are checked, sorted and fitted a block
    of about ``_BLOCK`` values at a time, so working memory beyond ``p`` is
    one block's temporaries plus a few values per row.
    """
    import numpy as np

    replicates, m = p.shape
    if replicates < _MIN_REPLICATES or m < _FIT_MIN_M:
        raise InsufficientDataError(
            f"shape statistics need replicates >= {_MIN_REPLICATES} and m >= {_FIT_MIN_M}"
        )
    frac, ks_d, ratio = (np.empty(replicates) for _ in range(3))
    rows = max(1, _BLOCK // m)
    for start in range(0, replicates, rows):
        these = slice(start, start + rows)
        block = p[these]
        if not np.all((block > 0.0) & (block <= 1.0)):
            raise ValidationError("shape_stats needs p-values in (0, 1]")
        block = np.sort(block, axis=1)
        frac[these] = np.count_nonzero(block <= 0.05, axis=1) / m
        ks_d[these] = _ks_d(block)
        ratio[these] = _two_segment_fits(block)[3]
    n = float(replicates)
    # The built-in sum adds in replicate order; np.sum's pairwise order rounds differently.
    return ShapeStats(
        mean_frac_le_005=sum(frac.tolist()) / n,
        mean_ks_d=sum(ks_d.tolist()) / n,
        mean_bilinearity_ratio=sum(ratio.tolist()) / n,
    )


def shape_check(cfg: SimConfig) -> ShapeStats:
    """Shape statistics of a fresh simulation, ``shape_stats(draw_pvalues(cfg))``."""
    return shape_stats(draw_pvalues(cfg))
