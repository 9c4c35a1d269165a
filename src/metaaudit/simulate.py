"""Monte-Carlo p-value populations under null, effect, and selection regimes.

Generates the p-value collections whose rank-ordered plots illustrate the
shapes the diagnostics are built to detect: a 45-degree line under the null,
a shallow slope under a common real effect, and a bilinear hockey stick when
some studies report the minimum p-value found across a search of many
candidate tests ("phack"), or when such studies are mixed with null ones.

Candidate tests within a study are simulated as independent, so the chance
of at least one p <= alpha across S candidates is the familiar
``1 - (1 - alpha)**S``. Real search spaces are correlated; independence is
the upper bound and keeps the arithmetic transparent.

Determinism: every replicate draws from its own substream, derived from
(seed, replicate index) by NumPy's SeedSequence spawning, so a replicate's
p-values do not depend on how many replicates are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from .diagnostics import PValueRecord, _ks_d, _two_segment_fits
from .errors import InsufficientDataError, ValidationError
from .statcore import P_FLOOR, _require_finite, _require_int

__all__ = [
    "REGIMES", "ShapeStats", "SimConfig", "draw_pvalues", "shape_check", "shape_stats",
    "simulate_pvalues",
]

REGIMES = ("null", "effect", "phack", "mixture")

_MIX_COMPONENTS = ("phack", "effect")

_SEED_MAX = 2**64 - 1

# Author label of simulated records and of the rows of a simulated p-value CSV.
RECORD_AUTHOR = "sim"


@dataclass(frozen=True)
class SimConfig:
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
        Mean of the test statistic of effect studies. Required when any are
        drawn (regime ``"effect"``, or a mixture of effect studies), since
        0.0 draws the null; 0.0 otherwise.
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

    regime: str
    m: int
    seed: int
    delta: float | None = None
    s_tests: int = 1
    pi_mix: float = 0.0
    replicates: int = 1
    mix_component: str = "phack"

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ValidationError(
                f"regime must be one of {', '.join(REGIMES)}; got {self.regime!r}"
            )
        for name in ("m", "s_tests", "replicates"):
            _require_int(name, getattr(self, name), minimum=1)
        if not 0 <= _require_int("seed", self.seed) <= _SEED_MAX:
            raise ValidationError(f"seed must lie in [0, 2**64), got {self.seed}")
        delta = self.delta
        if delta is None:
            draws_effects = self.regime == "effect" or (
                self.regime == "mixture" and self.mix_component == "effect"
            )
            if draws_effects:
                raise ValidationError(f"regime {self.regime!r} draws effect studies; give delta")
            delta = 0.0
        object.__setattr__(self, "delta", _require_finite("delta", delta))
        if not 0.0 <= float(self.pi_mix) <= 1.0:
            raise ValidationError(f"pi_mix must lie in [0, 1], got {self.pi_mix!r}")
        if self.mix_component not in _MIX_COMPONENTS:
            raise ValidationError(
                f"mix_component must be one of {', '.join(_MIX_COMPONENTS)}; "
                f"got {self.mix_component!r}"
            )


def _two_sided_p(z: np.ndarray) -> np.ndarray:
    return 2.0 * ndtr(-np.abs(z))


def _min_of_candidates(rng: np.random.Generator, n: int, s_tests: int) -> np.ndarray:
    # A two-sided null p-value is Uniform(0,1), so candidate p-values are
    # drawn directly as uniforms; the study reports the minimum.
    if n == 0:
        return np.empty(0)
    return rng.random((n, s_tests)).min(axis=1)


def _replicate_p(cfg: SimConfig, index: int) -> np.ndarray:
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,))
    rng = np.random.default_rng(seq)
    if cfg.regime == "null":
        p = _two_sided_p(rng.standard_normal(cfg.m))
    elif cfg.regime == "effect":
        p = _two_sided_p(cfg.delta + rng.standard_normal(cfg.m))
    elif cfg.regime == "phack":
        p = _min_of_candidates(rng, cfg.m, cfg.s_tests)
    else:  # mixture
        selected = rng.random(cfg.m) < cfg.pi_mix
        p = np.empty(cfg.m)
        n_selected = int(selected.sum())
        if cfg.mix_component == "phack":
            p[selected] = _min_of_candidates(rng, n_selected, cfg.s_tests)
        else:
            p[selected] = _two_sided_p(cfg.delta + rng.standard_normal(n_selected))
        p[~selected] = _two_sided_p(rng.standard_normal(cfg.m - n_selected))
    return np.clip(p, P_FLOOR, 1.0)


def draw_pvalues(cfg: SimConfig) -> np.ndarray:
    """Simulated p-values in [P_FLOOR, 1] as a ``(cfg.replicates, cfg.m)`` array.

    Row ``i`` is replicate ``i``, drawn in study order from the stream
    ``SeedSequence(entropy=cfg.seed, spawn_key=(i,))``.
    """
    p = np.empty((cfg.replicates, cfg.m))
    for index in range(cfg.replicates):
        p[index] = _replicate_p(cfg, index)
    return p


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


def shape_stats(p: np.ndarray) -> ShapeStats:
    """Average the shape diagnostics over the rows of a ``(replicates, m)`` array.

    Per row (replicate): the fraction of p <= 0.05, the KS distance from
    uniformity and the two-segment/one-line SSE ratio, equal to what
    ``build_pplot``, ``uniformity_ks`` and ``bilinearity_fit`` give for the
    row; the three are then averaged over rows. Needs p in (0, 1], at least
    100 rows (fewer are too noisy to summarize by a mean) and ``m >= 6`` for
    the two-segment fit.
    """
    replicates, m = p.shape
    if replicates < 100:
        raise InsufficientDataError(f"shape_stats needs at least 100 replicates, got {replicates}")
    if m < 6:
        raise InsufficientDataError(f"shape_stats needs m >= 6, got m={m}")
    if not np.all((p > 0.0) & (p <= 1.0)):
        raise ValidationError("shape_stats needs p-values in (0, 1]")
    p = np.sort(p, axis=1)
    n = float(replicates)
    # The built-in sum adds in replicate order; np.sum's pairwise order rounds differently.
    return ShapeStats(
        mean_frac_le_005=sum((np.count_nonzero(p <= 0.05, axis=1) / m).tolist()) / n,
        mean_ks_d=sum(_ks_d(p).tolist()) / n,
        mean_bilinearity_ratio=sum(_two_segment_fits(p)[3].tolist()) / n,
    )


def shape_check(cfg: SimConfig) -> ShapeStats:
    """Shape statistics of a fresh simulation, ``shape_stats(draw_pvalues(cfg))``."""
    return shape_stats(draw_pvalues(cfg))
