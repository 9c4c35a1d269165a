"""Inverse-variance pooling of risk ratios with heterogeneity statistics.

Implements the two classical approaches: fixed-effect pooling, and the
DerSimonian-Laird random-effects method with its moment estimate of the
between-study variance. Per-study standard errors are recovered from the
published confidence intervals by the log-scale back-calculation in
:mod:`metaaudit.statcore`, so the only inputs needed are risk ratios and
their intervals.

References
----------
DerSimonian R, Laird N (1986). Meta-analysis in clinical trials.
Controlled Clinical Trials 7(3):177-188.

Higgins JPT, Thompson SG, Deeks JJ, Altman DG (2003). Measuring
inconsistency in meta-analyses. BMJ 327:557-560.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ValidationError
from .statcore import EffectEstimate, _require_finite, _require_int, p_from_estimate, z_crit

__all__ = ["PooledResult", "i2", "pool_fixed", "pool_random_dl"]


class PooledResult(NamedTuple):
    """Pooled estimate plus heterogeneity statistics.

    Attributes
    ----------
    k : int
        Number of studies pooled.
    pooled_log : float
        Pooled log risk ratio.
    pooled_se : float
        Standard error of ``pooled_log``.
    ci_low, ci_high : float
        95% confidence limits for ``pooled_log`` (log scale).
    q_stat : float
        Cochran's Q computed with fixed-effect weights.
    tau2 : float
        Between-study variance; 0 under the fixed-effect method.
    i2_percent : float
        Higgins' I-squared in percent, in [0, 100].
    method : str
        ``"fixed"`` or ``"random_DL"``.
    """

    k: int
    pooled_log: float
    pooled_se: float
    ci_low: float
    ci_high: float
    q_stat: float
    tau2: float
    i2_percent: float
    method: str


def i2(q_stat: float, k: int) -> float:
    """Higgins' I-squared statistic, in percent.

    ``max(0, (Q - (k - 1)) / Q) * 100``; defined as 0 when Q is 0 or when
    only one study is available.

    Parameters
    ----------
    q_stat : float
        Cochran's Q; must be non-negative.
    k : int
        Number of studies; at least 1.

    Returns
    -------
    float
        Percentage of variability attributable to heterogeneity.
    """
    _require_int("k", k, minimum=1)
    q_stat = _require_finite("q_stat", q_stat)
    if q_stat < 0.0:
        raise ValidationError(f"q_stat must be a finite non-negative real, got {q_stat!r}")
    if q_stat == 0.0 or k == 1:
        return 0.0
    return max(0.0, (q_stat - (k - 1)) / q_stat) * 100.0


def _log_effects_and_weights(
    estimates: list[EffectEstimate],
) -> tuple[list[float], list[float]]:
    logs: list[float] = []
    weights: list[float] = []
    for estimate in estimates:
        back = p_from_estimate(estimate)
        logs.append(back.log_effect)
        weights.append(1.0 / back.se**2)
    return logs, weights


def _pool(logs: list[float], weights: list[float]) -> tuple[float, float]:
    w_sum = sum(weights)
    pooled_log = sum(w * y for w, y in zip(weights, logs)) / w_sum
    pooled_se = 1.0 / math.sqrt(w_sum)
    return pooled_log, pooled_se


def _cochran_q(logs: list[float], weights: list[float], pooled_log: float) -> float:
    return sum(w * (y - pooled_log) ** 2 for w, y in zip(weights, logs))


def _result(
    method: str, logs: list[float], weights: list[float], q_stat: float, tau2: float
) -> PooledResult:
    """Pool with ``weights`` and attach the 95% interval and heterogeneity statistics."""
    pooled_log, pooled_se = _pool(logs, weights)
    half_width = z_crit(0.95) * pooled_se
    return PooledResult(
        k=len(logs),
        pooled_log=pooled_log,
        pooled_se=pooled_se,
        ci_low=pooled_log - half_width,
        ci_high=pooled_log + half_width,
        q_stat=q_stat,
        tau2=tau2,
        i2_percent=i2(q_stat, len(logs)),
        method=method,
    )


def pool_fixed(estimates: list[EffectEstimate]) -> PooledResult:
    """Fixed-effect inverse-variance pooling.

    Each study is weighted by the inverse of its squared standard error,
    with the standard error recovered from the published interval.

    Parameters
    ----------
    estimates : list of EffectEstimate
        At least one study.

    Returns
    -------
    PooledResult

    Raises
    ------
    ValidationError
        If the list is empty.
    """
    if not estimates:
        raise ValidationError("cannot pool an empty list of estimates")
    logs, weights = _log_effects_and_weights(estimates)
    pooled_log, _ = _pool(logs, weights)
    return _result("fixed", logs, weights, _cochran_q(logs, weights, pooled_log), 0.0)


def pool_random_dl(estimates: list[EffectEstimate]) -> PooledResult:
    """DerSimonian-Laird random-effects pooling.

    The between-study variance is the moment estimate
    ``tau2 = max(0, (Q - (k - 1)) / (sum(w) - sum(w**2)/sum(w)))`` computed
    from the fixed-effect weights, after which studies are re-weighted by
    ``1 / (se**2 + tau2)`` and pooled as in :func:`pool_fixed`. When the
    studies are homogeneous (Q <= k - 1) the clamp makes the result
    identical to the fixed-effect one.

    Parameters
    ----------
    estimates : list of EffectEstimate
        At least two studies.

    Returns
    -------
    PooledResult

    Raises
    ------
    ValidationError
        If fewer than two studies are supplied.
    """
    if len(estimates) < 2:
        raise ValidationError(
            f"random-effects pooling needs at least 2 studies, got {len(estimates)}"
        )
    logs, weights = _log_effects_and_weights(estimates)
    fixed_pooled, _ = _pool(logs, weights)
    q_stat = _cochran_q(logs, weights, fixed_pooled)
    k = len(estimates)
    w_sum = sum(weights)
    c = w_sum - sum(w**2 for w in weights) / w_sum
    tau2 = max(0.0, (q_stat - (k - 1)) / c)
    # With tau2 == 0 these are the fixed weights bit for bit: each w is itself 1 / se**2, and
    # 1 / (1 / w) == w held for every such reciprocal tried (not for about 1 in 7 other doubles).
    star_weights = [1.0 / (1.0 / w + tau2) for w in weights]
    return _result("random_DL", logs, star_weights, q_stat, tau2)
