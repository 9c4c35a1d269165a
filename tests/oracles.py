"""High-precision reference implementations used as test oracles.

Everything here is computed with mpmath at 50 significant digits, entirely
separately from the package code, so agreement is meaningful.
"""

from mpmath import erfc, erfinv, exp, inf, log, mp, mpf, nsum, sqrt

mp.dps = 50


def norm_cdf(x) -> float:
    """Standard normal CDF at 50-digit precision, rounded to float."""
    return float(erfc(-mpf(x) / sqrt(2)) / 2)


def norm_quantile(q) -> float:
    """Inverse standard normal CDF at 50-digit precision."""
    return float(-sqrt(2) * erfinv(1 - 2 * mpf(q)))


def two_sided_p(z) -> float:
    """Two-sided normal tail probability of |z|."""
    return float(2 * (erfc(abs(mpf(z)) / sqrt(2)) / 2))


def p_from_ci(rr, ci_low, ci_high, level="0.95") -> float:
    """Back-calculated two-sided p from a ratio and CI, all in mpmath."""
    rr, lo, hi, level = mpf(rr), mpf(ci_low), mpf(ci_high), mpf(level)
    crit = -sqrt(2) * erfinv(1 - 2 * (1 - (1 - level) / 2))
    se = (log(hi) - log(lo)) / (2 * crit)
    z = log(rr) / se
    return float(2 * (erfc(abs(z) / sqrt(2)) / 2))


def kolmogorov_sf(x) -> float:
    """P(K > x) of the limiting Kolmogorov distribution, by its alternating series."""
    x = mpf(x)
    return float(2 * nsum(lambda k: (-1) ** (k - 1) * exp(-2 * k * k * x * x), [1, inf]))
