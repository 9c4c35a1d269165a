"""Core statistical primitives.

Normal distribution helpers, sample quantiles, multiplicity arithmetic, and
back-calculation of a two-sided p-value from a risk ratio and its confidence
interval. The back-calculation follows the standard log-scale normal
approximation (Altman & Bland 2011, BMJ 343:d2304): the standard error of the
log risk ratio is recovered from the interval width and the normal critical
value for the interval's coverage level.

All functions are deterministic and operate on plain floats, so results are
reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DegenerateIntervalError, InsufficientDataError, ValidationError

__all__ = [
    "BackCalcResult",
    "BonferroniLine",
    "EffectEstimate",
    "P_FLOOR",
    "bonferroni_line",
    "fwer",
    "normal_cdf",
    "normal_quantile",
    "p_from_estimate",
    "quantile_type6",
    "z_crit",
]

# Smallest p-value ever reported by the back-calculation; keeps -log10(p)
# finite for plotting while staying far below anything data can produce.
P_FLOOR = 1e-300

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Each C0 and C1 control character, DEL, U+2028, U+2029, U+FFFE and U+FFFF as its repr
# escape ("\\n", "\\x85", "\\u2028"): every character at which str.splitlines breaks a
# line or that XML 1.0 text may not hold, bar surrogates. Printed tables and SVG text
# show them escaped, no endpoint label may hold one, and the CSV files keep the text.
_CONTROL_ESCAPES = {
    code: repr(chr(code))[1:-1]
    for code in (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029, 0xFFFE, 0xFFFF)
}


def _shown(value: object) -> str:
    """``repr`` of a caller's value for an error message, for integers of any length."""
    try:
        return repr(value)
    except ValueError:  # Python refuses int -> str past sys.get_int_max_str_digits() digits
        sign = "negative " if isinstance(value, int) and value < 0 else ""
        return f"<{sign}integer of more than {sys.get_int_max_str_digits()} digits>"


def _real(name: str, value: float) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer past the float range, too long to echo back
        raise ValidationError(f"{name} must be finite, got a number past the float range") from None
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None


def _require_finite(name: str, value: float) -> float:
    value = _real(name, value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def _require_open_unit(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if not 0.0 < value < 1.0:
        raise ValidationError(f"{name} must lie strictly between 0 and 1, got {value!r}")
    return value


def _require_trimmed(name: str, value: str) -> str:
    # The loaders strip every cell, so outer whitespace would not survive a save and load.
    if not isinstance(value, str) or value != value.strip():
        raise ValidationError(f"{name} must be a string without outer whitespace, got {value!r}")
    return value


def _require_int(name: str, value: int, minimum: int | None = None) -> int:
    # bool is an int subclass, but True is never a count or an identifier.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {_shown(value)}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, got {_shown(value)}")
    return value


# The records' own __setattr__ refuses every field; this one stores them.
_object_setattr = object.__setattr__


class _Record:
    """Base of the validated records: immutable, compared, hashed and shown by field.

    A subclass names its fields in ``__slots__``, in order, and its
    ``__init__`` checks its arguments and stores the fields with
    ``_set_fields``. Only copying and unpickling store them the same way
    without checking them again; every record the package builds, a loaded
    one included, passes its constructor.
    """

    __slots__ = ()

    def _set_fields(self, values: tuple) -> None:
        for name, value in zip(self.__slots__, values):
            _object_setattr(self, name, value)

    __setstate__ = _set_fields

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__getstate__() == other.__getstate__()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def normal_cdf(x: float) -> float:
    """Standard normal cumulative distribution function.

    Evaluated through the complementary error function so that deep
    tail values (|x| ~ 8 and beyond) keep full relative accuracy rather
    than rounding to 0 or 1.

    Parameters
    ----------
    x : float
        Evaluation point; must be finite.

    Returns
    -------
    float
        P(Z <= x) for Z ~ N(0, 1).
    """
    x = _require_finite("x", x)
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(q: float) -> float:
    """Inverse of :func:`normal_cdf`.

    Parameters
    ----------
    q : float
        Probability strictly between 0 and 1.

    Returns
    -------
    float
        The value x with ``normal_cdf(x) == q``.
    """
    q = _require_open_unit("q", q)
    if q > 0.5:
        # 1 - q is exact here, and the lower tail keeps relative accuracy.
        return -normal_quantile(1.0 - q)
    # Imported here, its one use, so that commands which never need a quantile
    # start without loading statistics and the fractions and decimal it imports.
    from statistics import NormalDist

    x = NormalDist().inv_cdf(q)
    # One Newton step on Phi(x) - q. Near the centre the residual is taken
    # through erf against q - 0.5 (exact) to avoid cancellation in Phi - q.
    if q > 0.25:
        residual = 0.5 * math.erf(x / _SQRT2) - (q - 0.5)
    else:
        residual = 0.5 * math.erfc(-x / _SQRT2) - q
    return x - residual * _SQRT2PI / math.exp(-0.5 * x * x)


def z_crit(level: float = 0.95) -> float:
    """Two-sided normal critical value for a confidence level.

    ``z_crit(0.95)`` is 1.959964..., the familiar "1.96" at full precision.
    """
    level = _require_open_unit("level", level)
    return normal_quantile(1.0 - (1.0 - level) / 2.0)


def quantile_type6(values, q: float) -> float:
    """Sample quantile with type-6 interpolation (the SAS/Minitab default).

    The plotting position is ``h = (n + 1) * q``; the result interpolates
    linearly between the floor(h)-th and next order statistics, clamping to
    the extremes when h falls outside [1, n].

    Parameters
    ----------
    values : sequence of float
        At least one finite value; order does not matter.
    q : float
        Quantile level in [0, 1].

    Returns
    -------
    float
        The interpolated sample quantile.
    """
    data = sorted(_require_finite("values", v) for v in values)
    if not data:
        raise InsufficientDataError("quantile of an empty sequence")
    q = _require_finite("q", q)
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"q must lie in [0, 1], got {q!r}")
    n = len(data)
    h = (n + 1) * q
    if h <= 1.0:
        return data[0]
    if h >= n:
        return data[-1]
    j = int(math.floor(h))
    g = h - j
    return data[j - 1] + g * (data[j] - data[j - 1])


def fwer(n_tests: int, alpha: float = 0.05) -> float:
    """Family-wise error rate for n independent tests at level alpha.

    Probability of at least one false positive: ``1 - (1 - alpha)**n``.
    """
    _require_int("n_tests", n_tests, minimum=1)
    alpha = _require_open_unit("alpha", alpha)
    return 1.0 - (1.0 - alpha) ** _require_finite("n_tests", n_tests)


class BonferroniLine(NamedTuple):
    """Multiplicity-adjusted significance threshold, on both scales."""

    threshold: float
    neg_log10: float


def bonferroni_line(alpha: float, m_tests: int) -> BonferroniLine:
    """Bonferroni-adjusted threshold ``alpha / m`` and its -log10.

    The ``neg_log10`` value is where the horizontal reference line sits on
    a volcano plot's y axis. A threshold that underflows to 0 is refused.
    """
    alpha = _require_open_unit("alpha", alpha)
    _require_int("m_tests", m_tests, minimum=1)
    threshold = alpha / _require_finite("m_tests", m_tests)
    if threshold == 0.0:
        raise ValidationError(f"alpha={alpha!r} / m_tests={m_tests} underflows to 0")
    return BonferroniLine(threshold=threshold, neg_log10=-math.log10(threshold))


class EffectEstimate(_Record):
    """A published risk ratio with its confidence interval.

    Attributes
    ----------
    label : str
        Name of the exposure or endpoint the estimate belongs to.
    rr : float
        Point estimate of the risk ratio; must be positive.
    ci_low, ci_high : float
        Confidence limits bracketing ``rr``; both positive.
    level : float
        Coverage of the interval, strictly between 0 and 1 (default 0.95).
    """

    __slots__ = ("label", "rr", "ci_low", "ci_high", "level")

    def __init__(
        self, label: str, rr: float, ci_low: float, ci_high: float, level: float = 0.95
    ) -> None:
        _require_trimmed("label", label)
        checked = []
        for name, value in (("rr", rr), ("ci_low", ci_low), ("ci_high", ci_high)):
            value = _require_finite(name, value)
            if value <= 0.0:
                raise ValidationError(
                    f"{name} must be positive for a ratio estimate, got {value!r}"
                )
            checked.append(value)
        checked.append(_require_open_unit("level", level))
        if not checked[1] <= checked[0] <= checked[2]:
            raise ValidationError(f"interval [{ci_low}, {ci_high}] does not bracket rr={rr}")
        self._set_fields((label, *checked))


class BackCalcResult(NamedTuple):
    """Log-scale summary recovered from an :class:`EffectEstimate`.

    Attributes
    ----------
    log_effect : float
        Natural log of the risk ratio.
    se : float
        Standard error of ``log_effect`` implied by the interval width.
    z : float
        Test statistic ``log_effect / se``.
    p : float
        Two-sided p-value, clamped to (``P_FLOOR``, 1].
    """

    log_effect: float
    se: float
    z: float
    p: float


def p_from_estimate(estimate: EffectEstimate) -> BackCalcResult:
    """Back-calculate the two-sided p-value implied by a risk ratio and CI.

    On the log scale the interval is ``log_effect +- z_crit(level) * se``,
    so ``se = (ln ci_high - ln ci_low) / (2 * z_crit(level))`` and the
    two-sided p-value is ``2 * (1 - Phi(|z|))``.

    Parameters
    ----------
    estimate : EffectEstimate
        Validated risk ratio with a non-degenerate interval.

    Returns
    -------
    BackCalcResult

    Raises
    ------
    DegenerateIntervalError
        If the interval has zero width on the log scale (``ci_low == ci_high``, or
        bounds whose logs round alike), or if the level is so small that
        ``z_crit(level)`` rounds to 0: no standard error is recoverable.
    """
    width = math.log(estimate.ci_high) - math.log(estimate.ci_low)
    crit = z_crit(estimate.level)
    if width == 0.0:
        raise DegenerateIntervalError(
            f"{estimate.label}: interval has zero width, cannot recover a standard error"
        )
    if crit == 0.0:
        raise DegenerateIntervalError(
            f"{estimate.label}: level {estimate.level!r} has a critical value of 0, "
            "cannot recover a standard error"
        )
    log_effect = math.log(estimate.rr)
    se = width / (2.0 * crit)
    z = log_effect / se
    # 2 * Phi(-|z|) equals 2 * (1 - Phi(|z|)) but keeps tail accuracy.
    p = 2.0 * normal_cdf(-abs(z))
    p = min(1.0, max(p, P_FLOOR))
    return BackCalcResult(log_effect=log_effect, se=se, z=z, p=p)
