"""Self-contained statistical kernels: entropy, Spearman correlation, OLS.

Everything here is pure stdlib so that CSV outputs are bit-stable across
platforms. The Student-t tail needed for p-values is evaluated through the
regularized incomplete beta function (continued-fraction form); the test
suite cross-checks it against scipy.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, NamedTuple, Sequence

from .errors import DegenerateInput, EmptyDistribution, NonPositiveX


class Distribution:
    """Categorical distribution over integer metric values, with raw counts."""

    __slots__ = ("counts",)

    def __init__(self, counts: Mapping[int, int]) -> None:
        for value, count in counts.items():
            if count < 0:
                raise ValueError(f"negative count {count} for value {value}")
        self.counts = counts
        if self.total <= 0:
            raise EmptyDistribution("distribution has no observations")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def support(self) -> list[int]:
        return sorted(value for value, count in self.counts.items() if count > 0)

    def probabilities(self) -> dict[int, float]:
        total = self.total
        return {value: self.counts[value] / total for value in self.support()}


def entropy(dist: Distribution, base: float = 2.0) -> float:
    """Shannon entropy of ``dist``; base 2 gives bits. Zero counts contribute 0."""
    total = dist.total
    log_base = math.log(base)
    terms = []
    for count in dist.counts.values():
        if count > 0:
            p = count / total
            terms.append(-p * math.log(p) / log_base)
    return math.fsum(terms)


class CorrelationResult(NamedTuple):
    rho: float
    p_value: float
    n: int


class RegressionResult(NamedTuple):
    """Simple OLS fit of y on (1, x) or (1, log x)."""

    slope: float
    intercept: float
    se_slope: float
    se_intercept: float
    p_slope: float
    p_intercept: float
    adj_r2: float
    n: int
    model_form: str  # "linear" | "log-linear"

    def model_string(self) -> str:
        x_label = "x" if self.model_form == "linear" else "log(x)"
        sign = "+" if self.intercept >= 0 else "-"
        return f"y = {self.slope:.4f}{x_label} {sign} {abs(self.intercept):.4f}"


def significance_stars(p: float) -> str:
    """Star convention used in the rendered tables: *** p<0.05, ** 0.05<=p<0.1."""
    if p < 0.05:
        return "***"
    if p < 0.1:
        return "**"
    return ""


# --- Student-t tail via the regularized incomplete beta --------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # the even and then the odd coefficient of step m, each taken by one Lentz update
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < fpmin:
                d = fpmin
            c = 1.0 + aa / c
            if abs(c) < fpmin:
                c = fpmin
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value of a t statistic with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


# --- Spearman rank correlation ---------------------------------------------


def _doubled_midranks(counts: Mapping[float, int]) -> dict[float, int]:
    """Twice the midrank of each value counted: ranks start at 1 and tied values share their average."""
    ranks = {}
    below = 0
    for value in sorted(counts):
        count = counts[value]
        ranks[value] = 2 * below + count + 1
        below += count
    return ranks


def spearman_from_counts(pairs: Mapping[tuple[float, float], int]) -> CorrelationResult:
    """Spearman correlation, with mid-ranks for ties, of pairs (x, y) each taken as often as it is counted.

    A doubled midrank less n + 1 is an integer, so the co-moment and the two
    squared sums of the ranks are exact integers, four times the Pearson
    sums; each becomes a float in one correctly rounded division by 4. The
    p-value comes from the t approximation (two-sided, n - 2 degrees of
    freedom).
    """
    n = sum(pairs.values())
    if n < 3:
        raise DegenerateInput(f"need >= 3 observations, got {n}")
    x_counts: dict[float, int] = {}
    y_counts: dict[float, int] = {}
    for (x, y), count in pairs.items():
        x_counts[x] = x_counts.get(x, 0) + count
        y_counts[y] = y_counts.get(y, 0) + count
    rank_x = {x: rank - n - 1 for x, rank in _doubled_midranks(x_counts).items()}
    rank_y = {y: rank - n - 1 for y, rank in _doubled_midranks(y_counts).items()}
    sxy = sum([count * rank_x[x] * rank_y[y] for (x, y), count in pairs.items()]) / 4
    sxx = sum([count * rank_x[x] ** 2 for x, count in x_counts.items()]) / 4
    syy = sum([count * rank_y[y] ** 2 for y, count in y_counts.items()]) / 4
    if sxx <= 0.0 or syy <= 0.0:
        raise DegenerateInput("constant vector: correlation is undefined")
    rho = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))
    if abs(rho) >= 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = t_two_sided_p(t, n - 2)
    return CorrelationResult(rho=rho, p_value=p, n=n)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> CorrelationResult:
    """Spearman correlation of xs and ys, position by position: :func:`spearman_from_counts` of their pairs."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    return spearman_from_counts(Counter(zip(xs, ys)))


# --- ordinary least squares --------------------------------------------------


def ols_fit(
    xs: Sequence[float],
    ys: Sequence[float],
    model_form: str = "linear",
    log_base: float = math.e,
) -> RegressionResult:
    """Fit y = a + b*x (or b*log(x)) by least squares with classical errors.

    Standard errors use the n - 2 degree-of-freedom residual variance;
    p-values are two-sided t tests of a zero coefficient. A fit with zero
    residual (e.g. a constant response) reports zero standard errors, and
    its p-values collapse to 0 for a nonzero coefficient and 1 for a zero
    one.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise DegenerateInput(f"need >= 3 observations, got {n}")
    if model_form == "linear":
        us = [float(x) for x in xs]
    elif model_form == "log-linear":
        if any(x <= 0 for x in xs):
            raise NonPositiveX("log-linear model requires all x > 0")
        log_scale = math.log(log_base)
        us = [math.log(x) / log_scale for x in xs]
    else:
        raise ValueError(f"model_form must be 'linear' or 'log-linear', got {model_form!r}")

    mean_u = math.fsum(us) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((u - mean_u) ** 2 for u in us)
    if sxx <= 0.0:
        raise DegenerateInput("regressor is constant")
    sxy = math.fsum((u - mean_u) * (y - mean_y) for u, y in zip(us, ys))
    syy = math.fsum((y - mean_y) ** 2 for y in ys)

    slope = sxy / sxx
    intercept = mean_y - slope * mean_u
    ssr = max(0.0, math.fsum((y - (intercept + slope * u)) ** 2 for u, y in zip(us, ys)))
    sigma2 = ssr / (n - 2)
    se_slope = math.sqrt(sigma2 / sxx)
    se_intercept = math.sqrt(sigma2 * (1.0 / n + mean_u * mean_u / sxx))
    p_slope = _coefficient_p(slope, se_slope, n - 2)
    p_intercept = _coefficient_p(intercept, se_intercept, n - 2)

    if syy > 0.0:
        r2 = 1.0 - ssr / syy
    else:
        # Constant response reproduced exactly by the fit (slope 0).
        r2 = 1.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
    return RegressionResult(
        slope=slope,
        intercept=intercept,
        se_slope=se_slope,
        se_intercept=se_intercept,
        p_slope=p_slope,
        p_intercept=p_intercept,
        adj_r2=adj_r2,
        n=n,
        model_form=model_form,
    )


def _coefficient_p(coef: float, se: float, df: int) -> float:
    if se == 0.0:
        return 0.0 if coef != 0.0 else 1.0
    return t_two_sided_p(coef / se, df)
