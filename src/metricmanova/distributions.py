"""Chi-square and F tail probabilities and upper quantiles.

The tails are evaluated through the regularized incomplete gamma and beta
functions (power series and continued fractions, double precision), and the
quantiles by bracketed bisection on the tail functions.  Accuracy is far
better than the 1e-9 the test statistics require; the test suite checks the
tails against adaptive numeric integration of the densities.
"""

from __future__ import annotations

import math

_EPS = 1.0e-16
_FPMIN = 1.0e-300
_MAX_ITER = 600


def _gamma_series(a: float, x: float) -> float:
    # lower regularized incomplete gamma by series, valid for x < a + 1
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_contfrac(a: float, x: float) -> float:
    # upper regularized incomplete gamma by continued fraction (Lentz),
    # valid for x >= a + 1
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gammainc_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x)."""
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_contfrac(a, x)


def gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x)."""
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_contfrac(a, x)


def _beta_contfrac(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got ({a}, {b})")
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
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def _check_df(df: int, name: str) -> int:
    if not isinstance(df, (int,)) or isinstance(df, bool) or df < 1:
        raise ValueError(f"{name} must be a positive integer, got {df!r}")
    return df


def _check_prob(p: float) -> float:
    p = float(p)
    if not (0.0 < p < 1.0) or math.isnan(p):
        raise ValueError(f"tail probability must lie in (0, 1), got {p}")
    return p


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(chi2_df > x)."""
    _check_df(df, "df")
    if x <= 0.0:
        return 1.0
    return gammainc_upper(df / 2.0, x / 2.0)


def chi2_cdf(x: float, df: int) -> float:
    _check_df(df, "df")
    if x <= 0.0:
        return 0.0
    return gammainc_lower(df / 2.0, x / 2.0)


def _upper_quantile(sf, hi: float, p: float, what: str) -> float:
    """The q with sf(q) = p for a decreasing tail ``sf``: double ``hi`` until
    it brackets q, then bisect to a relative width of 1e-14."""
    lo = 0.0
    while sf(hi) > p:
        lo = hi
        hi *= 2.0
        if hi > 1.0e300:
            raise ValueError(f"quantile bracket overflow for {what}, p={p}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sf(mid) > p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1.0e-14 * hi:
            break
    return 0.5 * (lo + hi)


def chi2_upper_quantile(df: int, p: float) -> float:
    """The value q with P(chi2_df > q) = p."""
    _check_df(df, "df")
    _check_prob(p)
    return _upper_quantile(lambda x: chi2_sf(x, df), max(float(df), 1.0), p, f"df={df}")


def f_sf(x: float, df1: int, df2: int) -> float:
    """Upper tail P(F_{df1,df2} > x)."""
    _check_df(df1, "df1")
    _check_df(df2, "df2")
    if x <= 0.0:
        return 1.0
    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * x))


def f_cdf(x: float, df1: int, df2: int) -> float:
    _check_df(df1, "df1")
    _check_df(df2, "df2")
    if x <= 0.0:
        return 0.0
    return betainc(df1 / 2.0, df2 / 2.0, df1 * x / (df1 * x + df2))


def f_upper_quantile(df1: int, df2: int, p: float) -> float:
    """The value q with P(F_{df1,df2} > q) = p."""
    _check_df(df1, "df1")
    _check_df(df2, "df2")
    _check_prob(p)
    return _upper_quantile(lambda x: f_sf(x, df1, df2), 1.0, p, f"df=({df1},{df2})")
