"""Tests for the chi-square / F tail and quantile numerics."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from metricmanova.distributions import (
    betainc,
    chi2_cdf,
    chi2_sf,
    chi2_upper_quantile,
    f_cdf,
    f_sf,
    f_upper_quantile,
    gammainc_lower,
    gammainc_upper,
)


def chi2_pdf(x, df):
    h = df / 2.0
    return math.exp((h - 1.0) * math.log(x) - x / 2.0 - math.lgamma(h) - h * math.log(2.0))


def f_pdf(x, d1, d2):
    a, b = d1 / 2.0, d2 / 2.0
    ln = (
        a * math.log(d1 / d2)
        + (a - 1.0) * math.log(x)
        - (a + b) * math.log(1.0 + d1 * x / d2)
        + math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
    )
    return math.exp(ln)


class TestChiSquare:
    def test_quantile_df1_reference(self):
        assert chi2_upper_quantile(1, 0.05) == pytest.approx(3.841459, abs=1e-6)

    def test_quantile_df2_closed_form(self):
        # for df=2 the upper quantile is exactly -2 log(p)
        for p in (0.2, 0.05, 0.01, 0.001):
            assert chi2_upper_quantile(2, p) == pytest.approx(-2.0 * math.log(p), rel=1e-12)

    def test_quantile_monotone_in_p(self):
        qs = [chi2_upper_quantile(3, p) for p in (0.5, 0.2, 0.05, 0.01, 0.001)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_sf_matches_scipy(self):
        for df in range(1, 11):
            for x in (0.1, 0.7, 1.0, 2.5, float(df), 3.0 * df + 5.0):
                assert chi2_sf(x, df) == pytest.approx(
                    scipy.stats.chi2.sf(x, df), rel=1e-12, abs=1e-15
                )
                assert chi2_cdf(x, df) == pytest.approx(
                    scipy.stats.chi2.cdf(x, df), rel=1e-12, abs=1e-15
                )

    def test_quantile_inverts_sf(self):
        for df in (1, 2, 5, 10):
            for p in (0.2, 0.05, 0.01, 0.001):
                q = chi2_upper_quantile(df, p)
                assert chi2_sf(q, df) == pytest.approx(p, rel=1e-9)

    def test_tail_against_quadrature(self):
        q = chi2_upper_quantile(4, 0.05)
        tail, err = scipy.integrate.quad(chi2_pdf, q, np.inf, args=(4,))
        assert abs(tail - 0.05) < 1e-10

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            chi2_upper_quantile(0, 0.05)
        with pytest.raises(ValueError):
            chi2_upper_quantile(3, 0.0)
        with pytest.raises(ValueError):
            chi2_upper_quantile(3, 1.0)
        with pytest.raises(ValueError):
            chi2_sf(1.0, -1)


class TestFDistribution:
    def test_sf_matches_scipy(self):
        for d1 in (1, 2, 3, 7, 10):
            for d2 in (1, 4, 9, 40, 200):
                for x in (0.2, 1.0, 2.5, 8.0):
                    assert f_sf(x, d1, d2) == pytest.approx(
                        scipy.stats.f.sf(x, d1, d2), rel=1e-11, abs=1e-15
                    )
                    assert f_cdf(x, d1, d2) == pytest.approx(
                        scipy.stats.f.cdf(x, d1, d2), rel=1e-11, abs=1e-15
                    )

    def test_quantile_inverts_sf(self):
        for d1, d2 in ((1, 5), (3, 12), (6, 30)):
            for p in (0.2, 0.05, 0.01, 0.001):
                q = f_upper_quantile(d1, d2, p)
                assert f_sf(q, d1, d2) == pytest.approx(p, rel=1e-9)

    def test_tail_against_quadrature(self):
        q = f_upper_quantile(3, 12, 0.01)
        tail, err = scipy.integrate.quad(f_pdf, q, np.inf, args=(3, 12))
        assert abs(tail - 0.01) < 1e-10


class TestDegreesOfFreedom:
    CALLS = (
        ("chi2_sf", lambda k: chi2_sf(3.0, k)),
        ("chi2_cdf", lambda k: chi2_cdf(3.0, k)),
        ("chi2_upper_quantile", lambda k: chi2_upper_quantile(k, 0.05)),
        ("f_sf", lambda k: f_sf(1.5, k, 7)),
        ("f_sf df2", lambda k: f_sf(1.5, 3, k)),
        ("f_cdf", lambda k: f_cdf(1.5, k, k)),
        ("f_upper_quantile", lambda k: f_upper_quantile(k, k + 5, 0.05)),
    )

    @pytest.mark.parametrize("name,call", CALLS, ids=[name for name, _ in CALLS])
    def test_numpy_integers_give_the_int_value(self, name, call):
        for k in (1, 2, 5):
            want = call(k)
            for np_k in (np.int64(k), np.int32(k), np.uint8(k)):
                got = call(np_k)
                assert type(got) is float
                assert got == want

    @pytest.mark.parametrize("name,call", CALLS, ids=[name for name, _ in CALLS])
    def test_bools_and_floats_raise(self, name, call):
        for bad in (True, np.bool_(True), 2.0, np.float64(2.0), 0, np.int64(-1)):
            with pytest.raises(ValueError, match="positive integer"):
                call(bad)


class TestIncompleteFunctions:
    def test_gamma_complementarity(self):
        for a in (0.5, 1.0, 3.7, 20.0):
            for x in (0.01, 0.5, a, 3.0 * a):
                assert gammainc_lower(a, x) + gammainc_upper(a, x) == pytest.approx(1.0, abs=1e-14)

    def test_beta_limits_and_symmetry(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0
        for a, b, x in ((2.0, 3.0, 0.3), (0.5, 0.5, 0.7), (8.0, 1.5, 0.9)):
            assert betainc(a, b, x) == pytest.approx(1.0 - betainc(b, a, 1.0 - x), abs=1e-13)
            assert betainc(a, b, x) == pytest.approx(
                scipy.stats.beta.cdf(x, a, b), rel=1e-12, abs=1e-15
            )
