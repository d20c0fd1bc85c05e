"""Tests for Fréchet covariance/correlation and the moment machinery."""

import math

import numpy as np
import pytest

from metricmanova.errors import DataError, DegenerateDataError
from metricmanova.estimators import (
    covariance_matrix,
    frechet_correlation,
    frechet_covariance,
    moment_set,
)
from metricmanova.rng import derive_rng, spawn_seed
from metricmanova.samples import GroupedMultiSample, distance_profile
from metricmanova.simulation import sample_bivariate_normal
from metricmanova.spaces import euclidean_space, gaussian_space


class TestFrechetCovariance:
    def test_zero_column(self):
        ds = np.array([1.0, 2.0, 3.0])
        zeros = np.zeros(3)
        assert frechet_covariance(ds, zeros, "noncentered") == 0.0
        assert frechet_covariance(ds, zeros, "centered") == 0.0

    def test_diagonal_case_equals_variance(self):
        ds = np.array([1.0, 2.0, 0.5])
        assert frechet_covariance(ds, ds, "noncentered") == pytest.approx(
            np.mean(ds**2)
        )

    def test_hand_values(self):
        ds = np.array([1.0, 2.0])
        ds2 = np.array([2.0, 1.0])
        assert frechet_covariance(ds, ds2, "noncentered") == pytest.approx(2.0)
        assert frechet_covariance(ds, ds2, "centered") == pytest.approx(-0.25)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(41)
        a, b = rng.uniform(0, 3, 20), rng.uniform(0, 3, 20)
        for flavor in ("noncentered", "centered"):
            assert frechet_covariance(a, b, flavor) == frechet_covariance(b, a, flavor)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            frechet_covariance(np.ones(3), np.ones(4))


class TestFrechetCorrelation:
    def test_identical_columns(self):
        ds = np.array([1.0, 2.0, 3.0])
        assert frechet_correlation(ds, ds, "noncentered") == pytest.approx(1.0)
        assert frechet_correlation(ds, ds, "centered") == pytest.approx(1.0)

    def test_anti_linear_centered(self):
        ds = np.array([1.0, 2.0, 3.0])
        ds2 = np.array([3.0, 2.0, 1.0])  # perfectly anti-linear about the means
        assert frechet_correlation(ds, ds2, "centered") == pytest.approx(-1.0)

    def test_bounds(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            a, b = rng.uniform(0, 5, 15), rng.uniform(0, 5, 15)
            assert 0.0 <= frechet_correlation(a, b, "noncentered") <= 1.0 + 1e-12
            assert -1.0 - 1e-12 <= frechet_correlation(a, b, "centered") <= 1.0 + 1e-12

    def test_degenerate_column_raises(self):
        with pytest.raises(DegenerateDataError):
            frechet_correlation(np.zeros(3), np.array([1.0, 2.0, 3.0]), "noncentered")
        with pytest.raises(DegenerateDataError):
            frechet_correlation(np.ones(3), np.array([1.0, 2.0, 3.0]), "centered")

    def test_linear_noisy_relationship_signs(self):
        # two 1-D uniform spaces with X2 tracking X1: both correlations are
        # strongly positive, the centered one near +1
        rng = np.random.default_rng(43)
        x1 = rng.uniform(0, 1, 400)
        x2 = x1 + rng.uniform(-0.02, 0.02, 400)
        ms = GroupedMultiSample(
            [
                euclidean_space("X1", x1[:, None], norm="L1"),
                euclidean_space("X2", x2[:, None], norm="L1"),
            ],
            np.zeros(400, dtype=int),
        )
        prof = distance_profile(ms, "per-group").values
        rho_nc = frechet_correlation(prof[:, 0], prof[:, 1], "noncentered")
        rho_c = frechet_correlation(prof[:, 0], prof[:, 1], "centered")
        assert rho_nc > 0.9
        assert rho_c > 0.95


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowingColumns:
    # squares of 1e200 overflow; at 1e100 only the product of the two
    # variances does, which used to read the correlation as 0.0
    X = np.array([1e200, 1.0, 2.0])
    Y = np.array([1e200, 2.0, 1.0])

    @pytest.mark.parametrize("flavor", ["noncentered", "centered"])
    def test_correlation_raises_degenerate(self, flavor):
        for scale in (1.0, 1e-100):
            with pytest.raises(DegenerateDataError, match="overflow"):
                frechet_correlation(scale * self.X, scale * self.Y, flavor)

    def test_covariance_is_inf(self):
        assert frechet_covariance(self.X, self.Y, "noncentered") == math.inf
        assert frechet_covariance(self.X, self.Y, "centered") == math.inf

    def test_covariance_matrix_raises_data_error(self):
        with pytest.raises(DataError, match="non-finite matrix entry"):
            covariance_matrix(np.column_stack([self.X, self.Y]))


class TestCovarianceMatrix:
    def test_zero_profile(self):
        m = covariance_matrix(np.zeros((5, 3)))
        assert np.allclose(m.entries, 0.0)

    def test_rank_one_single_observation(self):
        d = np.array([[1.0, 2.0]])
        m = covariance_matrix(d)
        assert np.allclose(m.entries, np.outer(d[0], d[0]))
        assert m.eigenvalues[0] == pytest.approx(5.0)
        assert m.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)

    def test_two_unit_rows(self):
        m = covariance_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(m.entries, 0.5 * np.eye(2))

    def test_diagonal_equals_frechet_variances(self):
        rng = np.random.default_rng(44)
        prof = rng.uniform(0, 2, size=(30, 4))
        m = covariance_matrix(prof)
        assert np.allclose(np.diag(m.entries), np.mean(prof**2, axis=0))

    def test_psd_on_random_profiles(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            S = int(rng.integers(1, 7))
            prof = rng.uniform(0, 3, size=(n, S))
            m = covariance_matrix(prof)
            assert m.eigenvalues[-1] >= -1e-10
            if n >= S and np.linalg.matrix_rank(prof) == S:
                assert m.eigenvalues[-1] > 0


class TestMomentSet:
    def _two_group_sample(self, rng, n1=12, n2=15):
        a = rng.normal(size=n1 + n2)
        b = rng.normal(size=(n1 + n2, 2))
        labels = np.array([1] * n1 + [2] * n2)
        return GroupedMultiSample(
            [
                gaussian_space("g", np.column_stack([a, np.ones_like(a)])),
                euclidean_space("e", b),
            ],
            labels,
        )

    def test_counts_and_sizes(self):
        m = moment_set(self._two_group_sample(np.random.default_rng(45)))
        assert m.counts.dtype == np.int64
        assert m.counts.tolist() == [12, 15]
        assert (m.n_groups, m.n_spaces) == (2, 2)

    def test_single_group(self):
        rng = np.random.default_rng(46)
        x = rng.normal(size=(10, 2))
        ms = GroupedMultiSample([euclidean_space("e", x)], np.zeros(10, dtype=int))
        m = moment_set(ms)
        assert np.allclose(m.weighted_cov, m.group_cov[0])
        assert np.allclose(m.pooled_cov, m.group_cov[0])

    def test_two_identical_groups(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(8, 2))
        doubled = np.vstack([x, x])
        labels = np.array([1] * 8 + [2] * 8)
        ms = GroupedMultiSample([euclidean_space("e", doubled)], labels)
        m = moment_set(ms)
        assert np.array_equal(m.group_cov[0], m.group_cov[1])
        assert np.allclose(m.weighted_cov, m.group_cov[0])
        assert np.allclose(m.pooled_cov, m.weighted_cov)

    def test_weighted_cov_is_exact_mixture(self):
        rng = np.random.default_rng(48)
        ms = self._two_group_sample(rng)
        m = moment_set(ms)
        expected = m.gammas[0] * m.group_cov[0] + m.gammas[1] * m.group_cov[1]
        assert np.array_equal(m.weighted_cov, expected)

    def test_moment_variance_hand_value(self):
        # distances to the mean of {-3,-1,1,3} are {3,1,1,3}:
        # fourth moment 41 minus squared second moment 25 gives 16
        x = np.array([[-3.0], [-1.0], [1.0], [3.0]])
        ms = GroupedMultiSample([euclidean_space("e", x)], np.zeros(4, dtype=int))
        m = moment_set(ms)
        assert m.moment_var[0, 0, 0] == pytest.approx(16.0)

    def test_correlation_matrix_structure(self):
        rng = np.random.default_rng(49)
        ms = self._two_group_sample(rng)
        m = moment_set(ms)
        for j in range(2):
            assert np.allclose(np.diag(m.group_cor[j]), 1.0)
            off = m.group_cor[j][0, 1]
            assert -1.0 <= off <= 1.0
            assert m.group_cor[j][0, 1] == m.group_cor[j][1, 0]

    def test_degenerate_group_raises(self):
        x = np.array([[0.0], [2.0], [0.0], [6.0]])  # 2-point groups, exact means:
        labels = np.array([1, 1, 2, 2])  # every distance pair is equidistant
        ms = GroupedMultiSample([euclidean_space("e", x)], labels)
        with pytest.raises(DegenerateDataError):
            moment_set(ms)

    def test_group_means_recorded(self):
        rng = np.random.default_rng(50)
        ms = self._two_group_sample(rng)
        m = moment_set(ms)
        assert len(m.group_means) == 2
        assert len(m.group_means[0]) == 2
        assert m.group_means[0][0].solver == "exact"

    def test_label_equivariance(self):
        rng = np.random.default_rng(51)
        ms = self._two_group_sample(rng, n1=10, n2=10)
        m1 = moment_set(ms)
        swapped = ms.with_labels(np.where(np.asarray(ms.labels) == 1, 2, 1))
        m2 = moment_set(swapped)
        assert np.allclose(m1.group_cov[0], m2.group_cov[1])
        assert np.allclose(m1.group_cov[1], m2.group_cov[0])
        assert np.allclose(m1.weighted_cov, m2.weighted_cov)


class TestRootNConsistency:
    """The sample Fréchet covariance and correlation converge at the sqrt(n) rate.

    Two Gaussian-W2 spaces with sd 1 and locations (a, b) ~ N(0, diag(0.5^2,
    0.2^2)) with correlation rho: the distances to the pooled means are
    |a - mean(a)| and |b - mean(b)|, whose population Fréchet covariance is
    s1*s2*(2/pi)*(sqrt(1 - rho^2) + rho*arcsin(rho)) and whose non-centred
    correlation is the same without s1*s2 (Nabeya 1951, Ann. Inst. Stat.
    Math. 3:2-6).  sqrt(n) times the RMS error over 10 seeds must stay
    bounded at every n: a biased or slower-than-sqrt(n) estimator grows
    with n.

    The bounds: over 300 seeds at n = 2000, sqrt(n) times the RMS error is
    0.077 (rho = 0) and 0.114 (rho = 0.7) for the covariance, 0.46 and 0.32
    for the correlation.  A 10-seed RMS exceeds 1.72 times its limit with
    probability 0.001 (chi-square, 10 df), so the bounds are 0.2 and 0.8.
    These seeds give 0.09-0.15 and 0.22-0.69.  A bias of 0.003 in the
    covariance alone would add 0.19 at n = 4000.
    """

    @pytest.mark.parametrize("rho", [0.0, 0.7])
    def test_covariance_and_correlation(self, rho):
        cor = (2 / math.pi) * (math.sqrt(1 - rho * rho) + rho * math.asin(rho))
        cov = 0.5 * 0.2 * cor
        for n in (250, 1000, 4000):
            cov_err, cor_err = [], []
            for k in range(10):
                rng = derive_rng(spawn_seed(905, n, k))
                a, b = sample_bivariate_normal((0, 0), (0.5, 0.2), rho, n, rng)
                ones = np.ones(n)
                ms = GroupedMultiSample(
                    [gaussian_space("a", np.column_stack([a, ones])),
                     gaussian_space("b", np.column_stack([b, ones]))],
                    np.zeros(n, dtype=int),
                )
                P = moment_set(ms).pooled_cov
                cov_err.append(P[0, 1] - cov)
                cor_err.append(P[0, 1] / math.sqrt(P[0, 0] * P[1, 1]) - cor)
            assert math.sqrt(n * np.mean(np.square(cov_err))) < 0.2, n
            assert math.sqrt(n * np.mean(np.square(cor_err))) < 0.8, n
