"""Tests for the concrete metric spaces and their invariants."""

import numpy as np
import pytest

from metricmanova.errors import DataError
from metricmanova.samples import frechet_mean
from metricmanova.spaces import (
    EuclideanPoint,
    GaussianPoint,
    LaplacianMatrix,
    euclidean_distance,
    euclidean_space,
    frobenius_distance,
    gaussian_space,
    laplacian_from_edges,
    laplacian_space,
    w2_gaussian,
)


class TestGaussianW2:
    def test_unit_variance_pair(self):
        assert w2_gaussian(GaussianPoint(0, 1), GaussianPoint(1, 1)) == 1.0

    def test_identical_points(self):
        p = GaussianPoint(2.5, 0.7)
        assert w2_gaussian(p, p) == 0.0

    def test_location_scale_pair(self):
        assert w2_gaussian(GaussianPoint(0, 1), GaussianPoint(3, 5)) == pytest.approx(5.0)

    def test_equal_sigma_reduces_to_euclidean_on_mu(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mu1, mu2 = rng.normal(size=2)
            sigma = float(rng.uniform(0.1, 3.0))
            d_w2 = w2_gaussian(GaussianPoint(mu1, sigma), GaussianPoint(mu2, sigma))
            d_l2 = euclidean_distance(
                EuclideanPoint([mu1]), EuclideanPoint([mu2]), norm="L2"
            )
            assert d_w2 == pytest.approx(d_l2, abs=1e-15)

    def test_sigma_validation(self):
        with pytest.raises(DataError):
            GaussianPoint(0.0, 0.0)
        with pytest.raises(DataError):
            GaussianPoint(np.inf, 1.0)


class TestEuclidean:
    def test_pythagorean(self):
        x, y = EuclideanPoint([0, 0]), EuclideanPoint([3, 4])
        assert euclidean_distance(x, y, "L2") == 5.0
        assert euclidean_distance(x, y, "L1") == 7.0
        assert euclidean_distance(x, x, "L2") == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance(EuclideanPoint([1]), EuclideanPoint([1, 2]))

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            euclidean_distance(EuclideanPoint([1]), EuclideanPoint([2]), norm="L3")


class TestLaplacian:
    def test_path_graph_vs_empty(self):
        p2 = laplacian_from_edges(2, [(0, 1)])
        empty = LaplacianMatrix(np.zeros((2, 2)))
        assert np.array_equal(p2.entries, [[1.0, -1.0], [-1.0, 1.0]])
        assert frobenius_distance(p2, empty) == 2.0
        assert frobenius_distance(p2, p2) == 0.0

    def test_three_node_examples(self):
        assert np.array_equal(laplacian_from_edges(3, []).entries, np.zeros((3, 3)))
        path = laplacian_from_edges(3, [(0, 1), (1, 2)])
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        expected = np.diag([1.0, 2.0, 1.0]) - adj
        assert np.array_equal(path.entries, expected)

    def test_loop_and_duplicate_rejected(self):
        with pytest.raises(DataError):
            laplacian_from_edges(3, [(1, 1)])
        with pytest.raises(DataError):
            laplacian_from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(DataError):
            laplacian_from_edges(3, [(0, 5)])

    def test_invalid_matrix_rejected(self):
        with pytest.raises(DataError):
            LaplacianMatrix([[1.0, -0.5], [-0.5, 0.5]])  # row sums not zero
        with pytest.raises(DataError):
            LaplacianMatrix([[1.0, 1.0], [1.0, 1.0]])  # positive off-diagonal
        with pytest.raises(DataError):
            LaplacianMatrix([[1.0, -1.0], [-0.5, 0.5]])  # asymmetric

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_distance(
                laplacian_from_edges(2, [(0, 1)]), laplacian_from_edges(3, [])
            )

    def test_mean_of_laplacians_is_valid(self):
        rng = np.random.default_rng(5)
        laps = []
        for _ in range(20):
            edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.4]
            laps.append(laplacian_from_edges(6, edges))
        space = laplacian_space("L", laps)
        result = frechet_mean(space)
        LaplacianMatrix(result.mean.entries)  # would raise if invariants broke
        assert result.solver == "exact"


def _random_metric_triples(rng, make_point, distance, n=100, tri_slack=1e-12):
    for _ in range(n):
        a, b, c = make_point(rng), make_point(rng), make_point(rng)
        assert distance(a, b) == distance(b, a)
        assert distance(a, a) == 0.0
        assert distance(a, b) <= distance(a, c) + distance(c, b) + tri_slack


class TestMetricAxioms:
    def test_w2_gaussian(self):
        rng = np.random.default_rng(101)
        _random_metric_triples(
            rng,
            lambda r: GaussianPoint(r.normal(), r.uniform(0.1, 4.0)),
            w2_gaussian,
        )

    def test_euclidean_l1_l2(self):
        rng = np.random.default_rng(102)
        for norm in ("L1", "L2"):
            _random_metric_triples(
                rng,
                lambda r: EuclideanPoint(r.normal(size=4)),
                lambda x, y: euclidean_distance(x, y, norm=norm),
            )

    def test_frobenius(self):
        rng = np.random.default_rng(103)

        def rand_lap(r):
            edges = [(i, j) for i in range(5) for j in range(i + 1, 5) if r.random() < 0.5]
            return laplacian_from_edges(5, edges)

        _random_metric_triples(rng, rand_lap, frobenius_distance)


class TestExactMeanSolvers:
    def test_gaussian_mean_is_componentwise(self):
        pts = [GaussianPoint(0.0, 1.0), GaussianPoint(2.0, 3.0)]
        res = frechet_mean(gaussian_space("g", pts))
        assert res.solver == "exact"
        assert res.mean.mu == pytest.approx(1.0)
        assert res.mean.sigma == pytest.approx(2.0)

    def test_euclidean_l1_1d_mean_is_arithmetic(self):
        res = frechet_mean(euclidean_space("e", np.array([[1.0], [2.0], [3.0]]), norm="L1"))
        assert res.solver == "exact"
        assert res.mean.coords[0] == pytest.approx(2.0)

    def test_euclidean_l1_multidim_uses_medoid(self):
        space = euclidean_space("e", np.array([[0.0, 0.0], [1.0, 2.0], [5.0, 5.0]]), norm="L1")
        assert not space.has_exact_mean
        res = frechet_mean(space)
        assert res.solver == "medoid"
        assert res.index == 1
        assert np.array_equal(space.distances_to(space.point(2)), space.pairwise()[:, 2])
