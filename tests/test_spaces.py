"""Tests for the concrete metric spaces and their invariants."""

import numpy as np
import pytest

from metricmanova.dataset import dumps_msd, loads_msd
from metricmanova.errors import DataError
from metricmanova.inference import TEST_NAMES, run_tests
from metricmanova.samples import GroupedMultiSample, frechet_mean
from metricmanova.spaces import (
    EuclideanPoint,
    GaussianPoint,
    LaplacianMatrix,
    distance_matrix_space,
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

    def test_tolerance_scales_with_the_largest_entry(self):
        # integer weights up to 2e7 and exactly zero row sums: the centroid's
        # row sums are rounding-sized (about 7e-9), far above 1e-10 absolute
        rng = np.random.default_rng(0)
        w = np.triu(rng.integers(0, 2 * 10**7, size=(46, 6, 6)).astype(float), 1)
        w += w.transpose(0, 2, 1)
        laps = -w
        diag = np.arange(6)
        laps[:, diag, diag] = w.sum(axis=2)
        assert np.all(laps.sum(axis=2) == 0.0)
        space = laplacian_space("L", laps)
        centroid = frechet_mean(space).mean.entries
        assert np.max(np.abs(centroid.sum(axis=1))) > 1.0e-10
        ms = GroupedMultiSample([space], np.arange(46) % 2)
        reports = run_tests(TEST_NAMES, ms, B=20, seed=1)
        assert [r.test_name for r in reports] == list(TEST_NAMES)
        # row sums off by 1e-6 of the largest entry are still rejected
        laps[:, diag, diag] += 1.0e-6 * np.max(np.abs(laps))
        with pytest.raises(DataError, match="row sums"):
            laplacian_space("L", laps)


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


def every_kind(n: int = 7) -> dict:
    """One small space of each registered kind, keyed by a readable name."""
    rng = np.random.default_rng(31)
    w = rng.uniform(0.1, 2.0, size=(n, 3, 3))
    w = np.triu(w, 1) + np.triu(w, 1).transpose(0, 2, 1)  # symmetric edge weights
    laplacians = -w
    laplacians[:, np.arange(3), np.arange(3)] = w.sum(axis=2)
    pts = rng.normal(size=(n, 2))
    return {
        "gaussian": gaussian_space(
            "g", np.column_stack([rng.normal(size=n), rng.uniform(0.5, 2.0, n)])
        ),
        "euclidean-l2": euclidean_space("e2", rng.normal(size=(n, 3))),
        "l1-k1": euclidean_space("l1", rng.normal(size=(n, 1)), norm="L1"),
        "l1-k3": euclidean_space("l3", rng.normal(size=(n, 3)), norm="L1"),
        "laplacian": laplacian_space("lap", laplacians),
        "distances": distance_matrix_space(
            "d", np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
        ),
    }


KINDS = sorted(every_kind())


class TestOneSpaceModel:
    @pytest.mark.parametrize("kind", KINDS)
    def test_points_and_distances_agree_with_pairwise(self, kind):
        space = every_kind()[kind]
        D = space.pairwise()
        for i in range(space.n):
            np.testing.assert_allclose(
                space.distances_to(space.point(i)), D[:, i], rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_coords_round_trip_through_msd(self, kind):
        space = every_kind()[kind]
        labels = [1, 1, 1, 2, 2, 2, 2]
        back = loads_msd(dumps_msd(GroupedMultiSample([space], labels))).spaces[0]
        assert back.kind == space.kind
        if kind == "distances":
            assert back.coords is None
            assert np.array_equal(back.pairwise(), space.pairwise())
        else:
            assert back.coords.tobytes() == space.coords.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_representation_decides_the_mean(self, kind):
        space = every_kind()[kind]
        medoid = kind in ("l1-k3", "distances")
        assert (space.embedding is None) == medoid
        assert frechet_mean(space).solver == ("medoid" if medoid else "exact")
        if space.coords is not None:
            assert not space.coords.flags.writeable
            if not medoid:
                assert space.embedding is space.coords
