"""Tests for sample containers and Fréchet mean / variance / profiles."""

import numpy as np
import pytest

from metricmanova import engine, samples
from metricmanova.engine import StatEngine
from metricmanova.errors import DataError
from metricmanova.estimators import moment_set
from metricmanova.rng import permuted_labels
from metricmanova.samples import (
    DistanceProfile,
    GroupedMultiSample,
    SpaceSample,
    _clipped_squares,
    _gemm_rows,
    _medoid_sums,
    _medoids,
    distance_profile,
    frechet_mean,
    frechet_variance,
)
from metricmanova.spaces import (
    GaussianPoint,
    custom_space,
    distance_matrix_space,
    euclidean_space,
    gaussian_space,
)

from oracles import (
    oracle_group_profiles,
    oracle_mask_einsums,
    oracle_medoid,
    oracle_medoid_in_order,
    oracle_moment_stack,
)


def brute_force_medoid(dist, idx):
    """Independent medoid search: argmin of mean squared distance."""
    best, best_obj = None, np.inf
    for cand in idx:
        obj = np.mean(dist[cand, idx] ** 2)
        if obj < best_obj - 1e-15:
            best, best_obj = cand, obj
    return best, best_obj


class TestFrechetMean:
    def test_euclidean_mean_is_arithmetic(self):
        space = euclidean_space("e", np.array([[1.0], [2.0], [3.0]]))
        res = frechet_mean(space)
        assert res.solver == "exact"
        assert res.mean.coords[0] == pytest.approx(2.0)

    def test_identical_points_zero_objective(self):
        space = gaussian_space("g", [GaussianPoint(1.5, 2.0)] * 5)
        res = frechet_mean(space)
        assert res.objective == pytest.approx(0.0, abs=1e-15)
        assert res.mean == GaussianPoint(1.5, 2.0)

    def test_distance_matrix_medoid_middle_point(self):
        dist = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
        space = distance_matrix_space("d", dist)
        res = frechet_mean(space)
        expect_idx, expect_obj = brute_force_medoid(dist, np.arange(3))
        assert res.solver == "medoid"
        assert res.index == expect_idx == 1
        assert res.objective == pytest.approx(expect_obj)
        assert res.objective == pytest.approx((1.0 + 0.0 + 1.0) / 3.0)

    def test_medoid_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            pts = rng.normal(size=(n, 3))
            dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            space = distance_matrix_space("d", dist)
            subset = rng.choice(n, size=max(2, n // 2), replace=False)
            res = frechet_mean(space, subset=subset)
            idx = np.unique(subset)
            expect_idx, expect_obj = brute_force_medoid(dist, idx)
            assert res.index == expect_idx
            assert res.objective == pytest.approx(expect_obj)

    def test_medoid_tie_breaks_to_lowest_index(self):
        dist = np.array([[0.0, 2.0], [2.0, 0.0]])
        res = frechet_mean(distance_matrix_space("d", dist))
        assert res.index == 0

    def test_near_tie_names_one_medoid_on_every_path(self):
        # members 5 and 18 of group 0 both have the decimal group sum 56.15,
        # whose float sums can differ in the last bit with summation order;
        # the tie rule takes the lower index on every path
        rng = np.random.default_rng(1377)
        n = int(rng.integers(6, 61))
        q = np.round(rng.uniform(0.1, 3, size=(n, n)), 1)
        dist = np.triu(q, 1)
        dist = dist + dist.T
        ms = GroupedMultiSample([distance_matrix_space("D", dist)], rng.integers(0, 2, size=n))
        idx = ms.group_indices(0)
        assert n == 43 and {5, 18} <= set(idx)
        sums = np.sum(dist[[5, 18]][:, idx] ** 2, axis=1)
        assert sums == pytest.approx([56.15, 56.15], rel=1e-15)
        assert oracle_medoid(dist, idx) == 5
        assert frechet_mean(ms.spaces[0], idx).index == 5
        assert moment_set(ms).group_means[0][0].index == 5
        prof = StatEngine(ms).group_profiles(ms.codes[None])[0, idx, 0]
        assert np.array_equal(prof, dist[idx, 5])
        assert not np.array_equal(prof, dist[idx, 18])

    def test_exact_objective_never_exceeds_medoid(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            pts = rng.normal(size=(int(rng.integers(3, 15)), 2))
            space = euclidean_space("e", pts)
            exact = frechet_mean(space)
            dist = space.pairwise()
            _, medoid_obj = brute_force_medoid(dist, np.arange(len(pts)))
            assert exact.objective <= medoid_obj + 1e-12

    def test_empty_subset_rejected(self):
        space = euclidean_space("e", np.array([[1.0]]))
        with pytest.raises(ValueError):
            frechet_mean(space, subset=[])

    def test_non_integer_subsets_are_refused(self):
        # a mask true at 7..9 read as indices [0, 1], and [7.9, 8.2] as [7, 8]
        space = euclidean_space("x", np.arange(10.0))
        res = frechet_mean(space)
        for subset in (np.arange(10) >= 7, [7.9, 8.2], np.array([7.0, 8.0])):
            with pytest.raises(ValueError, match="integer indices"):
                frechet_mean(space, subset)
            with pytest.raises(ValueError, match="integer indices"):
                frechet_variance(space, res, subset)
        assert frechet_mean(space, np.array([7, 8, 9], dtype=np.uint8)).mean.coords == (8.0,)

    def test_non_finite_distance_rejected(self):
        with pytest.raises(DataError):
            distance_matrix_space("d", np.array([[0.0, np.inf], [np.inf, 0.0]]))
        space = custom_space("c", [0.0, 1.0], lambda a, b: np.nan)
        with pytest.raises(DataError):
            frechet_mean(space)

    def test_empty_distance_matrix_is_named(self):
        # numpy's "zero-size array to reduction operation maximum" came out here
        with pytest.raises(DataError, match=r"^space 'D': distance matrix is empty, got shape \(0, 0\)$"):
            distance_matrix_space("D", np.zeros((0, 0)))

    def test_tolerances_scale_with_tiny_distances(self):
        # the symmetry and zero-diagonal tolerances are relative to the
        # largest distance, not to max(1, largest distance)
        with pytest.raises(DataError, match="not symmetric"):
            distance_matrix_space("d", np.array([[0.0, 1e-12], [5e-11, 0.0]]))
        with pytest.raises(DataError, match="diagonal"):
            distance_matrix_space("d", np.array([[1e-13, 1e-12], [1e-12, 0.0]]))
        rounded = 1e-12 * np.array([[0.0, 1.0 + 1e-15], [1.0, 0.0]])
        assert distance_matrix_space("d", rounded).pairwise()[0, 1] > 0.0

    def test_custom_exact_solver_used(self):
        space = custom_space(
            "c",
            [0.0, 2.0, 7.0],
            lambda a, b: abs(a - b),
            exact_mean=lambda pts, w: sum(pts) / len(pts),
        )
        res = frechet_mean(space)
        assert res.solver == "exact"
        assert res.mean == pytest.approx(3.0)


class TestCoordinatePairwise:
    def test_far_from_the_origin_matches_direct_differences(self):
        # the Gram expansion |x|^2 + |y|^2 - 2x.y read 0, 2.83 and 0 here
        sp = euclidean_space("E", [[1e8], [1e8 + 1], [1e8 + 3]])
        assert sp.pairwise().tolist() == [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]

    def test_rows_are_the_direct_distances(self):
        x = np.random.default_rng(8).normal(size=(9, 4)) * 1e3 + 5e7
        want = np.sqrt(np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2))
        got = euclidean_space("E", x).pairwise()
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, got.T) and not np.diag(got).any()


_BAD_ROWS = r"coords must be finite \(n, k\) rows, k >= 1"


class TestRepresentationChecks:
    """A SpaceSample checks its own representation, whatever builds it."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coordinate_rows_are_refused(self, bad):
        # an inf row gave frechet_mean objective=nan and run_tests a
        # SingularMatrixError (exit 3) after a RuntimeWarning
        rows = np.random.default_rng(3).normal(size=(6, 2))
        rows[4, 1] = bad
        with pytest.raises(DataError, match=_BAD_ROWS):
            SpaceSample("x", coords=rows)
        for norm in ("L2", "L1"):
            with pytest.raises(DataError, match=_BAD_ROWS):
                euclidean_space("x", rows, norm)
        with pytest.raises(DataError, match=_BAD_ROWS):
            gaussian_space("g", np.c_[rows[:, 1], np.ones(6)])

    @pytest.mark.parametrize("shape", [(6, 0), (6,), (6, 1, 1)])
    def test_coordinates_must_be_rows_with_a_column(self, shape):
        # (6, 0) rows crashed run_tests with an IndexError
        with pytest.raises(DataError, match=_BAD_ROWS):
            SpaceSample("x", coords=np.zeros(shape))

    def test_subnormal_distances_survive(self):
        # halving before mirroring read 5e-324 as 0.0 and 1.5e-323 as 2e-323
        dist = np.array([[0.0, 5e-324, 1.5e-323], [5e-324, 0.0, 1.0], [1.5e-323, 1.0, 0.0]])
        got = distance_matrix_space("D", dist).pairwise()
        assert got.tobytes() == dist.tobytes()

    def test_asymmetric_pairs_take_the_mean_of_their_halves(self):
        dist = np.array([[0.0, 1.0, 3.0], [1.0 + 1e-15, 0.0, 2.0], [3.0, 2.0, 0.0]])
        got = distance_matrix_space("D", dist).pairwise()
        assert got[0, 1] == got[1, 0] == 0.5 * 1.0 + 0.5 * (1.0 + 1e-15)
        assert got[0, 2] == 3.0 and got[1, 2] == 2.0


class TestOverflowingSquares:
    """A valid distance matrix whose squares pass the largest float: the
    medoid rule clips them on purpose, so no RuntimeWarning is raised."""

    @staticmethod
    def _space():
        rng = np.random.default_rng(19)
        upper = np.triu(rng.integers(1, 4, size=(8, 8)).astype(float), 1)
        dist = upper + upper.T
        dist[6, :] *= 1e200
        dist[:, 6] *= 1e200
        return distance_matrix_space("D", dist)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_frechet_mean(self):
        sp = self._space()
        res = frechet_mean(sp)
        assert res.index == oracle_medoid_in_order(_clipped_squares(sp.pairwise()), np.arange(8))
        assert res.index != 6
        assert res.objective == np.inf  # past the largest float
        assert frechet_variance(sp, res) == np.inf
        assert frechet_mean(sp, [0, 1, 2]).objective < np.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stat_engine(self):
        sp = self._space()
        ms = GroupedMultiSample(
            [sp, euclidean_space("E", np.random.default_rng(20).normal(size=(8, 2)))],
            np.arange(8) % 2,
        )
        eng = StatEngine(ms)
        squares = _clipped_squares(sp.pairwise())
        pooled = oracle_medoid_in_order(squares, np.arange(8))
        assert np.array_equal(eng.pooled_profile[:, 0], sp.pairwise()[:, pooled])
        assert eng.pooled_cov[0, 0] == np.inf
        codes = np.stack([permuted_labels(ms.codes, 3, b) for b in range(5)])
        prof = eng.group_profiles(codes)
        for l in range(5):
            for j in range(2):
                idx = np.flatnonzero(codes[l] == j)
                medoid = oracle_medoid_in_order(squares, idx)
                assert np.array_equal(prof[l, idx, 0], sp.pairwise()[idx, medoid])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_distances_past_half_the_largest_float_stay_finite(self):
        # symmetrizing once added two such entries first and read inf
        dist = np.array([[0.0, 1.5e308], [1.5e308, 0.0]])
        assert np.array_equal(distance_matrix_space("D", dist).pairwise(), dist)

    def test_engine_squares_each_distance_matrix_once(self, monkeypatch):
        calls = []

        def counting(dist):
            calls.append(dist.shape)
            return _clipped_squares(dist)

        monkeypatch.setattr(engine, "_clipped_squares", counting)
        monkeypatch.setattr(samples, "_clipped_squares", counting)
        StatEngine(GroupedMultiSample([self._space(), self._space()], np.arange(8) % 2))
        assert calls == [(8, 8), (8, 8)]


class TestFrechetVariance:
    def test_degenerate_sample(self):
        space = gaussian_space("g", [GaussianPoint(0.3, 1.0)] * 4)
        res = frechet_mean(space)
        assert frechet_variance(space, res) == pytest.approx(0.0, abs=1e-15)

    def test_two_point_hand_value(self):
        space = euclidean_space("e", np.array([[0.0], [2.0]]))
        res = frechet_mean(space)
        assert frechet_variance(space, res) == pytest.approx(1.0)

    def test_gaussian_w2_closed_form(self):
        # distances to the mean N(0,1) are |a_i|, so the variance of a = {-1,0,1}
        # about 0 is 2/3
        pts = [GaussianPoint(a, 1.0) for a in (-1.0, 0.0, 1.0)]
        space = gaussian_space("g", pts)
        res = frechet_mean(space)
        assert res.mean.mu == pytest.approx(0.0)
        assert frechet_variance(space, res) == pytest.approx(2.0 / 3.0)

    def test_matches_biased_sample_variance_euclidean_1d(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(2, 30)))
            space = euclidean_space("e", x[:, None])
            res = frechet_mean(space)
            assert frechet_variance(space, res) == pytest.approx(np.var(x), rel=1e-12)

    def test_invariant_under_observation_permutation(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=25)
        perm = rng.permutation(25)
        s1 = euclidean_space("e", x[:, None])
        s2 = euclidean_space("e", x[perm][:, None])
        v1 = frechet_variance(s1, frechet_mean(s1))
        v2 = frechet_variance(s2, frechet_mean(s2))
        assert v1 == pytest.approx(v2, rel=1e-14)


class TestGroupedMultiSample:
    def test_alignment_validation(self):
        s1 = euclidean_space("a", np.zeros((4, 1)))
        s2 = euclidean_space("b", np.zeros((5, 1)))
        with pytest.raises(ValueError):
            GroupedMultiSample([s1, s2], [1, 1, 2, 2])

    def test_small_group_rejected(self):
        s1 = euclidean_space("a", np.zeros((3, 1)))
        with pytest.raises(DataError):
            GroupedMultiSample([s1], [1, 1, 2])

    def test_gammas_sum_to_one(self):
        s1 = euclidean_space("a", np.zeros((6, 1)))
        ms = GroupedMultiSample([s1], [1, 1, 2, 2, 2, 2])
        assert ms.gammas.sum() == pytest.approx(1.0)
        assert ms.counts.tolist() == [2, 4]

    def test_with_labels_shares_spaces(self):
        s1 = euclidean_space("a", np.arange(4, dtype=float)[:, None])
        ms = GroupedMultiSample([s1], [1, 1, 2, 2])
        flipped = ms.with_labels([2, 2, 1, 1])
        assert flipped.spaces[0] is ms.spaces[0]


class TestDistanceProfile:
    def test_single_group_degenerate_data(self):
        space = gaussian_space("g", [GaussianPoint(1.0, 1.0)] * 4)
        ms = GroupedMultiSample([space], [1, 1, 1, 1])
        prof = distance_profile(ms, "pooled")
        assert np.allclose(prof.values, 0.0)

    def test_per_group_identical_within_group(self):
        space = euclidean_space("e", np.array([[5.0], [5.0], [9.0], [9.0]]))
        ms = GroupedMultiSample([space], [1, 1, 2, 2])
        prof = distance_profile(ms, "per-group")
        assert np.allclose(prof.values, 0.0)

    def test_two_group_hand_values(self):
        space = euclidean_space("e", np.array([[0.0], [2.0], [10.0], [14.0]]))
        ms = GroupedMultiSample([space], [1, 1, 2, 2])
        prof = distance_profile(ms, "per-group")
        assert np.allclose(prof.values[:, 0], [1.0, 1.0, 2.0, 2.0])

    def test_pooled_mode_uses_grand_mean(self):
        space = euclidean_space("e", np.array([[0.0], [2.0], [10.0], [14.0]]))
        ms = GroupedMultiSample([space], [1, 1, 2, 2])
        prof = distance_profile(ms, "pooled")
        grand = np.mean([0.0, 2.0, 10.0, 14.0])
        assert np.allclose(prof.values[:, 0], np.abs(np.array([0, 2, 10, 14]) - grand))

    def test_label_equivariance(self):
        rng = np.random.default_rng(35)
        x = rng.normal(size=(12, 2))
        labels = np.array([1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 3])
        swapped = np.array([3, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1])
        space = euclidean_space("e", x)
        p1 = distance_profile(GroupedMultiSample([space], labels), "per-group")
        p2 = distance_profile(GroupedMultiSample([space], swapped), "per-group")
        # per-observation values do not depend on what the groups are called
        assert np.allclose(p1.values, p2.values)

    def test_negative_values_rejected(self):
        with pytest.raises(DataError):
            DistanceProfile(values=np.array([[-1.0]]), mean_mode="pooled")

    def test_pooled_profile_is_measured_once(self):
        # coordinate, distance-matrix and custom-solver spaces: each pooled
        # column is the one frechet_mean measures, bit for bit, and a custom
        # space's distance function runs once per observation
        rng = np.random.default_rng(36)
        n = 12
        x = rng.normal(size=n)
        upper = np.triu(rng.integers(1, 4, size=(n, n)).astype(float), 1)
        calls = []

        def distance(a, b):
            calls.append(1)
            return abs(a - b)

        spaces = [
            euclidean_space("E", rng.normal(size=(n, 3))),
            distance_matrix_space("D", upper + upper.T),
            custom_space("C", list(x), distance, exact_mean=lambda pts, w: float(np.mean(pts))),
        ]
        ms = GroupedMultiSample(spaces, np.arange(n) % 2)
        eng = StatEngine(ms)
        assert len(calls) == n
        for s, sp in enumerate(spaces):
            res = frechet_mean(sp)
            col = eng.pooled_profile[:, s]
            ref = sp.distances_to(res.mean) if res.index is None else sp.pairwise()[:, res.index]
            assert np.array_equal(col, ref), sp.space_id
            assert res.objective == float(np.mean(col * col))
            assert eng.pooled_means[s] == res


class TestMedoidSums:
    """``_medoid_sums`` multiplies the mask rows ``_gemm_rows(n)`` at a time,
    the last call taking the final rows; at each n of the grid the row counts
    leave every remainder modulo that step, and stacks shorter than one step,
    so full calls and the overlapping last one run.  ``_medoids`` shares its
    penalty, slack and sums buffer across the matrices it is given."""

    GRID = (23, 200, 300, 360)  # 1024, 16, 8 and 4 rows per call

    @classmethod
    def _squares(cls, n, far):
        return _clipped_squares(cls._distances(n, far))

    @staticmethod
    def _distances(n, far):
        rng = np.random.default_rng(17)
        upper = np.triu(rng.integers(1, 4, size=(n, n)).astype(float), 1)
        # small integers tie many group sums exactly; observations 0, 4, 9
        # and 13 are one point, and ``far`` moves observation 5 away from all
        # others (at 1e200 its squares overflow and clip to the largest float)
        point = np.arange(n)
        point[[4, 9, 13]] = 0
        dist = (upper + upper.T)[np.ix_(point, point)]
        dist[5, :] *= far
        dist[:, 5] *= far
        return dist

    @staticmethod
    def _masks(n, J, L, seed):
        rng = np.random.default_rng(seed)
        codes = np.stack([rng.permutation(np.arange(n) % J) for _ in range(L)])
        if J > 1:
            # labeling 0's group 0 is the four copies of one point: zero sums
            codes[0] = 1 + np.arange(n) % (J - 1)
            codes[0, [0, 4, 9, 13]] = 0
        return codes, (codes[:, None, :] == np.arange(J)[None, :, None]).astype(float)

    @staticmethod
    def _one_product(rows, squares):
        with np.errstate(over="ignore"):
            plain = np.minimum(rows @ squares, np.finfo(float).max)
        plain[rows == 0.0] = np.inf
        return plain

    def test_rows_per_call(self):
        for n in range(1, 1201):
            rows = _gemm_rows(n)
            assert rows >= 4 and rows & (rows - 1) == 0, n
            if n <= 500:
                assert rows * n * n <= 10**6 < 2 * rows * n * n, n
            else:
                assert rows == 4, n
        assert [_gemm_rows(n) for n in (23, 176, 177, 250, 251, 300, 353, 354, 360, 500)] == [
            1024, 32, 16, 16, 8, 8, 8, 4, 4, 4
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("far", [1.0, 1.0e200])
    @pytest.mark.parametrize("n", GRID)
    def test_sums_match_one_product_at_every_remainder(self, n, far):
        squares = self._squares(n, far)
        step = _gemm_rows(n)
        _, masks = self._masks(n, 3, (2 * step + 1) // 3 + 1, seed=n)
        rows = masks.reshape(-1, n)
        with np.errstate(divide="ignore"):
            penalty = np.reciprocal(rows) - 1.0
        plain = self._one_product(rows, squares)
        for m in range(1, 2 * step + 2):  # one row, a remainder of each size, two full calls
            sums = np.empty((m, n))
            _medoid_sums(rows[:m], squares, penalty[:m], sums)
            assert sums.tobytes() == plain[:m].tobytes(), m
        assert np.all(sums[0, [0, 4, 9, 13]] == 0.0)  # labeling 0's group 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("far", [1.0, 1.0e200])
    @pytest.mark.parametrize(
        "n, J, L",
        [(23, J, L) for J, L in [(1, 1), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (3, 4), (3, 29)]]
        + [(23, 5, 1), (23, 5, 3)]
        + [(n, 3, 5) for n in GRID[1:]],
    )
    def test_picks_follow_the_in_order_rule(self, n, J, L, far):
        squares = self._squares(n, far)
        codes, masks = self._masks(n, J, L, seed=100 * J + L)
        picks, = _medoids(masks, masks.sum(axis=2), [squares])
        for l in range(L):
            for j in range(J):
                idx = np.flatnonzero(codes[l] == j)
                assert picks[l, j] == oracle_medoid_in_order(squares, idx)

    @staticmethod
    def _tight_far_group():
        # 20 points of spread 1e-3 about 1.4e4 away from 40 others: the tight
        # group's sums are tiny against its row totals, so a group sum taken
        # as the row total minus the other groups' errs far past the slack
        rng = np.random.default_rng(23)
        x = np.concatenate([rng.normal(size=(20, 2)) * 1e-3 + 1.4e4, rng.normal(size=(40, 2))])
        return np.linalg.norm(x[:, None] - x[None], axis=2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_spaces", [2, 3])
    def test_shared_pass_gives_each_matrix_its_own_picks(self, n_spaces):
        n, J, L = 60, 3, 12
        matrices = [self._tight_far_group(), self._distances(n, 1e200), self._distances(n, 1.0)]
        squares = [_clipped_squares(d) for d in matrices[:n_spaces]]
        codes, masks = self._masks(n, J, L, seed=n_spaces)
        codes[1] = np.repeat([0, 1, 2], 20)  # the tight group alone in group 0
        masks = (codes[:, None, :] == np.arange(J)[None, :, None]).astype(float)
        counts = masks.sum(axis=2)
        shared = _medoids(masks, counts, squares)
        assert len(shared) == n_spaces
        for sq, picks in zip(squares, shared):
            alone, = _medoids(masks, counts, [sq])
            assert np.array_equal(picks, alone)
            for l in range(L):
                for j in range(J):
                    assert picks[l, j] == oracle_medoid_in_order(sq, np.flatnonzero(codes[l] == j))
        # through the engine: medoid spaces around a centroid space
        spaces = [distance_matrix_space(f"D{s}", d) for s, d in enumerate(matrices[:n_spaces])]
        spaces.insert(1, euclidean_space("E", np.random.default_rng(3).normal(size=(n, 2))))
        ms = GroupedMultiSample(spaces, np.repeat([0, 1, 2], 20))
        assert np.array_equal(StatEngine(ms).group_profiles(codes), oracle_group_profiles(ms, codes))


def _on_kernel_grid(test):
    """Parametrize ``test`` over the moment-kernel grid, ids ``k-S-J-L``: k
    coordinates, S spaces (a medoid space from S = 2), J groups, L labelings."""
    for mark in (
        pytest.mark.parametrize("k", [1, 2, 3, 100]),
        pytest.mark.parametrize("S", [1, 2, 3]),
        pytest.mark.parametrize("J", [2, 3]),
        pytest.mark.parametrize("L", [1, 40]),
    ):
        test = mark(test)
    return test


class TestGroupProfileKernel:
    """``StatEngine.group_profiles`` and ``moments`` on 40 permuted labelings
    of J=3 groups, one space of each kind: medoid, centroid, custom solver;
    the profile sub-chunks and moment blocks of ``moments`` at k=100; and the
    flat-index gathers and per-pair products against fancy indexing and
    broadcasting, bit for bit."""

    L = 40

    @staticmethod
    def _multisample(far=1.0):
        rng = np.random.default_rng(41)
        labels = np.repeat([0, 1, 2], [7, 8, 9])
        n = len(labels)
        # small integers make exact ties among medoid objectives common;
        # ``far`` moves observation 5 away from all others
        upper = np.triu(rng.integers(1, 4, size=(n, n)).astype(float), 1)
        upper[5, :] *= far
        upper[:, 5] *= far
        x = rng.normal(size=n)
        spaces = [
            distance_matrix_space("D", upper + upper.T),
            euclidean_space("E", rng.normal(size=(n, 3))),
            custom_space(
                "C", list(x), lambda a, b: abs(a - b),
                exact_mean=lambda pts, w: float(np.mean(pts)),
            ),
            euclidean_space("X", x[:, None]),
        ]
        return GroupedMultiSample(spaces, labels)

    def _stack(self, ms):
        return np.stack([permuted_labels(ms.codes, 5, b) for b in range(self.L)])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("far", [1.0, 1.0e200])
    def test_medoid_profiles_match_oracle_with_ties(self, far):
        # at far=1e200 the squared distances to observation 5 overflow to inf;
        # the engine and frechet_mean clip them without a warning
        ms = self._multisample(far)
        codes = self._stack(ms)
        prof = StatEngine(ms).group_profiles(codes)
        dist = ms.spaces[0].pairwise()
        ties = 0
        for l in range(self.L):
            for j in range(3):
                idx = np.flatnonzero(codes[l] == j)
                with np.errstate(over="ignore"):  # the oracle's own squares
                    objectives = (dist[np.ix_(idx, idx)] ** 2).sum(axis=1)
                    medoid = oracle_medoid(dist, idx)
                ties += int(np.sum(objectives == objectives.min()) > 1)
                assert np.array_equal(prof[l, idx, 0], dist[idx, medoid])
                assert frechet_mean(ms.spaces[0], idx).index == medoid
        assert ties > 0

    @staticmethod
    def _kernel_sample(k, S, J, L, n):
        # the first S of: k-dimensional coordinates far from the origin, a
        # distance matrix with tied medoid objectives, 2-D coordinates
        rng = np.random.default_rng(1000 * k + 100 * S + 10 * J + L)
        upper = np.triu(rng.integers(1, 4, size=(n, n)).astype(float), 1)
        spaces = [
            euclidean_space("E", rng.normal(size=(n, k)) * 3.0 + 50.0),
            distance_matrix_space("D", upper + upper.T),
            euclidean_space("F", rng.normal(size=(n, 2))),
        ][:S]
        return GroupedMultiSample(spaces, np.arange(n) % J)

    def _check_kernels(self, k, S, J, L, n):
        ms = self._kernel_sample(k, S, J, L, n)
        codes = np.stack([permuted_labels(ms.codes, 7, b) for b in range(L)])
        eng = StatEngine(ms)
        assert np.array_equal(eng.group_profiles(codes), oracle_group_profiles(ms, codes))
        stack = vars(eng.moments(codes))
        oracles = [oracle_moment_stack]
        if S >= 2:
            # the 0/1-mask einsums sum in order too when the summed columns
            # interleave (S >= 2); a lone contiguous column they vectorise
            oracles.append(oracle_mask_einsums)
        for oracle in oracles:
            expected = oracle(ms, codes)
            assert stack.keys() == expected.keys()
            for name, value in expected.items():
                assert np.array_equal(stack[name], value, equal_nan=True), (oracle, name)

    @_on_kernel_grid
    def test_flat_gathers_and_pair_products_match_fancy_indexing(self, k, S, J, L):
        self._check_kernels(k, S, J, L, n=30)

    @pytest.mark.parametrize(
        "n, default_chunks", [(7, True), (7, False), (30, False), (200, True), (200, False)]
    )
    @_on_kernel_grid
    def test_moment_sums_add_members_in_order(self, k, S, J, L, n, default_chunks, monkeypatch):
        # default_chunks=False walks the labelings one per chunk; a labeling's
        # sums must not depend on the chunk it falls in
        if not default_chunks:
            monkeypatch.setattr(engine, "_CHUNK_BUDGET", 1)
        self._check_kernels(k, S, J, L, n)

    @pytest.mark.parametrize("k", [2, 100])
    @pytest.mark.parametrize("S", [1, 2, 3])
    def test_narrow_block_matches_full_block(self, S, k):
        # run_tests evaluates a sweep in blocks of labelings; moments on each
        # narrow block, 7 labelings wide or as wide as the futility schedule's
        # 33 and 64, must equal the rows of one full call.  At k = 100 the
        # profiles run in 6-labeling sub-chunks of longer moment blocks
        ms = self._kernel_sample(k, S, 3, 120, 200)
        codes = np.stack([permuted_labels(ms.codes, 11, b) for b in range(120)])
        eng = StatEngine(ms)
        full = eng.moments(codes)
        for width in (7, 33, 64):
            for start in range(0, 120, width):
                narrow = eng.moments(codes[start : start + width])
                for name, value in vars(narrow).items():
                    expected = getattr(full, name)[start : start + width]
                    assert np.array_equal(value, expected, equal_nan=True), (width, start, name)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize(
        "k, scale", [(1, 1e-160), (1, 1e155), (2, 1e-160), (2, 1e155), (3, 1e155)]
    )
    def test_narrow_norms_match_einsum(self, k, scale, monkeypatch):
        # squared coordinates underflow at 1e-160 and overflow at 1e155; below
        # k = 3 the ufunc products and add must give the einsum's bits
        rng = np.random.default_rng(k)
        coords = rng.normal(size=(24, k)) * scale
        ms = GroupedMultiSample([euclidean_space("E", coords)], np.arange(24) % 3)
        codes = self._stack(ms)
        eng = StatEngine(ms)
        subscripts = []
        einsum = np.einsum

        def spy(sub, *operands, **kwargs):
            subscripts.append(sub)
            return einsum(sub, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        prof = eng.group_profiles(codes)
        monkeypatch.undo()
        assert ("lnk,lnk->ln" in subscripts) == (k >= 3)
        assert np.array_equal(prof, oracle_group_profiles(ms, codes), equal_nan=True)

    def test_custom_solver_agrees_with_embedded_space(self):
        ms = self._multisample()
        prof = StatEngine(ms).group_profiles(self._stack(ms))
        np.testing.assert_allclose(prof[:, :, 2], prof[:, :, 3], rtol=1e-12, atol=1e-12)

    def test_one_labeling_per_chunk_is_bit_identical(self, monkeypatch):
        ms = self._multisample()
        codes = self._stack(ms)
        whole = StatEngine(ms).moments(codes)
        monkeypatch.setattr(engine, "_CHUNK_BUDGET", 1)
        chunked = StatEngine(ms).moments(codes)
        for name, value in vars(whole).items():
            np.testing.assert_array_equal(getattr(chunked, name), value, err_msg=name)

    def test_chunk_layout_at_high_k_is_bit_identical(self, monkeypatch):
        # k=100 coordinates far from the origin, plus a medoid space; the
        # default budget splits the 48 labelings into several chunks
        rng = np.random.default_rng(43)
        n = 64
        pts = rng.normal(size=(n, 4))
        ms = GroupedMultiSample(
            [
                euclidean_space("E", rng.normal(size=(n, 100)) + 1.0e5),
                distance_matrix_space("D", np.abs(pts[:, None] - pts[None]).sum(axis=2)),
            ],
            np.repeat([0, 1], n // 2),
        )
        codes = np.stack([permuted_labels(ms.codes, 9, b) for b in range(48)])
        X = ms.spaces[0].coords
        prof = StatEngine(ms).group_profiles(codes)
        for l in (0, 47):
            for j in (0, 1):
                idx = np.flatnonzero(codes[l] == j)
                # the difference form keeps full precision; the expansion
                # |x|^2 - 2 x.m + |m|^2 would lose about six digits here
                ref = np.linalg.norm(X[idx] - X[idx].mean(axis=0), axis=1)
                np.testing.assert_allclose(prof[l, idx, 0], ref, rtol=1e-9)

        chunks = []
        real = StatEngine.group_profiles

        def counting(self, c, out=None):
            chunks.append(len(c))
            return real(self, c, out=out)

        monkeypatch.setattr(StatEngine, "group_profiles", counting)
        default = StatEngine(ms).moments(codes)
        assert len(chunks) >= 3
        for budget, n_chunks in ((1, 48), (10**9, 1)):
            monkeypatch.setattr(engine, "_CHUNK_BUDGET", budget)
            chunks.clear()
            other = StatEngine(ms).moments(codes)
            assert len(chunks) == n_chunks
            for name, value in vars(default).items():
                np.testing.assert_array_equal(getattr(other, name), value, err_msg=name)

    def test_profile_sub_chunks_within_moment_blocks(self, monkeypatch):
        # k = 100 sizes the profile sub-chunks and the F = 24 summed columns
        # of four spaces the moment blocks: 200 labelings run in blocks of
        # 84 (the last one short), each of 21-labeling sub-chunks
        rng = np.random.default_rng(47)
        n = 60
        upper = np.triu(rng.integers(1, 4, size=(n, n)).astype(float), 1)
        x = rng.normal(size=n)
        ms = GroupedMultiSample(
            [
                euclidean_space("E", rng.normal(size=(n, 100)) * 3.0 + 50.0),
                distance_matrix_space("D", upper + upper.T),
                euclidean_space("F", rng.normal(size=(n, 2))),
                custom_space(
                    "C", list(x), lambda a, b: abs(a - b),
                    exact_mean=lambda pts, w: float(np.mean(pts)),
                ),
            ],
            np.arange(n) % 3,
        )
        L = 200
        codes = np.stack([permuted_labels(ms.codes, 13, b) for b in range(L)])
        q = engine._CHUNK_BUDGET // (n * 100)
        assert 1 < q < engine._CHUNK_BUDGET // (n * 24) // q * q < L

        calls = []
        real = StatEngine.group_profiles

        def counting(self, c, out=None):
            calls.append(len(c))
            return real(self, c, out=out)

        monkeypatch.setattr(StatEngine, "group_profiles", counting)
        stack = vars(StatEngine(ms).moments(codes))
        assert len(calls) == -(-L // q)
        monkeypatch.undo()

        expected = [oracle_moment_stack(ms, codes)]
        for budget in (1, 10**9):
            monkeypatch.setattr(engine, "_CHUNK_BUDGET", budget)
            expected.append(vars(StatEngine(ms).moments(codes)))
        monkeypatch.undo()
        eng = StatEngine(ms)
        rows = [vars(eng.moments(codes[l : l + 1])) for l in range(L)]
        expected.append({name: np.concatenate([r[name] for r in rows]) for name in stack})
        for i, other in enumerate(expected):
            assert other.keys() == stack.keys()
            for name, value in other.items():
                assert np.array_equal(stack[name], value, equal_nan=True), (i, name)

    def test_stack_row_equals_single_labeling(self):
        ms = self._multisample()
        eng = StatEngine(ms)
        codes = self._stack(ms)
        assert np.array_equal(eng.group_profiles(codes)[0], eng.group_profiles(codes[:1])[0])
        stacked, single = eng.moments(codes), eng.moments(codes[:1])
        for name, value in vars(single).items():
            np.testing.assert_array_equal(getattr(stacked, name)[:1], value, err_msg=name)
