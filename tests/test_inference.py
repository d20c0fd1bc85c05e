"""Tests for the statistics, permutation machinery, and the seven tests."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from metricmanova import engine, inference
from metricmanova.engine import MomentStack, StatEngine
from metricmanova.errors import (
    DegenerateDataError,
    SingularMatrixError,
    UnstableStatisticError,
)
from metricmanova.estimators import MomentSet, moment_set
from metricmanova.inference import (
    R_TARGETS,
    TEST_NAMES,
    _pillai_d_stack,
    anova_stats_covariance,
    anova_stats_variance,
    permutation_pvalue,
    pillai_adapted,
    pillai_distance,
    r_statistic,
    run_test,
    run_tests,
)
from metricmanova.rng import PERM_STREAM, derive_rng, permuted_labels
from metricmanova.samples import GroupedMultiSample
from metricmanova.simulation import scenario_generator
from metricmanova.spd import SPD_FLOOR_REL
from metricmanova.spaces import distance_matrix_space, euclidean_space

from oracles import (
    oracle_fa_stats,
    oracle_pillai_adapted,
    oracle_pillai_distance,
    oracle_profiles_euclidean,
    oracle_profiles_from_matrices,
    oracle_r_statistics,
)

# fixed 4-observation toy: two distance-matrix spaces, two groups of two.
# medoid means keep the moment variances strictly positive.
TOY4_DIST_A = np.array(
    [
        [0.0, 3.0, 5.0, 6.0],
        [3.0, 0.0, 4.0, 5.0],
        [5.0, 4.0, 0.0, 2.0],
        [6.0, 5.0, 2.0, 0.0],
    ]
)
TOY4_DIST_B = np.array(
    [
        [0.0, 1.0, 2.0, 2.0],
        [1.0, 0.0, 2.0, 2.0],
        [2.0, 2.0, 0.0, 1.5],
        [2.0, 2.0, 1.5, 0.0],
    ]
)
TOY4_LABELS = [1, 1, 2, 2]

# fixed 8-observation toy: 1-D and 2-D Euclidean-L2 spaces, two groups of
# four.  The values keep every within-group distance correlation strictly
# inside (-1, 1) so the correlation matrices stay positive definite.
TOY8_X = np.array([0.0, 1.5, 3.0, 7.0, 10.0, 12.0, 15.0, 11.0])
TOY8_Y = np.array(
    [
        [0.0, 0.0],
        [1.0, 2.5],
        [2.0, 0.5],
        [3.0, 4.0],
        [8.0, 7.0],
        [9.0, 9.5],
        [6.0, 8.0],
        [10.0, 10.0],
    ]
)
TOY8_LABELS = [1, 1, 1, 1, 2, 2, 2, 2]


def toy4_ms() -> GroupedMultiSample:
    return GroupedMultiSample(
        [distance_matrix_space("A", TOY4_DIST_A), distance_matrix_space("B", TOY4_DIST_B)],
        TOY4_LABELS,
    )


def toy8_ms() -> GroupedMultiSample:
    return GroupedMultiSample(
        [euclidean_space("x", TOY8_X[:, None]), euclidean_space("y", TOY8_Y)],
        TOY8_LABELS,
    )


def pillai_d_ms(S: int) -> GroupedMultiSample:
    """n = 6 in J = 2 groups of 3, with S three-dimensional Euclidean-L2 spaces."""
    rng = np.random.default_rng(5)
    spaces = [euclidean_space(f"e{s}", rng.normal(size=(6, 3))) for s in range(S)]
    return GroupedMultiSample(spaces, [1, 1, 1, 2, 2, 2])


def three_space_ms() -> GroupedMultiSample:
    """n = 36 in J = 3 groups of 12, with a distance-matrix space (medoid
    means) and two Euclidean-L2 spaces: S = 3 takes the LAPACK SPD kernels."""
    rng = np.random.default_rng(88)
    pts = rng.normal(size=(36, 3))
    return GroupedMultiSample(
        [
            distance_matrix_space("D", np.abs(pts[:, None] - pts[None]).sum(axis=2)),
            euclidean_space("e", rng.normal(size=(36, 2))),
            euclidean_space("x", rng.normal(size=(36, 1))),
        ],
        np.repeat([1, 2, 3], 12),
    )


def random_two_group_ms(rng, n1=14, n2=18) -> GroupedMultiSample:
    x = rng.normal(size=(n1 + n2, 1))
    y = rng.normal(size=(n1 + n2, 3))
    labels = np.array([1] * n1 + [2] * n2)
    return GroupedMultiSample(
        [euclidean_space("x", x), euclidean_space("y", y)], labels
    )


class TestAnovaStatistics:
    def test_toy4_matches_oracle(self):
        ms = toy4_ms()
        per_group, pooled = oracle_profiles_from_matrices(
            [TOY4_DIST_A, TOY4_DIST_B], TOY4_LABELS
        )
        F_o, U_o, T_o = oracle_fa_stats(per_group, pooled, TOY4_LABELS)
        for s in range(2):
            F, U, T = anova_stats_variance(ms, s)
            assert F == pytest.approx(F_o[(s, s)], rel=1e-12)
            assert U == pytest.approx(U_o[(s, s)], rel=1e-12)
            assert T == pytest.approx(T_o[(s, s)], rel=1e-12)
        F, U, T = anova_stats_covariance(ms, 0, 1)
        assert F == pytest.approx(F_o[(0, 1)], rel=1e-12)
        assert U == pytest.approx(U_o[(0, 1)], rel=1e-12)
        assert T == pytest.approx(T_o[(0, 1)], rel=1e-12)

    def test_toy8_matches_oracle(self):
        ms = toy8_ms()
        per_group, pooled = oracle_profiles_euclidean([TOY8_X, TOY8_Y], TOY8_LABELS)
        F_o, U_o, T_o = oracle_fa_stats(per_group, pooled, TOY8_LABELS)
        for s in range(2):
            F, U, T = anova_stats_variance(ms, s)
            assert F == pytest.approx(F_o[(s, s)], rel=1e-12)
            assert U == pytest.approx(U_o[(s, s)], rel=1e-12)
            assert T == pytest.approx(T_o[(s, s)], rel=1e-12)
        F, U, T = anova_stats_covariance(ms, 0, 1)
        assert F == pytest.approx(F_o[(0, 1)], rel=1e-12)
        assert U == pytest.approx(U_o[(0, 1)], rel=1e-12)
        assert T == pytest.approx(T_o[(0, 1)], rel=1e-12)

    def test_two_point_exact_mean_groups_are_degenerate(self):
        # groups {0,2} and {0,6} on the line have variances 1 and 9, but each
        # two-point group is equidistant from its mean, so the moment
        # variance vanishes and U/T are undefined
        from metricmanova.samples import frechet_mean, frechet_variance

        ms = GroupedMultiSample(
            [euclidean_space("e", np.array([[0.0], [2.0], [0.0], [6.0]]))],
            [1, 1, 2, 2],
        )
        space = ms.spaces[0]
        v1 = frechet_variance(space, frechet_mean(space, [0, 1]), [0, 1])
        v2 = frechet_variance(space, frechet_mean(space, [2, 3]), [2, 3])
        assert v1 == pytest.approx(1.0)
        assert v2 == pytest.approx(9.0)
        with pytest.raises(DegenerateDataError):
            anova_stats_variance(ms, 0)

    def test_identical_groups_are_zero(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(9, 2))
        ms = GroupedMultiSample(
            [euclidean_space("e", np.vstack([x, x]))], [1] * 9 + [2] * 9
        )
        F, U, T = anova_stats_variance(ms, 0)
        assert F == pytest.approx(0.0, abs=1e-12)
        assert U == pytest.approx(0.0, abs=1e-20)
        assert T == pytest.approx(0.0, abs=1e-12)

    def test_scaling_property(self):
        rng = np.random.default_rng(62)
        pts = rng.normal(size=(20, 1))
        labels = [1] * 10 + [2] * 10
        c = 2.5
        ms1 = GroupedMultiSample([euclidean_space("e", pts)], labels)
        ms2 = GroupedMultiSample([euclidean_space("e", c * pts)], labels)
        F1, U1, T1 = anova_stats_variance(ms1, 0)
        F2, U2, T2 = anova_stats_variance(ms2, 0)
        assert F2 == pytest.approx(c * c * F1, rel=1e-12)
        assert T2 == pytest.approx(T1, rel=1e-10)  # T is scale-free

    def test_u_single_pair_reduction(self):
        rng = np.random.default_rng(63)
        ms = random_two_group_ms(rng, n1=10, n2=10)
        m = moment_set(ms)
        _, U, _ = anova_stats_variance(ms, 0)
        v = m.group_variances[:, 0]
        mv = m.moment_var[:, 0, 0]
        expected = m.gammas[0] * m.gammas[1] * (v[0] - v[1]) ** 2 / (mv[0] * mv[1])
        assert U == pytest.approx(expected, rel=1e-12)

    def test_same_space_pair_rejected(self):
        with pytest.raises(ValueError):
            anova_stats_covariance(toy8_ms(), 1, 1)

    def test_degenerate_space_forces_error(self):
        # one space with all-identical objects has zero distances everywhere,
        # so every covariance product vanishes and the T denominator with it
        rng = np.random.default_rng(59)
        live = rng.normal(size=(12, 1))
        frozen = np.zeros((12, 1))
        ms = GroupedMultiSample(
            [euclidean_space("live", live), euclidean_space("frozen", frozen)],
            [1] * 6 + [2] * 6,
        )
        with pytest.raises(DegenerateDataError):
            anova_stats_covariance(ms, 0, 1)

    def test_invariant_under_observation_reordering(self):
        rng = np.random.default_rng(60)
        x = rng.normal(size=(20, 1))
        y = rng.normal(size=(20, 2))
        labels = np.array([1] * 10 + [2] * 10)
        perm = rng.permutation(20)
        ms1 = GroupedMultiSample(
            [euclidean_space("x", x), euclidean_space("y", y)], labels
        )
        ms2 = GroupedMultiSample(
            [euclidean_space("x", x[perm]), euclidean_space("y", y[perm])],
            labels[perm],
        )
        for s in range(2):
            for a, b in zip(anova_stats_variance(ms1, s), anova_stats_variance(ms2, s)):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-15)
        for a, b in zip(
            anova_stats_covariance(ms1, 0, 1), anova_stats_covariance(ms2, 0, 1)
        ):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


class TestRStatistic:
    def test_identical_groups_zero(self):
        rng = np.random.default_rng(64)
        x = rng.normal(size=(9, 2))
        ms = GroupedMultiSample(
            [euclidean_space("e", np.vstack([x, x]))], [1] * 9 + [2] * 9
        )
        m = moment_set(ms)
        for kind in ("Euc", "AIRM", "LERM"):
            for target in ("mean", "cov", "cor"):
                assert r_statistic(kind, target, m) == pytest.approx(0.0, abs=1e-9)

    def _synthetic_moments(self, group_cov, pooled, gammas) -> MomentSet:
        # a one-row MomentStack, as the engine builds for the observed labeling
        group_cov = np.asarray(group_cov, float)
        J, S, _ = group_cov.shape
        gammas = np.asarray(gammas, float)
        # zero column means make the centered and non-centered moments agree
        stack = MomentStack(
            counts=gammas[None] * 100,
            gammas=gammas[None],
            group_cov=group_cov[None],
            weighted_cov=np.einsum("j,jst->st", gammas, group_cov)[None],
            col_mean=np.zeros((1, J, S)),
            centered_cov=group_cov[None],
            group_cor=np.broadcast_to(np.eye(S), (1, J, S, S)).copy(),
            cor_valid=np.ones((1, J), dtype=bool),
            moment_var=np.ones((1, J, S, S)),
            prod_sqmean=1.0 + group_cov[None] ** 2,
        )
        return MomentSet(
            stack=stack,
            group_ids=np.arange(J),
            group_means=tuple(tuple() for _ in range(J)),
            pooled_means=tuple(),
            pooled_cov=np.asarray(pooled, float),
        )

    def test_airm_cov_closed_form(self):
        m = self._synthetic_moments(
            [np.diag([np.e, 1.0]), np.eye(2)], np.eye(2), [0.5, 0.5]
        )
        assert r_statistic("AIRM", "cov", m) == pytest.approx(0.25)

    def test_euc_mean_closed_form(self):
        weighted = np.array([[2.0, 0.3], [0.3, 1.0]])
        pooled = weighted + np.diag([1.0, 0.0])
        m = self._synthetic_moments([weighted, weighted], pooled, [0.5, 0.5])
        assert r_statistic("Euc", "mean", m) == pytest.approx(1.0)

    def test_toy8_matches_oracle_all_kinds(self):
        ms = toy8_ms()
        m = moment_set(ms)
        per_group, pooled = oracle_profiles_euclidean([TOY8_X, TOY8_Y], TOY8_LABELS)
        for kind in ("Euc", "AIRM", "LERM"):
            r_mean, r_cov, r_cor = oracle_r_statistics(per_group, pooled, TOY8_LABELS, kind)
            assert r_statistic(kind, "mean", m) == pytest.approx(r_mean, rel=1e-9)
            assert r_statistic(kind, "cov", m) == pytest.approx(r_cov, rel=1e-9)
            assert r_statistic(kind, "cor", m) == pytest.approx(r_cor, rel=1e-9)

    def test_label_relabeling_invariance(self):
        rng = np.random.default_rng(65)
        ms = random_two_group_ms(rng)
        swapped = ms.with_labels(np.where(np.asarray(ms.labels) == 1, 5, 0))
        m1, m2 = moment_set(ms), moment_set(swapped)
        for kind in ("Euc", "AIRM", "LERM"):
            for target in ("mean", "cov", "cor"):
                assert r_statistic(kind, target, m1) == pytest.approx(
                    r_statistic(kind, target, m2), rel=1e-12
                )

    def test_equals_run_tests_statistic_bit_for_bit(self):
        # r_statistic and pillai_adapted are L=1 views of the engine's stacks,
        # and the ridge repairs AIRM and LERM inputs only, on both paths; the
        # second multisample takes the medoid path
        ms = scenario_generator(1, 2, 2.0, n1=40, n2=40)(3)
        rng = np.random.default_rng(87)
        pts = rng.normal(size=(45, 3))
        medoid_ms = GroupedMultiSample(
            [
                distance_matrix_space("D", np.abs(pts[:, None] - pts[None]).sum(axis=2)),
                euclidean_space("e", rng.normal(size=(45, 2))),
            ],
            np.repeat([1, 2, 3], 15),
        )
        for sample in (ms, medoid_ms):
            m = moment_set(sample)
            for ridge in (False, True):
                names = ["R_Euc", "R_AIRM", "R_LERM"]
                for report in run_tests(names, sample, B=1, seed=0, ridge=ridge):
                    kind = report.test_name[2:]
                    for target, component in zip(R_TARGETS, report.components):
                        assert r_statistic(kind, target, m, ridge=ridge) == component.statistic
            pillai = run_test("Pillai", sample, B=1, seed=0).components[0]
            assert pillai_adapted(m) == pillai.statistic
        assert run_test("R_Euc", ms, B=19, seed=1, ridge=True) == run_test(
            "R_Euc", ms, B=19, seed=1
        )

    @pytest.mark.parametrize(
        "names", [("R_Euc", "R_AIRM", "R_LERM"), ("R_AIRM",), ("R_AIRM", "R_LERM")]
    )
    def test_three_spaces_equal_run_tests_statistic_bit_for_bit(self, names):
        # three spaces take the Cholesky-inverse AIRM kernel on 3x3 matrices;
        # AIRM's floor test on A is the log kernel's mask whether R_LERM is
        # requested or, as in r_statistic, R_AIRM alone
        ms = three_space_ms()
        m = moment_set(ms)
        for ridge in (False, True):
            for report in run_tests(list(names), ms, B=19, seed=2, ridge=ridge):
                kind = report.test_name[2:]
                for target, component in zip(R_TARGETS, report.components):
                    assert r_statistic(kind, target, m, ridge=ridge) == component.statistic

    def test_airm_alone_judges_as_beside_lerm(self):
        # S = 3 group covariances within 0.1% of the strict-PD floor, group 2's
        # 1.5 times group 1's, so A^-1 B = 1.5 I and A decides each cov mask.
        # R_AIRM reads the log kernel's decision on A whether or not R_LERM
        # is requested, so both calls give the same bits and masks
        rng = np.random.default_rng(89)
        L, S = 1000, 3
        ratio = SPD_FLOOR_REL * np.exp(rng.uniform(-1e-3, 1e-3, L))
        eig = np.stack([np.ones(L), np.sqrt(ratio), ratio], -1) * np.exp(rng.uniform(-4, 4, (L, 1)))
        Q = np.linalg.qr(rng.normal(size=(L, S, S)))[0]
        A = (Q * eig[:, None, :]) @ np.swapaxes(Q, -1, -2)
        A = 0.5 * (A + np.swapaxes(A, -1, -2))
        cov = np.stack([A, 1.5 * A], axis=1)
        gammas = np.full((L, 2), 0.5)
        mom = MomentStack(
            counts=gammas * 100,
            gammas=gammas,
            group_cov=cov,
            weighted_cov=np.einsum("lj,ljst->lst", gammas, cov),
            col_mean=np.zeros((L, 2, S)),
            centered_cov=cov,
            group_cor=np.broadcast_to(np.eye(S), (L, 2, S, S)).copy(),
            cor_valid=np.ones((L, 2), dtype=bool),
            moment_var=np.ones((L, 2, S, S)),
            prod_sqmean=1.0 + cov**2,
        )
        alone = inference._r_stack(mom, np.eye(S), ("AIRM",))
        beside = inference._r_stack(mom, np.eye(S), ("AIRM", "LERM"))
        for target in R_TARGETS:
            assert np.array_equal(alone[("AIRM", target)][0], beside[("AIRM", target)][0])
            assert np.array_equal(alone[("AIRM", target)][1], beside[("AIRM", target)][1])
        cov_ok = alone[("AIRM", "cov")][1]
        assert cov_ok.any() and not cov_ok.all()
        assert np.array_equal(cov_ok, inference.stack_matrix_log(A)[1])


class TestPillai:
    def test_adapted_equal_matrices(self):
        rng = np.random.default_rng(66)
        x = rng.normal(size=(9, 2))
        ms = GroupedMultiSample(
            [euclidean_space("e", np.vstack([x, x]))], [1] * 9 + [2] * 9
        )
        assert pillai_adapted(moment_set(ms)) == pytest.approx(0.0, abs=1e-12)

    def test_adapted_scalar_multiple(self):
        rng = np.random.default_rng(67)
        ms = random_two_group_ms(rng)
        m = moment_set(ms)
        doubled = dataclasses.replace(m, pooled_cov=2.0 * m.weighted_cov)
        S = m.pooled_cov.shape[0]
        assert pillai_adapted(doubled) == pytest.approx(S / 2.0)

    def test_adapted_hand_inverse_2x2(self):
        pooled = np.array([[2.0, 0.5], [0.5, 1.0]])
        weighted = np.array([[1.5, 0.2], [0.2, 0.8]])
        det = pooled[0, 0] * pooled[1, 1] - pooled[0, 1] * pooled[1, 0]
        inv = np.array([[pooled[1, 1], -pooled[0, 1]], [-pooled[1, 0], pooled[0, 0]]]) / det
        expected = 2.0 - np.trace(weighted @ inv)
        rng = np.random.default_rng(68)
        m = moment_set(random_two_group_ms(rng))
        stack = dataclasses.replace(m.stack, weighted_cov=weighted[None])
        synthetic = dataclasses.replace(m, stack=stack, pooled_cov=pooled)
        assert pillai_adapted(synthetic) == pytest.approx(expected, rel=1e-12)

    def test_adapted_singular_floor_has_no_units(self):
        # rescaling profile column 2 by c maps Sigma to D Sigma D, which leaves
        # S - tr(Sigma_g Sigma_p^-1) alone; a floor on the raw eigenvalues
        # raised from |log10 c| = 6 on
        m = moment_set(random_two_group_ms(np.random.default_rng(70)))
        base = pillai_adapted(m)

        def scaled(pooled, weighted):
            stack = dataclasses.replace(m.stack, weighted_cov=weighted[None])
            return dataclasses.replace(m, stack=stack, pooled_cov=pooled)

        for c in (1e-150, 1e-7, 1e7, 1e150):
            D = np.diag([1.0, c])
            synthetic = scaled(D @ m.pooled_cov @ D, D @ m.weighted_cov @ D)
            assert pillai_adapted(synthetic) == pytest.approx(base, rel=1e-9)
        for c in (1e-7, 1.0, 1e7):
            with pytest.raises(SingularMatrixError, match="zero variance"):
                pillai_adapted(scaled(np.diag([c, 0.0]), m.weighted_cov))
            collinear = c * np.array([[1.0, 2.0], [2.0, 4.0]])
            with pytest.raises(SingularMatrixError, match="correlation matrix is singular"):
                pillai_adapted(scaled(collinear, m.weighted_cov))

    def test_adapted_toy8_matches_oracle(self):
        ms = toy8_ms()
        per_group, pooled = oracle_profiles_euclidean([TOY8_X, TOY8_Y], TOY8_LABELS)
        assert pillai_adapted(moment_set(ms)) == pytest.approx(
            oracle_pillai_adapted(per_group, pooled, TOY8_LABELS), rel=1e-12
        )

    def test_distance_toy8_matches_oracle(self):
        ms = toy8_ms()
        per_group, _ = oracle_profiles_euclidean([TOY8_X, TOY8_Y], TOY8_LABELS)
        V_o, _, _, _, p_o = oracle_pillai_distance(per_group, TOY8_LABELS)
        V, p = pillai_distance(ms)
        assert V == pytest.approx(V_o, rel=1e-12)
        assert p == pytest.approx(p_o, rel=1e-9)

    def test_distance_identical_groups(self):
        rng = np.random.default_rng(69)
        x = rng.normal(size=(9, 2))
        ms = GroupedMultiSample(
            [euclidean_space("e", np.vstack([x, x]))], [1] * 9 + [2] * 9
        )
        V, p = pillai_distance(ms)
        assert V == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_distance_disjoint_supports(self):
        x = np.array([0.0, 0.1, 0.2, 0.3, 100.0, 100.1, 100.2, 100.3])
        spread = np.array([1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0])
        ms = GroupedMultiSample(
            [euclidean_space("a", spread[:, None])], TOY8_LABELS
        )
        V, _ = pillai_distance(ms)
        assert V > 0.5  # far from 0, approaching its bound s = 1

    def test_distance_sample_size_precondition(self):
        ms = toy4_ms()
        with pytest.raises(ValueError):
            pillai_distance(ms)  # n - J - S = 0

    @pytest.mark.parametrize("S", [4, 7])  # n - J - S = 0 and -3
    def test_both_entry_points_share_the_size_guard(self, S, monkeypatch):
        # before the shared guard run_test reported p = 0.0249 at S = 4 and
        # leaked f_sf's "df2 must be a positive integer" at S = 7
        ms = pillai_d_ms(S)
        with pytest.raises(ValueError, match=r"need n - J - S >= 1"):
            pillai_distance(ms)
        with pytest.raises(ValueError, match=r"need n - J - S >= 1"):
            run_test("Pillai_d", ms, B=9)
        # the guard runs in run_tests' set-up, before any engine is built
        monkeypatch.setattr(inference, "StatEngine", None)
        with pytest.raises(ValueError, match=r"need n - J - S >= 1"):
            run_tests(["R_Euc", "Pillai_d"], ms, B=9)

    def test_smallest_valid_size_agrees(self):
        ms = pillai_d_ms(3)  # n - J - S = 1
        pillai_d = run_test("Pillai_d", ms, B=9).components[0]
        assert pillai_distance(ms) == (pillai_d.statistic, pillai_d.p_value)

    def test_affine_column_invariance(self):
        rng = np.random.default_rng(70)
        prof = rng.uniform(0.5, 2.0, size=(16, 2))
        labels = np.array([0] * 8 + [1] * 8)

        def trace_of(profile):
            # a one-row stack holds the group column means and scatters
            mom = SimpleNamespace(
                counts=np.array([[8.0, 8.0]]),
                col_mean=np.stack([profile[labels == j].mean(axis=0) for j in range(2)])[None],
                centered_cov=np.stack(
                    [np.cov(profile[labels == j].T, bias=True) for j in range(2)]
                )[None],
            )
            return _pillai_d_stack(mom, 16)[0][0]

        v1 = trace_of(prof)
        transformed = prof.copy()
        transformed[:, 1] = -3.0 * transformed[:, 1] + 7.0
        v2 = trace_of(transformed)
        assert v1 == pytest.approx(v2, rel=1e-10)


class TestThreeGroups:
    """The pair sums and Bonferroni layers are J-generic; check them at J=3."""

    X3 = np.array([0.0, 1.5, 3.0, 7.0, 4.0, 9.0, 2.0, 5.0, 11.0, 6.0, 13.0, 8.0])
    Y3 = np.array(
        [
            [0.0, 1.0], [2.0, 0.5], [1.0, 3.0], [4.0, 2.0],
            [5.0, 7.0], [8.0, 6.0], [6.0, 9.0], [9.0, 8.5],
            [3.0, 12.0], [12.0, 11.0], [10.0, 14.0], [13.0, 10.0],
        ]
    )
    LBL3 = [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]

    def _ms(self):
        return GroupedMultiSample(
            [euclidean_space("x", self.X3[:, None]), euclidean_space("y", self.Y3)],
            self.LBL3,
        )

    def test_fa_stats_match_oracle(self):
        ms = self._ms()
        per_group, pooled = oracle_profiles_euclidean([self.X3, self.Y3], self.LBL3)
        F_o, U_o, T_o = oracle_fa_stats(per_group, pooled, self.LBL3)
        for s in range(2):
            F, U, T = anova_stats_variance(ms, s)
            assert F == pytest.approx(F_o[(s, s)], rel=1e-12)
            assert U == pytest.approx(U_o[(s, s)], rel=1e-12)
            assert T == pytest.approx(T_o[(s, s)], rel=1e-12)
        F, U, T = anova_stats_covariance(ms, 0, 1)
        assert U == pytest.approx(U_o[(0, 1)], rel=1e-12)
        assert T == pytest.approx(T_o[(0, 1)], rel=1e-12)

    def test_r_statistics_match_oracle(self):
        ms = self._ms()
        m = moment_set(ms)
        per_group, pooled = oracle_profiles_euclidean([self.X3, self.Y3], self.LBL3)
        for kind in ("Euc", "AIRM", "LERM"):
            r_mean, r_cov, r_cor = oracle_r_statistics(per_group, pooled, self.LBL3, kind)
            assert r_statistic(kind, "mean", m) == pytest.approx(r_mean, rel=1e-9)
            assert r_statistic(kind, "cov", m) == pytest.approx(r_cov, rel=1e-9)
            assert r_statistic(kind, "cor", m) == pytest.approx(r_cor, rel=1e-9)

    def test_pillai_distance_matches_oracle(self):
        ms = self._ms()
        per_group, _ = oracle_profiles_euclidean([self.X3, self.Y3], self.LBL3)
        V_o, _, _, _, p_o = oracle_pillai_distance(per_group, self.LBL3)
        V, p = pillai_distance(ms)
        assert V == pytest.approx(V_o, rel=1e-12)
        assert p == pytest.approx(p_o, rel=1e-9)

    def test_run_test_chi2_df_is_two(self):
        from metricmanova.distributions import chi2_upper_quantile

        report = run_test("T_FA", self._ms(), alpha=0.05, B=1, seed=1)
        assert report.components[0].threshold == pytest.approx(
            chi2_upper_quantile(2, 2 * 0.05 / 6)
        )


class TestRidgeRepair:
    def test_rank_deficient_groups(self):
        # two-point groups in distance-matrix spaces yield rank-one group
        # covariance matrices and exactly singular correlation matrices
        ms = toy4_ms()
        from metricmanova.errors import SingularMatrixError

        with pytest.raises(SingularMatrixError):
            run_test("R_LERM", ms, B=5, seed=2)
        report = run_test("R_LERM", ms, B=5, seed=2, ridge=True)
        assert len(report.components) == 3
        assert all(np.isfinite(c.statistic) for c in report.components)
        report_euc = run_test("R_Euc", ms, B=5, seed=2)  # Euc needs no repair
        assert len(report_euc.components) == 3
        # a pencil of two differently-oriented ridged rank-one matrices has a
        # generalized condition number beyond double precision: AIRM still
        # reports the singularity rather than returning noise
        with pytest.raises(SingularMatrixError):
            run_test("R_AIRM", ms, B=5, seed=2, ridge=True)


class TestPermutationPvalue:
    def test_constant_statistic(self):
        rng = np.random.default_rng(71)
        ms = random_two_group_ms(rng, n1=6, n2=6)
        p = permutation_pvalue(lambda m: 1.0, ms, B=25, seed=3)
        assert p == 1.0

    def test_observed_strictly_greatest(self):
        rng = np.random.default_rng(72)
        ms = random_two_group_ms(rng, n1=10, n2=10)
        original = np.asarray(ms.labels).copy()

        def indicator(m):
            return float(np.array_equal(np.asarray(m.labels), original))

        B = 40
        p = permutation_pvalue(indicator, ms, B=B, seed=5)
        assert p == pytest.approx(1.0 / (B + 1))

    def test_determinism(self):
        rng = np.random.default_rng(73)
        ms = random_two_group_ms(rng)
        stat = lambda m: r_statistic("Euc", "cov", moment_set(m))
        p1 = permutation_pvalue(stat, ms, B=19, seed=11)
        p2 = permutation_pvalue(stat, ms, B=19, seed=11)
        assert p1 == p2

    @pytest.mark.parametrize("budget", [1, 3 * 12, None])
    def test_shuffles_are_the_scalar_stream(self, monkeypatch, budget):
        # replicate b sees permuted_labels(labels, seed, b), also for str
        # labels and across label blocks (budget 36 gives blocks of 3 rows)
        rng = np.random.default_rng(75)
        ms = random_two_group_ms(rng, n1=6, n2=6).with_labels(np.repeat(["ab", "c"], 6))
        if budget is not None:
            monkeypatch.setattr(engine, "_CHUNK_BUDGET", budget)
        seen = []

        def record(m):
            seen.append(m.labels.tolist())
            return 0.0

        permutation_pvalue(record, ms, B=8, seed=4)
        assert seen[1:] == [permuted_labels(ms.labels, 4, b).tolist() for b in range(8)]

    def test_b_validation(self):
        rng = np.random.default_rng(74)
        ms = random_two_group_ms(rng)
        with pytest.raises(ValueError):
            permutation_pvalue(lambda m: 1.0, ms, B=0, seed=1)

    @staticmethod
    def _scripted(observed, replicates):
        """Returns ``observed``, then each replicate value in turn; None
        raises DegenerateDataError."""
        values = iter([observed] + list(replicates))

        def stat(m):
            value = next(values)
            if value is None:
                raise DegenerateDataError("scripted degenerate replicate")
            return value

        return stat

    def test_degenerate_replicates_abort_above_twenty_percent(self):
        rng = np.random.default_rng(83)
        ms = random_two_group_ms(rng, n1=6, n2=6)
        at_limit = [None, None] + [1.0] * 3 + [0.0] * 5
        p = permutation_pvalue(self._scripted(0.5, at_limit), ms, B=10, seed=1)
        assert p == pytest.approx(4.0 / 9.0)
        with pytest.raises(UnstableStatisticError):
            permutation_pvalue(self._scripted(0.5, [None] + at_limit[:-1]), ms, B=10, seed=1)

    def test_nan_and_inf_replicates_are_dropped(self):
        rng = np.random.default_rng(84)
        ms = random_two_group_ms(rng, n1=6, n2=6)
        replicates = [1.0, np.nan, np.inf, 0.0, 1.0] + [0.0] * 5
        p = permutation_pvalue(self._scripted(0.5, replicates), ms, B=10, seed=1)
        assert p == pytest.approx(3.0 / 9.0)

    def test_non_finite_observed_statistic_raises(self):
        # NaN on the observed labels would otherwise count no replicate as
        # exceeding it and report the most significant p-value, 1/(B + 1)
        rng = np.random.default_rng(85)
        ms = random_two_group_ms(rng, n1=6, n2=6)
        with pytest.raises(DegenerateDataError, match="observed"):
            permutation_pvalue(self._scripted(np.nan, [1.0] * 19), ms, B=19, seed=1)


def _futility_samples(rng, S, shift):
    """A two-group sample in S Euclidean spaces; ``shift`` scales group 2."""
    labels = np.repeat([1, 2], 20)
    spaces = []
    for s in range(S):
        x = rng.normal(size=(40, 2))
        x[20:] *= 1.0 + shift
        spaces.append(euclidean_space(f"e{s}", x))
    return GroupedMultiSample(spaces, labels)


def _futility_medoid_sample(rng, shift):
    pts = rng.normal(size=(36, 3))
    pts[24:] *= 1.0 + shift
    d = np.abs(pts[:, None] - pts[None]).sum(axis=2)
    return GroupedMultiSample(
        [distance_matrix_space("D", d), euclidean_space("e", rng.normal(size=(36, 2)))],
        np.repeat([1, 2, 3], 12),
    )


class TestFutilityStop:
    """The decisions-only sweep (``run_tests(..., _futility=...)``) stops once
    every permutation-calibrated component is futile, and gives the full
    sweep's reject flags."""

    @staticmethod
    def _pair(ms, futility, **kw):
        full = run_tests(TEST_NAMES, ms, **kw)
        return full, run_tests(TEST_NAMES, ms, _futility=futility, **kw)

    @pytest.mark.parametrize("alpha, B", [(0.05, 1), (0.05, 9), (0.05, 99), (0.3, 49)])
    def test_reject_flags_equal_the_full_sweep(self, alpha, B):
        # (0.3, 49): alpha * (B + 1) / 3 = 5 exactly, so an R component with 4
        # of 49 exceedances sits on the boundary: (1 + 4) / 50 = 0.1 > 0.3 / 3
        # in floats, and it is futile and never rejects on the full sweep
        rng = np.random.default_rng(91)
        makers = [
            lambda shift, S=S: _futility_samples(rng, S, shift) for S in (1, 2, 3)
        ] + [lambda shift: _futility_medoid_sample(rng, shift)]
        stopped = full_sweeps = 0
        for make in makers:
            for shift in (0.0, 3.0):  # a null and a power-1 point
                futility = inference._Futility()
                for rep in range(4):
                    ms = make(shift)
                    for ridge in (False, True):
                        full, decided = self._pair(
                            ms, futility, alpha=alpha, B=B, seed=rep, ridge=ridge
                        )
                        cut = any(
                            c.p_value is None for r in decided for c in r.components
                        )
                        stopped += cut
                        full_sweeps += not cut
                        for a, b in zip(full, decided):
                            assert a.global_reject == b.global_reject
                            assert [(c.name, c.statistic, c.reject) for c in a.components] == [
                                (c.name, c.statistic, c.reject) for c in b.components
                            ]
                            perm = a.test_name in inference._PERM_TESTS
                            for ca, cb in zip(a.components, b.components):
                                if cut and perm:
                                    # a stopped sweep rejects nothing it calibrates
                                    assert cb.p_value is None and not cb.reject
                                else:
                                    assert cb.p_value == ca.p_value
                            if not cut:
                                assert a == b
        # a sweep that fits in the first block has nothing to stop
        assert (stopped > 0) == (B > inference._Futility.FIRST_REPLICATES)
        assert full_sweeps > 0

    @pytest.mark.parametrize("alpha, m, B", [(0.05, 3, 59), (0.3, 3, 49), (0.3, 3, 199),
                                             (0.05, 1, 19), (0.05, 6, 119)])
    def test_futility_rule_agrees_with_perm_p_at_every_count(self, alpha, m, B):
        # alpha * (B + 1) / m is an integer in each case; the rule must call a
        # count futile exactly when the full sweep's p-value exceeds the level
        level = alpha / m
        for count in range(B + 1):
            values = np.r_[1.0, np.full(count, 2.0), np.zeros(B - count)]
            valid = np.ones(B + 1, dtype=bool)
            table = {"c": (values, valid)}
            futile = inference._open_counts(table, {"c": level}, B + 1, B) == []
            p, _ = inference._perm_p(1.0, values[1:], valid[1:], "c")
            assert futile == (not p <= level), count
            # a futile prefix stays futile: the full sweep's p exceeds the level
            for stop in (2, B // 2 + 1):
                if inference._open_counts(table, {"c": level}, stop, B) == []:
                    assert not p <= level

    def test_null_point_sweeps_fewer_labelings(self, monkeypatch):
        labelings = []
        real = StatEngine.moments

        def spy(self, codes):
            labelings.append(len(codes))
            return real(self, codes)

        monkeypatch.setattr(StatEngine, "moments", spy)
        gen = scenario_generator(1, 1, 0.0, n1=20, n2=20)
        B, swept = 99, []
        futility = inference._Futility()
        for rep in range(6):
            labelings.clear()
            run_tests(TEST_NAMES, gen(rep), B=B, seed=rep, _futility=futility)
            swept.append(sum(labelings))
        assert min(swept) < B + 1
        assert sum(swept) < 6 * (B + 1)
        labelings.clear()
        run_tests(TEST_NAMES, gen(0), B=B, seed=0)
        assert labelings == [B + 1]

    def test_degenerate_row_forces_the_full_sweep(self, monkeypatch):
        rng = np.random.default_rng(92)
        ms = _futility_samples(rng, 2, 0.0)
        B = 99
        labelings = []
        real_moments, real_pillai = StatEngine.moments, inference._pillai_stack

        def spy(self, codes):
            labelings.append(len(codes))
            return real_moments(self, codes)

        def run_with_nan_rows(rows, **kw):
            """``run_tests`` with Pillai's value NaN at the given sweep rows."""
            seen = [0]

            def pillai_stack(weighted_cov, pooled_inv):
                values = real_pillai(weighted_cov, pooled_inv)
                start, seen[0] = seen[0], seen[0] + len(values)
                for row in rows:
                    if start <= row < seen[0]:
                        values[row - start] = np.nan
                return values

            monkeypatch.setattr(inference, "_pillai_stack", pillai_stack)
            labelings.clear()
            return run_tests(TEST_NAMES, ms, B=B, seed=3, **kw)

        monkeypatch.setattr(StatEngine, "moments", spy)
        clean = run_with_nan_rows([], _futility=inference._Futility())
        assert sum(labelings) < B + 1  # this sweep stops when no row is degenerate
        # one NaN in the first block runs the sweep to B, so the reports are
        # the full sweep's, p-values included
        full = run_with_nan_rows([5])
        decided = run_with_nan_rows([5], _futility=inference._Futility())
        assert sum(labelings) == B + 1
        assert decided == full
        assert decided[TEST_NAMES.index("Pillai")].permutations_used == B - 1
        # the one difference: rows past the stop that would push a component
        # over 20% degenerate abort the full sweep, but not a stopped one
        late = range(B + 1 - 25, B + 1)
        with pytest.raises(UnstableStatisticError):
            run_with_nan_rows(late)
        assert run_with_nan_rows(late, _futility=inference._Futility()) == clean

    def test_plain_run_tests_reports_every_p_value(self):
        rng = np.random.default_rng(93)
        for S in (1, 2, 3):
            for shift in (0.0, 3.0):
                ms = _futility_samples(rng, S, shift)
                for report in run_tests(TEST_NAMES, ms, B=49, seed=S):
                    assert all(c.p_value is not None for c in report.components)
                    if report.test_name in inference._PERM_TESTS:
                        assert report.permutations_used == 49

    def test_repeated_test_name_raises(self):
        ms = random_two_group_ms(np.random.default_rng(94))
        with pytest.raises(ValueError, match="'T_FA' requested twice"):
            run_tests(["T_FA", "R_Euc", "T_FA"], ms, B=9, seed=1)


class TestRunTest:
    def test_unknown_name(self):
        rng = np.random.default_rng(75)
        with pytest.raises(ValueError):
            run_test("R_Wasserstein", random_two_group_ms(rng), seed=1)

    def test_report_structure_and_levels(self):
        rng = np.random.default_rng(76)
        for S in (1, 2, 3):
            spaces = [euclidean_space(f"e{s}", rng.normal(size=(32, s + 1))) for s in range(S)]
            ms = GroupedMultiSample(spaces, [1] * 14 + [2] * 18)
            for alpha in (0.01, 0.05, 0.1, 0.3):
                reports = run_tests(TEST_NAMES, ms, alpha=alpha, B=19, seed=2)
                assert [r.test_name for r in reports] == list(TEST_NAMES)
                for report in reports:
                    name = report.test_name
                    assert report.global_reject == any(c.reject for c in report.components)
                    for c in report.components:
                        if c.p_value is not None:
                            assert 0.0 < c.p_value <= 1.0
                    # the Bonferroni level of each component, bit for bit
                    if name.startswith("R_"):
                        n_comp, level = 3, alpha / 3.0
                    elif name.startswith("T_FA"):
                        n_comp, level = S * (S + 1) // 2, 2.0 * alpha / (S * (S + 1))
                    else:
                        n_comp, level = 1, alpha
                    assert len(report.components) == n_comp
                    assert all(c.level == level for c in report.components)

    @pytest.mark.parametrize("kind", ["AIRM", "LERM"])
    def test_singular_observed_r_component_is_named_as_reported(self, kind):
        # two identical spaces make the pooled profile covariance singular
        rng = np.random.default_rng(86)
        x = rng.normal(size=(20, 2))
        ms = GroupedMultiSample(
            [euclidean_space("a", x), euclidean_space("b", x)], [1] * 10 + [2] * 10
        )
        with pytest.raises(SingularMatrixError, match=f"component R_mu_{kind}: .*ridge"):
            run_test(f"R_{kind}", ms, B=19, seed=3)
        # the scalar helper names the component the same way
        with pytest.raises(SingularMatrixError, match=f"^R_mu_{kind}: .*ridge"):
            r_statistic(kind, "mean", moment_set(ms))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_profile_stays_in_its_group(self):
        # observation 3 lies near 1e160, so its group's squared norms and pair
        # products overflow; each group sums only its own members, so group 2
        # stays finite (a 0/1-mask sum would add 0 * inf = NaN to it)
        rng = np.random.default_rng(88)
        x = rng.normal(size=(20, 2))
        x[3] = 1.0e160
        ms = GroupedMultiSample(
            [euclidean_space("a", x), euclidean_space("b", rng.normal(size=(20, 2)))],
            [1] * 10 + [2] * 10,
        )
        mom = StatEngine(ms).moments(ms.codes[None])
        assert np.isinf(mom.group_cov[0, 0, 0]).all()
        assert np.isfinite(mom.group_cov[0, 1]).all()
        assert np.isfinite(mom.moment_var[0, 1]).all()
        with pytest.raises(SingularMatrixError, match="^component R_mu_Euc: "):
            run_tests(["R_Euc"], ms, B=19, seed=3)

    def test_identical_duplicated_groups_never_reject(self):
        rng = np.random.default_rng(77)
        x = rng.normal(size=(10, 2))
        ms = GroupedMultiSample(
            [euclidean_space("e", np.vstack([x, x]))], [1] * 10 + [2] * 10
        )
        for name in TEST_NAMES:
            report = run_test(name, ms, alpha=0.05, B=19, seed=4)
            assert not report.global_reject, name

    def test_deterministic_reports(self):
        rng = np.random.default_rng(78)
        ms = random_two_group_ms(rng)
        r1 = run_test("R_LERM", ms, B=19, seed=9)
        r2 = run_test("R_LERM", ms, B=19, seed=9)
        assert r1 == r2

    @pytest.mark.parametrize("spaces", [2, 3])
    def test_run_tests_matches_run_test(self, spaces):
        # each test alone reports what it reports among all seven; at S = 3
        # R_AIRM alone takes the 3x3 log pass that R_LERM shares with it
        ms = random_two_group_ms(np.random.default_rng(79)) if spaces == 2 else three_space_ms()
        combined = run_tests(list(TEST_NAMES), ms, B=19, seed=6)
        assert [report.test_name for report in combined] == list(TEST_NAMES)
        for report in combined:
            alone = run_test(report.test_name, ms, B=19, seed=6)
            assert alone == report

    def test_engine_path_matches_generic_permutation(self):
        rng = np.random.default_rng(80)
        ms = random_two_group_ms(rng, n1=8, n2=8)
        B, seed = 19, 13
        report = run_test("R_AIRM", ms, B=B, seed=seed)
        by_target = {c.name: c for c in report.components}

        def stat_cov(m):
            return r_statistic("AIRM", "cov", moment_set(m))

        p_generic = permutation_pvalue(stat_cov, ms, B=B, seed=seed)
        assert by_target["R_cov_AIRM"].p_value == pytest.approx(p_generic, abs=1e-12)

    def test_medoid_spaces_match_generic_permutation(self):
        # distance-matrix spaces exercise the per-labeling medoid path
        rng = np.random.default_rng(82)
        pts1 = rng.normal(size=(12, 2))
        pts2 = rng.normal(size=(12, 3))
        d1 = np.linalg.norm(pts1[:, None] - pts1[None, :], axis=2)
        d2 = np.linalg.norm(pts2[:, None] - pts2[None, :], axis=2)
        ms = GroupedMultiSample(
            [distance_matrix_space("a", d1), distance_matrix_space("b", d2)],
            [1] * 6 + [2] * 6,
        )
        report = run_test("Pillai", ms, B=19, seed=3)
        p_generic = permutation_pvalue(
            lambda m: pillai_adapted(moment_set(m)), ms, B=19, seed=3
        )
        assert report.components[0].p_value == pytest.approx(p_generic, abs=1e-12)

    def test_observed_statistics_equal_scalar_helpers_bit_for_bit(self):
        # the observed statistics are row 0 of the sweep's (B + 1)-row stack
        ms = scenario_generator(1, 2, 2.0, n1=40, n2=40)(3)
        reports = run_tests(["T_FA", "T_FA_perm", "Pillai_d"], ms, B=19, seed=0)
        S = ms.n_spaces
        expected = [anova_stats_variance(ms, s)[2] for s in range(S)]
        expected += [
            anova_stats_covariance(ms, s, t)[2] for s in range(S) for t in range(s + 1, S)
        ]
        for report in reports[:2]:
            assert [c.statistic for c in report.components] == expected
        pillai_d = reports[2].components[0]
        assert pillai_distance(ms) == (pillai_d.statistic, pillai_d.p_value)

    def test_sweep_layout_is_bit_identical(self, monkeypatch):
        # one labeling per block, or the whole sweep in one block
        rng = np.random.default_rng(86)
        pts = rng.normal(size=(30, 3))
        medoid_ms = GroupedMultiSample(
            [
                distance_matrix_space("D", np.abs(pts[:, None] - pts[None]).sum(axis=2)),
                euclidean_space("e", rng.normal(size=(30, 2))),
            ],
            np.repeat([1, 2, 3], 10),
        )
        blocks = []
        real = StatEngine.moments

        def counting(self, codes, **kw):
            blocks.append(len(codes))
            return real(self, codes, **kw)

        monkeypatch.setattr(StatEngine, "moments", counting)
        for ms in (scenario_generator(1, 2, 2.0, n1=20, n2=20)(5), medoid_ms):
            for B in (1, 19):
                runs = []
                for budget, layout in ((1, [1] * (B + 1)), (10**9, [B + 1])):
                    monkeypatch.setattr(engine, "_CHUNK_BUDGET", budget)
                    blocks.clear()
                    runs.append(run_tests(list(TEST_NAMES), ms, B=B, seed=4))
                    assert blocks == layout
                assert runs[0] == runs[1]
            asymptotic = ["T_FA", "Pillai_d"]
            assert run_tests(asymptotic, ms, B=0, seed=4) == run_tests(
                asymptotic, ms, B=19, seed=4
            )

    def test_sweep_rows_equal_scalar_label_stream(self, monkeypatch):
        # row b + 1 of the sweep is replicate b's shuffle, block by block
        ms = scenario_generator(1, 2, 2.0, n1=20, n2=20)(5)
        calls = []

        def per_replicate(labels, seed, replicates, out):
            calls.append(replicates)
            for row, b in zip(out, replicates):
                row[...] = labels[derive_rng(seed, PERM_STREAM, b).permutation(len(labels))]
            return out

        batched = inference.permuted_labels
        for B in (1, 19):
            for budget in (1, engine._CHUNK_BUDGET):
                monkeypatch.setattr(engine, "_CHUNK_BUDGET", budget)
                runs = []
                for stream in (batched, per_replicate):
                    monkeypatch.setattr(inference, "permuted_labels", stream)
                    runs.append(run_tests(list(TEST_NAMES), ms, B=B, seed=4))
                assert runs[0] == runs[1]
                assert [b for replicates in calls for b in replicates] == list(range(B))
                calls.clear()

    def test_peak_memory_is_bounded_in_B(self):
        # the sweep keeps B + 1 values per component, not per-replicate stacks
        ms = scenario_generator(1, 2, 2.0, n1=100, n2=100)(0)
        run_tests(list(TEST_NAMES), ms, B=5, seed=1)
        peaks = []
        for B in (250, 4000):
            tracemalloc.start()
            try:
                run_tests(list(TEST_NAMES), ms, B=B, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 2**20

    def test_t_fa_threshold_is_chi2_quantile(self, monkeypatch):
        from metricmanova.distributions import chi2_upper_quantile

        rng = np.random.default_rng(81)
        ms = random_two_group_ms(rng)
        report = run_test("T_FA", ms, alpha=0.05, B=1, seed=1)
        expected = chi2_upper_quantile(1, 2 * 0.05 / 6)
        for c in report.components:
            assert c.threshold == expected
        assert report.permutations_used == 0
        # a repeated (df, level) reads the cached quantile
        monkeypatch.setattr(inference, "chi2_upper_quantile", None)
        assert run_test("T_FA", ms, alpha=0.05, B=1, seed=1) == report

    def test_degenerate_replicates_abort_above_twenty_percent(self, monkeypatch):
        rng = np.random.default_rng(85)
        ms = random_two_group_ms(rng)
        B = 10
        clean = run_test("Pillai", ms, B=B, seed=7)
        assert clean.permutations_used == B
        observed = clean.components[0].statistic
        real = inference._pillai_stack
        kept = {}

        def make_degenerate(n_bad):
            def pillai_stack(weighted_cov, pooled_inv):
                # row 0 of the sweep is the observed labeling
                values = real(weighted_cov, pooled_inv)
                if len(values) == B + 1:
                    values[1 : 1 + n_bad] = np.nan
                    kept["values"] = values[1 + n_bad :]
                return values

            return pillai_stack

        monkeypatch.setattr(inference, "_pillai_stack", make_degenerate(2))
        report = run_test("Pillai", ms, B=B, seed=7)
        p = report.components[0].p_value
        assert p == (1 + np.sum(kept["values"] >= observed)) / (B - 2 + 1)
        assert report.permutations_used == B - 2
        monkeypatch.setattr(inference, "_pillai_stack", make_degenerate(3))
        with pytest.raises(UnstableStatisticError):
            run_test("Pillai", ms, B=B, seed=7)


def far_point_ms(row0_scale=1.0, scale=1.0) -> GroupedMultiSample:
    """12 points in two groups of 6: a distance-matrix space, with every entry
    scaled by ``scale`` and observation 0's row and column by ``row0_scale``,
    and a 1-D Euclidean space."""
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(12, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=2) * scale
    dist[0] *= row0_scale
    dist[:, 0] *= row0_scale
    spaces = [distance_matrix_space("D", dist), euclidean_space("E", rng.normal(size=(12, 1)))]
    return GroupedMultiSample(spaces, [0] * 6 + [1] * 6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteObservedStatistics:
    """One rule for all seven tests: a non-finite or invalid observed statistic
    raises the documented error, before numpy can warn about the arithmetic."""

    @pytest.mark.parametrize("name", TEST_NAMES)
    def test_overflowed_profile_raises_in_every_test(self, name):
        # at 1e200 the profile's pair products overflow; Pillai_d used to
        # report statistic = p_value = NaN with reject=False
        error = SingularMatrixError if name.startswith("R_") else DegenerateDataError
        with pytest.raises(error) as info:
            run_test(name, far_point_ms(row0_scale=1e200), B=19, seed=1)
        if name == "Pillai_d":
            assert str(info.value) == "component pillai_d: observed statistic nan"

    @pytest.mark.parametrize(
        "helper",
        [
            lambda ms: anova_stats_variance(ms, 0),
            lambda ms: anova_stats_covariance(ms, 0, 1),
            moment_set,
            pillai_distance,
        ],
    )
    def test_overflowed_profile_raises_in_scalar_helpers(self, helper):
        with pytest.raises(DegenerateDataError):
            helper(far_point_ms(row0_scale=1e200))

    def test_moment_set_names_the_group_as_a_plain_value(self):
        # numpy 2's repr read "group np.int64(0)"
        with pytest.raises(DegenerateDataError, match=r"column in group 0$"):
            moment_set(far_point_ms(row0_scale=1e200))
        x = np.array([-1.0, 1.0, -1.0, 1.0, 0.3, 1.2, -0.5, 2.0])  # group 7: constant profile
        ms = GroupedMultiSample([euclidean_space("e", x)], [7] * 4 + [1] * 4)
        with pytest.raises(DegenerateDataError, match=r"variance for group 7, space pair \(0, 0\)$"):
            moment_set(ms)

    @pytest.mark.parametrize("scale", [1e39, 1e-40])
    def test_t_fa_variance_product_out_of_range_raises(self, scale):
        # at 1e39 the product of two moment variances overflowed and T_1 read
        # 0.1953 (p 0.659) instead of 0.7804 (p 0.377); at 1e-40 it was
        # subnormal and T_1 read 0.78039 with no error
        ms = far_point_ms(scale=scale)
        with pytest.raises(DegenerateDataError, match="^component T_1: "):
            run_test("T_FA", ms, B=19, seed=1)
        with pytest.raises(DegenerateDataError, match="^component T_1: "):
            anova_stats_variance(ms, 0)
        assert anova_stats_variance(ms, 1) == anova_stats_variance(far_point_ms(), 1)

    def test_singular_permuted_rows_read_nan_and_keep_the_sweep(self):
        # labelings that split the zeros from the ones leave H + E = 0
        ms = GroupedMultiSample(
            [euclidean_space("e", np.array([0.0, 0, 0, 0, 1, 1, 1, 1])[:, None])],
            [0, 0, 0, 1, 1, 1, 1, 0],
        )
        pillai_d, pillai = run_tests(["Pillai_d", "Pillai"], ms, B=99, seed=1)
        assert (pillai_d.components[0].statistic, pillai_d.components[0].p_value) == (0.0, 1.0)
        assert (pillai.components[0].statistic, pillai.components[0].p_value) == (0.25, 0.49)
        codes = np.array([ms.codes, [0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 1, 1, 1, 1, 1, 0]])
        mom = StatEngine(ms).moments(codes)
        V, valid = _pillai_d_stack(mom, ms.n)
        assert np.isnan(V[1]) and valid.tolist() == [True, False, True]
        for l in (0, 2):
            row = dataclasses.replace(
                mom, **{f.name: getattr(mom, f.name)[l : l + 1] for f in dataclasses.fields(mom)}
            )
            assert _pillai_d_stack(row, ms.n)[0][0] == V[l]
