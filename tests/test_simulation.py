"""Tests for the scenario generators and the Monte Carlo harness."""

import math
import pickle

import numpy as np
import pytest

from metricmanova.cli import main
from metricmanova.dataset import dumps_msd, save_msd
from metricmanova.engine import StatEngine
from metricmanova.inference import TEST_NAMES, run_tests
from metricmanova.rng import DATA_STREAM, TEST_STREAM, derive_rng, spawn_seed
from metricmanova.samples import GroupedMultiSample, frechet_mean
from metricmanova.simulation import (
    SCENARIO1_STUDIES,
    SCENARIO2_STUDIES,
    Scenario1Params,
    Scenario2Params,
    _degree_powers,
    ba_graph,
    estimate_rejection_rate,
    estimate_rejection_rates,
    gamma_covariates,
    gen_scenario1,
    gen_scenario2,
    sample_bivariate_normal,
    scenario_generator,
    study_grid,
)
from metricmanova.spaces import LaplacianMatrix, euclidean_space, laplacian_space

from oracles import oracle_ba_graph, oracle_gamma_covariates, oracle_scenario2


class TestBivariateNormal:
    def test_independence_when_rho_zero(self):
        rng = derive_rng(1)
        a, b = sample_bivariate_normal((0, 0), (1, 1), 0.0, 100_000, rng)
        assert abs(np.corrcoef(a, b)[0, 1]) < 4 / math.sqrt(100_000)

    def test_requested_correlation(self):
        rng = derive_rng(2)
        a, b = sample_bivariate_normal((0, 0), (2, 0.5), 0.9, 100_000, rng)
        assert np.corrcoef(a, b)[0, 1] == pytest.approx(0.9, abs=0.01)
        assert np.std(a) == pytest.approx(2.0, rel=0.02)
        assert np.std(b) == pytest.approx(0.5, rel=0.02)

    def test_zero_sds_collapse_to_mean(self):
        rng = derive_rng(3)
        a, b = sample_bivariate_normal((1.5, -2.0), (0, 0), 0.3, 50, rng)
        assert np.all(a == 1.5) and np.all(b == -2.0)

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            sample_bivariate_normal((0, 0), (1, 1), 1.0, 5, derive_rng(4))


class TestScenario1Params:
    def test_from_effect_maps_studies(self):
        assert Scenario1Params.from_effect(1, 0.7).delta == 0.7
        assert Scenario1Params.from_effect(2, 2.0).r == 2.0
        assert Scenario1Params.from_effect(3, 0.5).v == 0.5
        assert Scenario1Params.from_effect(4, 0.5).v == 0.5
        p5 = Scenario1Params.from_effect(5, 0.5)
        assert (p5.delta, p5.r, p5.v) == (0.5, 2.0, 0.45)

    def test_group1_rho_only_in_study4(self):
        assert Scenario1Params.from_effect(4, 0.2).group1_rho == pytest.approx(math.sqrt(0.5))
        assert Scenario1Params.from_effect(3, 0.2).group1_rho == 0.0

    def test_inactive_parameters_enforced(self):
        with pytest.raises(ValueError):
            Scenario1Params(study=1, delta=0.5, r=2.0)
        with pytest.raises(ValueError):
            Scenario1Params(study=5, delta=0.5, r=1.0, v=0.45)
        # a field the study does not set keeps its default exactly
        with pytest.raises(ValueError, match="v = 1e-12 is off"):
            Scenario1Params(study=2, r=2.0, v=1e-12)
        with pytest.raises(ValueError, match="unknown scenario/study"):
            Scenario1Params.from_effect(6, 0.5)

    @pytest.mark.parametrize("offset", [5e-10, -5e-10])
    def test_study5_path_tolerance_accepts(self, offset):
        p = Scenario1Params(study=5, delta=0.5, r=2.0 + offset, v=0.45 - offset)
        assert (p.r, p.v) == (2.0 + offset, 0.45 - offset)

    @pytest.mark.parametrize("field", ["r", "v"])
    @pytest.mark.parametrize("offset", [2e-9, -2e-9])
    def test_study5_path_tolerance_refuses(self, field, offset):
        on_path = {"delta": 0.5, "r": 2.0, "v": 0.45}
        on_path[field] += offset
        with pytest.raises(ValueError, match=f"{field} = .* off the study's path"):
            Scenario1Params(study=5, **on_path)

    def test_null_points(self):
        # study 1 at delta=0 and study 2 at r=1 coincide with the baseline
        p1 = Scenario1Params.from_effect(1, 0.0)
        p2 = Scenario1Params.from_effect(2, 1.0)
        assert (p1.delta, p1.r, p1.v) == (p2.delta, p2.r, p2.v) == (0.0, 1.0, 0.0)


class TestGenScenario1:
    def test_determinism(self):
        p = Scenario1Params.from_effect(3, 0.4, n1=30, n2=20)
        ms1 = gen_scenario1(p, seed=11)
        ms2 = gen_scenario1(p, seed=11)
        for s1, s2 in zip(ms1.spaces, ms2.spaces):
            assert np.array_equal(s1.coords, s2.coords)
        assert np.array_equal(ms1.labels, ms2.labels)

    def test_structure(self):
        ms = gen_scenario1(Scenario1Params.from_effect(1, 0.0, n1=10, n2=12), seed=1)
        assert ms.n == 22 and ms.n_spaces == 2 and ms.n_groups == 2
        assert ms.counts.tolist() == [10, 12]
        # every object is a unit-variance Gaussian
        for sp in ms.spaces:
            assert np.all(sp.coords[:, 1] == 1.0)

    def test_mean_shift_reaches_group2(self):
        p = Scenario1Params.from_effect(1, 1.0, n1=50, n2=4000)
        ms = gen_scenario1(p, seed=5)
        idx = ms.group_indices(1)  # group "2" has code 1
        res = frechet_mean(ms.spaces[0], subset=idx)
        assert res.mean.mu == pytest.approx(1.0, abs=0.05)


class TestBaGraph:
    def test_two_nodes_forced_path(self):
        lap, kf = ba_graph(2.5, 2, derive_rng(6))
        assert np.array_equal(lap.entries, [[1.0, -1.0], [-1.0, 1.0]])
        assert kf.tolist() == [1.0, 1.0]

    def test_handshake_identity(self):
        for gamma in (-1.0, 0.0, 2.5, 5.0):
            lap, kf = ba_graph(gamma, 10, derive_rng(7))
            assert kf.sum() == 2 * 9
            assert np.allclose(np.diag(lap.entries), kf)

    def test_tree_is_connected(self):
        for seed in range(20):
            lap, _ = ba_graph(1.5, 10, derive_rng(seed))
            eigs = np.linalg.eigvalsh(lap.entries)
            assert eigs[1] > 1e-9  # algebraic connectivity of a tree

    def test_extreme_gamma_gives_star(self):
        hits = 0
        trials = 200
        for seed in range(trials):
            _, kf = ba_graph(50.0, 10, derive_rng(1000 + seed))
            hits += int(kf.max() == 9)
        assert hits / trials > 0.95

    def test_larger_gamma_larger_hubs(self):
        max_at = {}
        for gamma in (0.0, 3.0):
            maxima = [ba_graph(gamma, 10, derive_rng(2000 + s))[1].max() for s in range(300)]
            max_at[gamma] = np.mean(maxima)
        assert max_at[3.0] > max_at[0.0]

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            ba_graph(1.0, 1, derive_rng(8))

    @pytest.mark.parametrize("gamma", [400.0, math.nan, math.inf, -math.inf])
    def test_non_finite_weights_are_rejected(self, gamma):
        # 9**400 overflows: the walk would link a node to itself
        with pytest.raises(ValueError, match="non-finite"):
            ba_graph(gamma, 10, derive_rng(1))

    def test_underflowing_weights_still_give_a_tree(self):
        # 2**-400 is tiny and 9**-400 underflows to 0: leaves attract every node
        lap, kf = ba_graph(-400.0, 10, derive_rng(1))
        assert kf.sum() == 2 * 9
        assert np.count_nonzero(np.triu(lap.entries, 1)) == 9
        assert np.linalg.eigvalsh(lap.entries)[1] > 1e-9


class TestGammaCovariates:
    def test_moment_identities(self):
        kf = np.array([1.0, 2.0, 4.0, 9.0])
        nu = 2.5
        rng = derive_rng(9)
        draws = np.stack([gamma_covariates(kf, nu, rng) for _ in range(20_000)])
        m = draws.shape[0]
        assert np.allclose(draws.mean(axis=0), kf, atol=3 * math.sqrt(nu / m) + 1e-9)
        assert np.allclose(draws.var(axis=0), nu, rtol=0.08)

    def test_scalar_draws_keep_the_array_stream(self):
        # the values and the generator state after them equal one array call's
        pick = np.random.default_rng(12)
        for trial in range(300):
            k = pick.integers(1, 12, size=pick.integers(1, 16)).astype(float)
            nu = pick.uniform(0.05, 20.0)
            ours, ref = derive_rng(trial), derive_rng(trial)
            draws = gamma_covariates(k, nu, ours)
            assert np.array_equal(draws, oracle_gamma_covariates(k, nu, ref))
            assert ours.random() == ref.random()


class TestGenScenario2:
    def test_determinism(self):
        p = Scenario2Params.from_effect(1, 2.7, n1=15, n2=15)
        ms1 = gen_scenario2(p, seed=13)
        ms2 = gen_scenario2(p, seed=13)
        for s1, s2 in zip(ms1.spaces, ms2.spaces):
            assert np.array_equal(s1.coords, s2.coords)

    def test_structure_and_validity(self):
        ms = gen_scenario2(Scenario2Params.from_effect(3, 2.0, n1=8, n2=8), seed=3)
        assert ms.n == 16 and ms.n_spaces == 2
        flat = ms.spaces[0].coords
        for row in flat:
            LaplacianMatrix(row.reshape(10, 10))  # validates every graph
        assert np.all(ms.spaces[1].coords > 0)  # gamma draws are positive

    def test_study_mappings(self):
        p = Scenario2Params.from_effect(4, 1.0)
        assert (p.gamma1, p.nu2) == (3.0, 3.0)
        assert (p.gamma2, p.nu1) == (2.5, 1.0)
        p = Scenario2Params.from_effect(4, 0.5)
        assert (p.gamma1, p.gamma2, p.nu1, p.nu2) == (2.75, 2.5, 1.0, 2.0)
        with pytest.raises(ValueError):
            Scenario2Params(study=3, gamma1=2.5, gamma2=2.5, nu1=1.0, nu2=-1.0)

    @pytest.mark.parametrize("gamma", [400.0, math.nan, math.inf])
    def test_non_finite_weights_are_rejected(self, gamma):
        with pytest.raises(ValueError, match="non-finite"):
            Scenario2Params(study=1, gamma1=gamma, gamma2=2.5)
        with pytest.raises(ValueError, match="non-finite"):
            Scenario2Params(study=2, gamma1=1.0, gamma2=gamma)
        # the weight table depends on the node count: 1**400 is finite
        assert Scenario2Params(study=1, gamma1=400.0, gamma2=2.5, nodes=2).nodes == 2

    def test_cli_rejects_overflowing_exponent(self, tmp_path, capsys):
        out = tmp_path / "s2.msd"
        argv = ["simulate", "--scenario", "2", "--study", "2", "--effect", "400",
                "--n1", "3", "--n2", "3", "--seed", "1", "--out", str(out)]
        assert main(argv) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_study1_null_point(self):
        # at gamma1 = 2.5 both groups share (gamma, nu) = (2.5, 1)
        p = Scenario2Params.from_effect(1, 2.5)
        assert p.gamma1 == p.gamma2 == 2.5
        assert p.nu1 == p.nu2 == 1.0


def _oracle_dataset(params, seed):
    laps, covs, labels = oracle_scenario2(params, derive_rng(seed))
    spaces = [
        laplacian_space("topology", laps),
        euclidean_space("covariates", covs, norm="L2"),
    ]
    return GroupedMultiSample(spaces, labels)


class TestScenario2StreamContract:
    """The table-driven tree builder against the per-step numpy definition."""

    @pytest.mark.parametrize("study", [1, 2, 3, 4])
    def test_datasets_are_byte_identical_to_the_oracle(self, study):
        for point, value in enumerate(study_grid(2, study)):
            for nodes in (2, 3, 10, 17):
                params = Scenario2Params.from_effect(
                    study, float(value), nodes=nodes, n1=2, n2=3
                )
                for k in range(20):
                    seed = spawn_seed(study, point, nodes, k)
                    got = gen_scenario2(params, seed)
                    want = _oracle_dataset(params, seed)
                    for a, b in zip(got.spaces, want.spaces):
                        assert a.coords.tobytes() == b.coords.tobytes()
                    assert got.codes.tobytes() == want.codes.tobytes()

    def test_weight_table_equals_the_per_step_power(self):
        # a last-bit change in one weight moves an attachment only when a
        # uniform lands within an ulp of a boundary, so datasets cannot show
        # it; on SIMD builds Python's ``**`` differs from numpy's ``power``
        nodes = 40
        rng = np.random.default_rng(9)
        for gamma in [-400.0, -1.0, 0.0, 0.5, 2.0, 2.5] + rng.uniform(-3, 6, 60).tolist():
            table = np.array(_degree_powers(gamma, nodes))
            for t in range(2, nodes):
                degrees = np.zeros(nodes)
                degrees[:t] = rng.integers(1, nodes, t)
                want = degrees[:t] ** gamma
                assert table[degrees[:t].astype(int)].tobytes() == want.tobytes()

    def test_ba_graph_is_the_oracle_and_leaves_the_same_state(self):
        gammas = [-400.0, -1.0, 0.0, 0.5, 1.0, 2.0, 50.0, 300.0]
        gammas += np.random.default_rng(8).uniform(-3.0, 6.0, 40).tolist()
        for gamma in gammas:
            for nodes in (2, 3, 10, 17, 40):
                if nodes > 10 and gamma == 300.0:
                    continue  # 16**300 overflows
                for seed in range(5):
                    got_rng, want_rng = derive_rng(seed), derive_rng(seed)
                    lap, kf = ba_graph(gamma, nodes, got_rng)
                    want_lap, want_kf = oracle_ba_graph(gamma, nodes, want_rng)
                    assert lap.entries.tobytes() == want_lap.tobytes()
                    assert kf.tobytes() == want_kf.tobytes()
                    assert got_rng.bit_generator.state == want_rng.bit_generator.state
                    assert got_rng.random() == want_rng.random()

    def test_simulate_files_equal_saved_oracle_datasets(self, tmp_path):
        for study, effect, nodes in ((1, 2.25, 10), (2, -0.625, 3), (3, 0.5, 17), (4, 0.75, 10)):
            argv = ["simulate", "--scenario", "2", "--study", str(study),
                    "--effect", repr(effect), "--nodes", str(nodes),
                    "--n1", "4", "--n2", "5", "--seed", "31", "--out",
                    str(tmp_path / "cli.msd")]
            assert main(argv) == 0
            params = Scenario2Params.from_effect(study, effect, nodes=nodes, n1=4, n2=5)
            save_msd(tmp_path / "oracle.msd", _oracle_dataset(params, 31))
            got = (tmp_path / "cli.msd").read_bytes()
            assert got == (tmp_path / "oracle.msd").read_bytes()


class TestStudyGrid:
    def test_ranges(self):
        g = study_grid(1, 2, 9)
        assert g[0] == 0.125 and g[-1] == 3.0 and len(g) == 9
        g = study_grid(1, 3, 5)
        assert g[0] == 0.0 and g[-1] == 0.9
        g = study_grid(2, 2, 3)
        assert g[0] == -1.0 and g[-1] == 2.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            study_grid(1, 9)
        with pytest.raises(ValueError):
            study_grid(3, 1)


class TestScenarioGenerator:
    @pytest.mark.parametrize("scenario, study", [
        (scenario, study)
        for scenario, table in ((1, SCENARIO1_STUDIES), (2, SCENARIO2_STUDIES))
        for study in table
    ])
    def test_generator_pickles(self, scenario, study):
        # a process pool sends its generator to the workers by pickle
        value = float(study_grid(scenario, study, 3)[1])
        gen = scenario_generator(scenario, study, value, n1=5, n2=6, nodes=5)
        clone = pickle.loads(pickle.dumps(gen))
        assert dumps_msd(clone(17)) == dumps_msd(gen(17))

    def test_unknown_scenario_or_study(self):
        for scenario, study in ((3, 1), (1, 6), (2, 5)):
            with pytest.raises(ValueError, match="unknown scenario/study"):
                scenario_generator(scenario, study, 0.0)


class TestRejectionRates:
    def test_always_rejecting_configuration(self):
        gen = scenario_generator(1, 1, 0.0, n1=20, n2=20)
        est = estimate_rejection_rate(
            "Pillai_d", gen, nsims=20, alpha=0.999999, B=1, seed=21
        )
        assert est.rate == 1.0
        assert est.mc_se == 0.0
        assert est.nsims == 20

    def test_determinism_and_parameter_field(self):
        gen = scenario_generator(1, 2, 3.0, n1=15, n2=15)
        a = estimate_rejection_rates(
            ["Pillai_d", "T_FA"], gen, nsims=10, alpha=0.05, B=1, seed=5, parameter=3.0
        )
        b = estimate_rejection_rates(
            ["Pillai_d", "T_FA"], gen, nsims=10, alpha=0.05, B=1, seed=5, parameter=3.0
        )
        assert a == b
        assert all(e.parameter == 3.0 for e in a)
        assert all(
            e.mc_se == pytest.approx(math.sqrt(e.rate * (1 - e.rate) / e.nsims))
            for e in a
        )

    def test_invalid_test_name(self):
        gen = scenario_generator(1, 1, 0.0)
        with pytest.raises(ValueError):
            estimate_rejection_rate("nope", gen, nsims=2, seed=1)

    def test_repeated_test_name_raises(self):
        # each report used to add to one key: both rows read the sum of the
        # two, 0.1 here, and a rate could pass 1
        gen = scenario_generator(1, 1, 0.0, n1=30, n2=30)
        with pytest.raises(ValueError, match="'T_FA' requested twice"):
            estimate_rejection_rates(["T_FA", "T_FA"], gen, nsims=40, B=1, seed=5)


def full_sweep_rates(names, generator, nsims, alpha, B, seed, ridge=False):
    """Rejection rates from full permutation sweeps, replicate by replicate
    with the seeds ``estimate_rejection_rates`` derives."""
    hits = np.zeros(len(names))
    for k in range(nsims):
        ms = generator(spawn_seed(seed, DATA_STREAM, k))
        reports = run_tests(names, ms, alpha=alpha, B=B,
                            seed=spawn_seed(seed, TEST_STREAM, k), ridge=ridge)
        hits += [r.global_reject for r in reports]
    return list(hits / nsims)


class TestEarlyStoppedRates:
    """``estimate_rejection_rates`` stops each sweep once no permutation-
    calibrated component can reject; its rates are the full sweeps'."""

    @pytest.mark.parametrize("scenario, study, value, alpha, B", [
        (1, 1, 0.0, 0.05, 99),   # null
        (1, 1, 0.0, 0.3, 49),    # alpha * (B + 1) / 3 = 5, an integer
        (1, 2, 3.0, 0.05, 99),   # power 1 for the R tests
        (1, 1, 0.25, 0.05, 59),  # between
        (2, 1, 2.5, 0.05, 49),   # scenario-2 null
    ])
    def test_rates_equal_full_sweeps(self, scenario, study, value, alpha, B):
        gen = scenario_generator(scenario, study, value, n1=15, n2=15, nodes=6)
        for ridge in (False, True):
            ests = estimate_rejection_rates(
                TEST_NAMES, gen, nsims=8, alpha=alpha, B=B, seed=13, ridge=ridge
            )
            assert [e.rate for e in ests] == full_sweep_rates(
                list(TEST_NAMES), gen, 8, alpha, B, 13, ridge
            )

    def test_null_point_sweeps_fewer_labelings(self, monkeypatch):
        labelings = []
        real = StatEngine.moments

        def spy(self, codes):
            labelings.append(len(codes))
            return real(self, codes)

        monkeypatch.setattr(StatEngine, "moments", spy)
        gen = scenario_generator(1, 1, 0.0, n1=20, n2=20)
        nsims, B = 10, 199
        estimate_rejection_rates(TEST_NAMES, gen, nsims=nsims, B=B, seed=3)
        assert sum(labelings) < nsims * (B + 1)


def tfa_null_reports(seed, nsims, alpha=0.05):
    """T_FA's reports on ``nsims`` scenario-1 null replicates.

    Replicate k's data comes from ``spawn_seed(seed, DATA_STREAM, k)``, as in
    ``estimate_rejection_rates``; T_FA needs no permutations, so at seed
    20260808 the first 1000 reports are the T_FA decisions criterion 1 counts.
    """
    gen = scenario_generator(1, 1, 0.0, n1=100, n2=100)
    return [
        run_tests(["T_FA"], gen(spawn_seed(seed, DATA_STREAM, k)), alpha=alpha)[0]
        for k in range(nsims)
    ]


def tfa_null_rejections(seed, nsims, alpha=0.05):
    """(component names, 0/1 array nsims x 3) for T_FA at the scenario-1 null."""
    reports = tfa_null_reports(seed, nsims, alpha)
    rows = [[int(c.reject) for c in report.components] for report in reports]
    return [c.name for c in reports[0].components], np.array(rows)


class TestChiSquareAnovaCalibration:
    def test_components_hold_their_level_at_scenario1_null(self):
        # criterion 1's 1000 data replicates and the next 1000 of its stream
        nsims = 2000
        names, hits = tfa_null_rejections(20260808, nsims)
        assert names == ["T_1", "T_2", "T_1_2"]
        level = 2 * 0.05 / (2 * 3)  # Bonferroni 2*alpha/(S(S+1)) with S=2
        # each component within 3 binomial standard errors of its level:
        # catches gross miscalibration, such as referring T to chi2_J
        band = 3 * math.sqrt(level * (1 - level) / nsims)
        for name, rate in zip(names, hits.mean(axis=0)):
            assert abs(rate - level) <= band, (name, rate, level, band)
        # the sum of the three sizes bounds T_FA's size; within 3 standard
        # errors of 3*level it rules out the components being ~50% liberal
        per_rep = hits.sum(axis=1)
        total = per_rep.mean()
        total_band = 3 * per_rep.std(ddof=1) / math.sqrt(nsims)
        assert abs(total - 3 * level) <= total_band, (total, 3 * level, total_band)
