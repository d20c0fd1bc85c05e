"""Property tests of the invariances the R statistics inherit from their
geometry, run through the engine that both ``run_tests`` and the scalar
helpers use.

* Scaling one space's distances by c > 0 maps every covariance matrix M to
  D M D with D = diag(1, .., c, .., 1).  AIRM is invariant under that
  congruence (Pennec et al. 2006, IJCV), and correlation matrices do not
  change at all.  The matrix log is not: R_LERM's mean and covariance
  components depend on the units of each space (with one space's distances
  ×10^k at k = -3, 0, 3, R_mu_LERM reads 0.090334, 0.116872, 0.079169), and
  R_Euc's scale with them.
* Group ids only name the groups, so renaming them changes no statistic.
* Euclidean distances do not see a translation or rotation of the
  coordinates, so neither does any statistic of the seven tests; the
  rounding of far-off coordinates may move a permutation count by a tie.
* The add-one p-value (1 + count)/(B + 1) is never 0 (Phipson & Smyth 2010).
* T_FA's statistics are ratios of moments of equal degree, and the Pillai
  trace is invariant under rescaling a profile column, so scaling one space's
  distances by 10^k changes neither until the moments leave the float range;
  there every test raises a documented error instead.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricmanova.errors import MetricManovaError
from metricmanova.inference import TEST_NAMES, run_test, run_tests
from metricmanova.samples import GroupedMultiSample
from metricmanova.spaces import distance_matrix_space, euclidean_space

R_TESTS = ["R_Euc", "R_AIRM", "R_LERM"]
B = 9

few = settings(derandomize=True, max_examples=8, deadline=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
group_counts = st.integers(min_value=2, max_value=3)


def _points(seed, J):
    """Two Euclidean spaces (1-D and 2-D) for J groups of 8 to 12 points."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(8, 13, size=J)
    labels = np.repeat(np.arange(J), sizes)
    shift = labels[:, None] * rng.uniform(0.0, 1.0)
    x = rng.normal(size=(len(labels), 1)) + shift
    y = rng.normal(size=(len(labels), 2)) * (1.0 + 0.5 * shift)
    return [x, y], labels


def _statistics(coords, labels, names=R_TESTS):
    ms = GroupedMultiSample(
        [euclidean_space(f"s{s}", c) for s, c in enumerate(coords)], labels
    )
    reports = run_tests(names, ms, B=B, seed=3)
    return {(r.test_name, c.name): c for r in reports for c in r.components}


@few
@given(seed=seeds, J=group_counts, space=st.integers(0, 1), c=st.floats(0.1, 10.0))
def test_scaling_one_space_keeps_airm_and_correlation_components(seed, J, space, c):
    coords, labels = _points(seed, J)
    scaled = list(coords)
    scaled[space] = c * coords[space]
    before = _statistics(coords, labels)
    after = _statistics(scaled, labels)
    for key, component in before.items():
        if key[0] == "R_AIRM" or component.name.startswith("R_cor"):
            assert after[key].statistic == pytest.approx(component.statistic, rel=1e-9)


@few
@given(seed=seeds, J=group_counts, ids=st.lists(st.integers(-50, 50), min_size=3, max_size=3, unique=True))
def test_renaming_group_ids_keeps_every_r_statistic(seed, J, ids):
    coords, labels = _points(seed, J)
    renamed = np.asarray(ids)[labels]
    before = _statistics(coords, labels)
    after = _statistics(coords, renamed)
    for key, component in before.items():
        assert after[key].statistic == pytest.approx(component.statistic, rel=1e-9)


@few
@given(seed=seeds, J=group_counts)
def test_add_one_p_values_are_positive(seed, J):
    coords, labels = _points(seed, J)
    for component in _statistics(coords, labels, TEST_NAMES).values():
        assert 0.0 < component.p_value <= 1.0


@few
@given(seed=seeds, J=group_counts, offset=st.floats(0.0, 1.0e3))
def test_translating_and_rotating_coordinates_keeps_every_test(seed, J, offset):
    coords, labels = _points(seed, J)
    rng = np.random.default_rng(seed)
    moved = []
    for c in coords:
        q, r = np.linalg.qr(rng.normal(size=(c.shape[1], c.shape[1])))
        rotation = q * np.sign(np.diag(r))
        moved.append(c @ rotation + offset * rng.uniform(-1.0, 1.0, size=c.shape[1]))
    before = _statistics(coords, labels, TEST_NAMES)
    after = _statistics(moved, labels, TEST_NAMES)
    for key, component in before.items():
        assert after[key].statistic == pytest.approx(component.statistic, rel=1e-9)
        if key[0] not in ("T_FA", "Pillai_d"):
            assert abs(after[key].p_value - component.p_value) <= 2 / (B + 1)


def _reports_or_errors(ms):
    """Each test's report, or the package error it raised."""
    out = {}
    for name in TEST_NAMES:
        try:
            out[name] = run_test(name, ms, B=B, seed=3)
        except MetricManovaError as exc:
            out[name] = exc
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@few
@given(seed=seeds, J=group_counts, k=st.integers(-150, 150))
# at these scales the product of two of T_FA's moment variances overflows or
# is subnormal, and T_1 used to read a wrong value with no error
@example(seed=0, J=2, k=39)
@example(seed=0, J=2, k=-40)
# Pillai's singularity floor used to compare raw eigenvalues and raised here
@example(seed=0, J=2, k=6)
@example(seed=1, J=3, k=-30)
def test_scaling_distances_keeps_t_fa_and_pillai_d_or_raises(seed, J, k):
    coords, labels = _points(seed, J)
    dist = np.linalg.norm(coords[1][:, None] - coords[1][None], axis=2)

    def sample(scale):
        spaces = [distance_matrix_space("D", dist * scale), euclidean_space("x", coords[0])]
        return GroupedMultiSample(spaces, labels)

    before = _reports_or_errors(sample(1.0))
    after = _reports_or_errors(sample(10.0**k))
    if not isinstance(after["T_FA"], MetricManovaError):
        assert not isinstance(after["Pillai"], MetricManovaError)
    for name, report in after.items():
        if isinstance(report, MetricManovaError):
            continue
        for c, c0 in zip(report.components, before[name].components):
            assert np.isfinite(c.statistic) and 0.0 < c.p_value <= 1.0
            if name in ("T_FA", "Pillai_d", "Pillai"):
                assert c.statistic == pytest.approx(c0.statistic, rel=1e-9)


def test_lerm_components_depend_on_units_and_airm_components_do_not():
    # the 2-D space given as distances in three units: AIRM is invariant
    # under the congruence D M D a change of units makes, the matrix log is not
    coords, labels = _points(0, 2)
    dist = np.linalg.norm(coords[1][:, None] - coords[1][None], axis=2)
    stats = {}
    for k in (-3, 0, 3):
        spaces = [distance_matrix_space("D", dist * 10.0**k), euclidean_space("x", coords[0])]
        reports = run_tests(R_TESTS, GroupedMultiSample(spaces, labels), B=B, seed=3)
        stats[k] = {c.name: c.statistic for r in reports for c in r.components}
    for k in (-3, 3):
        for name in ("R_mu_AIRM", "R_cov_AIRM", "R_cor_AIRM"):
            assert stats[k][name] == pytest.approx(stats[0][name], rel=1e-9)
    mean_lerm = [stats[k]["R_mu_LERM"] for k in (-3, 0, 3)]
    assert mean_lerm == pytest.approx([0.090334, 0.116872, 0.079169], abs=1e-6)
    assert stats[3]["R_mu_Euc"] > 1e5 * stats[0]["R_mu_Euc"]
