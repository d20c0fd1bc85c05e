"""Simulation scenarios and the Monte Carlo rejection-rate harness.

Scenario 1 draws two groups of unit-variance Gaussians whose random locations
``(a, b)`` follow a bivariate normal; the five studies move the location mean,
the scale of ``b``, the correlation between ``a`` and ``b``, or all three at
once.  Scenario 2 draws random trees by degree-powered preferential attachment
together with node covariates whose Gamma distribution is tied to the final
node degrees, giving an intrinsic dependence between topology and covariates.

Each study is one entry of ``SCENARIO1_STUDIES`` or ``SCENARIO2_STUDIES``
(see there), which ``from_effect``, the scenario-1 path check, ``study_grid``,
``scenario_generator`` and the command line read through :func:`study_entry`.
Generators are ``functools.partial`` objects, so they pickle.

Scenario 2's stream contract: group by group, each tree draws one
``rng.random(nodes - 2)`` (value t - 2 places node t), then its ``nodes``
covariates in node order, the same draws as one ``rng.gamma`` of size
``nodes``.  The weights degree**gamma come from one table per group built by
numpy's ``power``, not by ``math.pow`` or ``**`` on Python floats: on SIMD
builds those differ from numpy in the last bit for some pairs, and the table
equals the per-step ``degrees ** gamma`` of the reference walk in
``tests/oracles.py``.  The walk keeps a running list of each node's weight
and changes one entry per attach, so its running sums add the same floats in
the same order as the reference's per-step ``cumsum``.

All generators are deterministic functions of their parameters and an integer
seed; replicate ``k`` of a sweep derives its seed from ``(seed, k)``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateDataError, UnstableStatisticError
from .inference import _Futility, check_test_names, run_tests
from .rng import DATA_STREAM, TEST_STREAM, check_seed, derive_rng, spawn_seed
from .samples import GroupedMultiSample
from .spaces import LaplacianMatrix, euclidean_space, gaussian_space, laplacian_space

_PATH_TOL = 1.0e-9

# study -> (parameter name, grid low, grid high, null value, fields), where
# fields(value) gives the dataclass fields the study sets at ``value``.  A
# scenario-1 study's first field carries the value itself, and the fields it
# does not set stay at their defaults.
SCENARIO1_STUDIES = {
    1: ("delta", -1.0, 1.0, 0.0, lambda x: {"delta": x}),
    2: ("r", 0.125, 3.0, 1.0, lambda x: {"r": x}),
    3: ("v", 0.0, 0.9, 0.0, lambda x: {"v": x}),
    4: ("v", 0.0, 0.9, math.sqrt(0.5), lambda x: {"v": x}),
    5: ("Delta", 0.0, 1.0, 0.0, lambda x: {"delta": x, "r": 1.0 + 2.0 * x, "v": 0.9 * x}),
}
SCENARIO2_STUDIES = {
    1: ("gamma1", 2.0, 3.0, 2.5, lambda x: {"gamma1": x, "gamma2": 2.5}),
    2: ("gamma1", -1.0, 2.0, 1.0, lambda x: {"gamma1": x, "gamma2": 1.0}),
    3: ("nu2", 0.125, 3.0, 1.0, lambda x: {"gamma1": 2.5, "gamma2": 2.5, "nu2": x}),
    4: ("Delta", 0.0, 1.0, 0.0,
        lambda x: {"gamma1": 2.5 + 0.5 * x, "gamma2": 2.5, "nu2": 1.0 + 2.0 * x}),
}


def study_entry(scenario: int, study: int) -> tuple:
    """The ``SCENARIO*_STUDIES`` entry of one study; ValueError if unknown."""
    studies = {1: SCENARIO1_STUDIES, 2: SCENARIO2_STUDIES}.get(scenario, {})
    if study not in studies:
        raise ValueError(f"unknown scenario/study ({scenario}, {study})")
    return studies[study]


@dataclass(frozen=True)
class Scenario1Params:
    """Two groups of unit-variance Gaussians in two Wasserstein-2 spaces.

    Group 1 baseline: a ~ N(0, 0.5^2), b ~ N(0, 0.2^2), independent except in
    study 4 where cor(a, b) = sqrt(0.5).  Group 2 uses mean shift ``delta`` on
    a, scale ratio ``r`` on b's standard deviation, and correlation ``v``.
    Study 5 moves (delta, r, v) along the path (1-D)*(0,1,0) + D*(1,3,0.9).
    """

    study: int
    delta: float = 0.0
    r: float = 1.0
    v: float = 0.0
    n1: int = 100
    n2: int = 100

    def __post_init__(self):
        fields = study_entry(1, self.study)[4]
        if self.r <= 0:
            raise ValueError(f"scale ratio must be positive, got {self.r}")
        if abs(self.v) >= 1:
            raise ValueError(f"correlation must lie in (-1, 1), got {self.v}")
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("both groups need at least 2 observations")
        # set fields lie on the path at the first one's value; the rest keep
        # their defaults exactly
        path = fields(getattr(self, next(iter(fields(0.0)))))
        for name in ("delta", "r", "v"):
            value = getattr(self, name)
            if (abs(value - path[name]) > _PATH_TOL if name in path
                    else value != getattr(Scenario1Params, name)):
                raise ValueError(
                    f"study {self.study}: {name} = {value!r} is off the study's "
                    f"path, which moves {', '.join(path)} only"
                )

    @property
    def group1_rho(self) -> float:
        return math.sqrt(0.5) if self.study == 4 else 0.0

    @classmethod
    def from_effect(cls, study: int, value: float, n1: int = 100, n2: int = 100) -> "Scenario1Params":
        """Parameters with the study's moving parameter set to ``value``."""
        return cls(study=study, n1=n1, n2=n2, **study_entry(1, study)[4](value))


@dataclass(frozen=True)
class Scenario2Params:
    """Two groups of random trees plus node covariates.

    ``gamma1``/``gamma2`` are the preferential-attachment exponents and
    ``nu1``/``nu2`` the covariate variances of groups 1 and 2.  Study 4 moves
    (gamma1, nu2) along (1-D)*(2.5,1) + D*(3,3).
    """

    study: int
    gamma1: float
    gamma2: float
    nu1: float = 1.0
    nu2: float = 1.0
    nodes: int = 10
    n1: int = 100
    n2: int = 100

    def __post_init__(self):
        study_entry(2, self.study)
        if self.nu1 <= 0 or self.nu2 <= 0:
            raise ValueError("covariate variances must be positive")
        if self.nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.nodes}")
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("both groups need at least 2 observations")
        for gamma in (self.gamma1, self.gamma2):
            _degree_powers(gamma, self.nodes)

    @classmethod
    def from_effect(
        cls, study: int, value: float, nodes: int = 10, n1: int = 100, n2: int = 100
    ) -> "Scenario2Params":
        """Parameters with the study's moving parameter set to ``value``."""
        return cls(study=study, nodes=nodes, n1=n1, n2=n2, **study_entry(2, study)[4](value))


def study_grid(scenario: int, study: int, points: int = 9) -> np.ndarray:
    """Evenly spaced parameter grid covering the study's range."""
    if points < 1:
        raise ValueError(f"grid needs at least one point, got {points}")
    _, lo, hi, _, _ = study_entry(scenario, study)
    return np.linspace(lo, hi, points)


def sample_bivariate_normal(
    mu: Tuple[float, float],
    sds: Tuple[float, float],
    rho: float,
    n: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """n draws of (a, b) with the requested means, sds, and correlation.

    Generated as a = mu1 + s1*z1 and b = mu2 + s2*(rho*z1 + sqrt(1-rho^2)*z2)
    from independent standard normals.
    """
    if abs(rho) >= 1:
        raise ValueError(f"correlation must lie in (-1, 1), got {rho}")
    if sds[0] < 0 or sds[1] < 0:
        raise ValueError("standard deviations must be non-negative")
    z = rng.standard_normal((n, 2))
    a = mu[0] + sds[0] * z[:, 0]
    b = mu[1] + sds[1] * (rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1])
    return a, b


def gen_scenario1(params: Scenario1Params, seed: int) -> GroupedMultiSample:
    """One scenario-1 dataset: two Wasserstein-2 Gaussian spaces, two groups."""
    rng = derive_rng(seed)
    a1, b1 = sample_bivariate_normal(
        (0.0, 0.0), (0.5, 0.2), params.group1_rho, params.n1, rng
    )
    a2, b2 = sample_bivariate_normal(
        (params.delta, 0.0), (0.5, 0.2 * params.r), params.v, params.n2, rng
    )
    a = np.concatenate([a1, a2])
    b = np.concatenate([b1, b2])
    ones = np.ones_like(a)
    space1 = gaussian_space("X1", np.column_stack([a, ones]))
    space2 = gaussian_space("X2", np.column_stack([b, ones]))
    labels = np.repeat([1, 2], [params.n1, params.n2])
    return GroupedMultiSample([space1, space2], labels)


def _degree_powers(gamma: float, nodes: int) -> list:
    """[0, 1**gamma, ..., (nodes - 1)**gamma] by numpy's ``power``, all finite."""
    with np.errstate(over="ignore"):
        powers = np.arange(1, nodes, dtype=float) ** gamma
    if not (math.isfinite(gamma) and np.all(np.isfinite(powers))):
        raise ValueError(f"attachment exponent {gamma} gives non-finite degree weights")
    return [0.0] + powers.tolist()


def _grow_trees(
    gamma: float, laps: np.ndarray, rng: np.random.Generator, covs=None, nu=1.0
) -> np.ndarray:
    """Write a tree into each row of the zeroed (count, nodes, nodes) ``laps``.

    Node t attaches where ``bisect_right`` (``searchsorted(side="right")``)
    puts u times the total in the running weight sums (``accumulate`` adds
    left to right, as ``np.cumsum`` does) of each node's ``weight[degree]``.
    Given ``covs``, each tree's covariates are drawn into it before the next
    tree.  Returns the degrees.
    """
    count, nodes, _ = laps.shape
    weight = _degree_powers(gamma, nodes)
    parents, degrees, draws = [], [], []
    for _ in range(count):
        deg, w, parent = [1, 1], [weight[1], weight[1]], [0]
        for u in rng.random(nodes - 2).tolist():
            cum = list(accumulate(w))
            target = bisect_right(cum, u * cum[-1])
            parent.append(target)
            deg[target] += 1
            w[target] = weight[deg[target]]
            deg.append(1)
            w.append(weight[1])
        parents.append(parent)
        degrees.append(deg)
        if covs is not None:
            draws.append(_gamma_draws(deg, nu, rng))
    if covs is not None:
        covs[...] = draws
    degrees, parents = np.array(degrees, dtype=float), np.array(parents, dtype=np.intp)
    tree, child, node = np.arange(count)[:, None], np.arange(1, nodes), np.arange(nodes)
    laps[tree, parents, child] = laps[tree, child, parents] = -1.0
    laps[:, node, node] = degrees
    return degrees


def ba_graph(
    gamma: float, nodes: int, rng: np.random.Generator
) -> Tuple[LaplacianMatrix, np.ndarray]:
    """Random tree by degree-powered preferential attachment.

    Starting from a single node, each new node attaches by one edge to an
    existing node with probability proportional to degree**gamma; the second
    node necessarily attaches to the first.  Returns the graph Laplacian and
    the final degrees in construction order.

    The one-tree view of :func:`gen_scenario2`'s builder: it draws exactly
    ``rng.random(nodes - 2)`` and reads degree**gamma from a numpy-built table
    (see the module docstring).  A ``gamma`` that is not finite or makes a
    weight overflow raises ``ValueError``.
    """
    if nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {nodes}")
    laps = np.zeros((1, nodes, nodes))
    degrees = _grow_trees(gamma, laps, rng)
    return LaplacianMatrix(laps[0]), degrees[0]


def gamma_covariates(
    final_degrees: np.ndarray, nu: float, rng: np.random.Generator
) -> np.ndarray:
    """Node covariates: independent Gamma draws with mean k_f and variance nu.

    One scalar ``rng.gamma`` call per node, in node order: the same values and
    stream as one array call ``rng.gamma(k * k / nu, nu / k)``, without its
    per-call array handling.
    """
    degrees = np.asarray(final_degrees, dtype=float).tolist()
    return np.array(_gamma_draws(degrees, nu, rng), dtype=float)


def _gamma_draws(degrees: list, nu: float, rng: np.random.Generator) -> list:
    """``rng.gamma(d * d / nu, nu / d)`` for each degree d, in order.  An int
    d gives the same floats as float(d) while d * d is exact."""
    nu = float(nu)
    return [rng.gamma(d * d / nu, nu / d) for d in degrees]


def gen_scenario2(params: Scenario2Params, seed: int) -> GroupedMultiSample:
    """One scenario-2 dataset: Laplacian space plus node-covariate space."""
    rng = derive_rng(seed)
    laps = np.zeros((params.n1 + params.n2, params.nodes, params.nodes))
    covs = np.empty(laps.shape[:2])
    g1, g2 = slice(params.n1), slice(params.n1, None)
    _grow_trees(params.gamma1, laps[g1], rng, covs[g1], params.nu1)
    _grow_trees(params.gamma2, laps[g2], rng, covs[g2], params.nu2)
    space1 = laplacian_space("topology", laps)
    space2 = euclidean_space("covariates", covs, norm="L2")
    labels = np.repeat([1, 2], [params.n1, params.n2])
    return GroupedMultiSample([space1, space2], labels)


def _generate(params, seed: int) -> GroupedMultiSample:
    """One dataset of ``params``' scenario.  The generator is looked up by
    name at each call, so a rebound ``gen_scenario*`` takes effect."""
    if isinstance(params, Scenario1Params):
        return gen_scenario1(params, seed)
    return gen_scenario2(params, seed)


def scenario_generator(
    scenario: int, study: int, value: float, n1: int = 100, n2: int = 100, nodes: int = 10
) -> Callable[[int], GroupedMultiSample]:
    """A seeded, picklable generator for one scenario/study at one value."""
    study_entry(scenario, study)  # a scenario other than 1 or 2 raises here
    if scenario == 1:
        params = Scenario1Params.from_effect(study, value, n1=n1, n2=n2)
    else:
        params = Scenario2Params.from_effect(study, value, nodes=nodes, n1=n1, n2=n2)
    return partial(_generate, params)


@dataclass(frozen=True)
class RejectionEstimate:
    """Monte Carlo rejection-rate estimate for one test at one parameter."""

    test_name: str
    parameter: Optional[float]
    rate: float
    mc_se: float
    nsims: int
    seed: int


def estimate_rejection_rates(
    test_names: Sequence[str],
    generator: Callable[[int], GroupedMultiSample],
    nsims: int,
    alpha: float = 0.05,
    B: int = 500,
    seed: int = 0,
    parameter: Optional[float] = None,
    *,
    ridge: bool = False,
) -> list:
    """Rejection proportion of several tests over seeded replicates.

    Replicate k generates its data with a seed derived from (seed, k) and runs
    every requested test on it, sharing one permutation sweep.  Replicates on
    which the test machinery reports degeneracy are dropped; more than 1% of
    them aborts the estimate.  A test name may appear once.

    Only reject flags are read, so each sweep stops early once every
    permutation-calibrated component is futile: (1 + count)/(B + 1) already
    exceeds its level, where count is the replicates at or above the observed
    statistic, so no later replicate can bring its p-value down to the level.
    Every flag, and so every rate, equals the full sweep's.  A sweep runs to
    B once any swept row is degenerate.  One difference remains: a replicate
    whose swept rows are all valid, but whose unswept rows would take it past
    20% degenerate, is kept here where the full sweep drops it as
    :class:`UnstableStatisticError`.
    """
    if nsims < 1:
        raise ValueError(f"need at least one replicate, got nsims={nsims}")
    test_names = list(test_names)
    check_test_names(test_names)
    seed = check_seed(seed)
    rejects = {name: 0 for name in test_names}
    errors = 0
    used = 0
    futility = _Futility()
    for k in range(nsims):
        ms = generator(spawn_seed(seed, DATA_STREAM, k))
        try:
            reports = run_tests(
                test_names,
                ms,
                alpha=alpha,
                B=B,
                seed=spawn_seed(seed, TEST_STREAM, k),
                ridge=ridge,
                _futility=futility,
            )
        except DegenerateDataError:
            errors += 1
            continue
        used += 1
        for report in reports:
            rejects[report.test_name] += int(report.global_reject)
    if errors > 0.01 * nsims:
        raise UnstableStatisticError(
            f"{errors} of {nsims} simulation replicates were degenerate"
        )
    out = []
    for name in test_names:
        rate = rejects[name] / used
        out.append(
            RejectionEstimate(
                test_name=name,
                parameter=parameter,
                rate=rate,
                mc_se=math.sqrt(rate * (1.0 - rate) / used),
                nsims=used,
                seed=seed,
            )
        )
    return out


def estimate_rejection_rate(
    test_name: str,
    generator: Callable[[int], GroupedMultiSample],
    nsims: int,
    alpha: float = 0.05,
    B: int = 500,
    seed: int = 0,
    parameter: Optional[float] = None,
    *,
    ridge: bool = False,
) -> RejectionEstimate:
    """Single-test variant of :func:`estimate_rejection_rates`."""
    return estimate_rejection_rates(
        [test_name], generator, nsims, alpha=alpha, B=B, seed=seed,
        parameter=parameter, ridge=ridge,
    )[0]
