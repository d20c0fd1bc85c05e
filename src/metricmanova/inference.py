"""Test statistics and the seven group-difference tests.

Statistic families
------------------
* Variance/covariance ANOVA triples (F, U, T) per space and per space pair:
  F contrasts the pooled moment with the group-weighted moment, U is the
  weighted sum of squared pairwise group differences scaled by moment
  variances, and T combines both into a statistic that is asymptotically
  chi-square with J-1 degrees of freedom under the null.
* R statistics: Riemannian distances (Euc/AIRM/LERM) between the pooled and
  group-weighted covariance matrices, and weighted pairwise distances between
  group covariance or correlation matrices.
* Pillai adaptations: ``pillai_adapted`` compares the group-weighted to the
  pooled covariance matrix via S - tr(Sigma_g Sigma_p^-1); ``pillai_distance``
  is the classical Pillai-Bartlett trace applied to the per-group distance
  profile, with the standard F approximation.

Tests
-----
Every test is a Bonferroni composite: each of its components is judged at
level alpha / (number of components), and the test rejects if any component
does.  ``R_Euc``/``R_AIRM``/``R_LERM`` have three permutation-calibrated
components (mean, covariance, correlation).  ``T_FA`` compares each of the
S(S+1)/2 ANOVA statistics against the chi-square upper quantile at that
level; ``T_FA_perm`` compares the same statistics against their permutation
distributions.  ``Pillai`` is permutation-calibrated and ``Pillai_d`` uses
the F approximation; each has one component.

Permutation p-values use the add-one estimator (1 + #{perm >= obs})/(B + 1),
with one set of label shuffles shared by all components of a test.  Replicate
``b``'s shuffle is drawn from an independent stream derived from ``(seed, b)``,
so p-values depend only on the data, the seed, and B.  Degenerate replicates
(NaN, inf, or an invalid matrix) are dropped from the count; more than 20% of
them raises :class:`UnstableStatisticError`.  In all seven tests a non-finite
or invalid observed statistic raises :class:`DegenerateDataError`
(:class:`SingularMatrixError` for an R component), since no count or
approximation can judge it; a Pillai trace at its bound min(S, J - 1) is
invalid.  The statistic kernels compute under an ``np.errstate`` that silences
the inf and NaN their validity masks catch, so the error comes unwarned.

Each statistic has one implementation, on a stack of L labelings
(``_r_stack``, ``_fa_stack``, ``_pillai_stack``, ``_pillai_d_stack``), and
``_perm_p`` is the one p-value count.  ``_r_stack`` evaluates all three R
targets on one matrix stack in a fixed order: the pooled covariance, the L
weighted covariances, the L*J group covariances and the L*J group
correlations.  ``_component_table`` reads the requested test names to choose
the stacks a block evaluates.  ``run_tests`` makes one sweep over
B + 1 labelings: row 0 is the observed labeling and row b + 1 is permutation
replicate b.  It walks the rows in blocks of ``_CHUNK_BUDGET // n``
labelings, drawing each block's shuffles with one batched ``permuted_labels``
call, and writes each component's values into one (B + 1,) array, so memory
grows with B by a few bytes per component and replicate.  The observed checks
run on row 0 of the first block; every permutation-calibrated component then
takes the same ``_perm_p`` path.

Monte Carlo loops read only the reject flags, so ``estimate_rejection_rates``
hands ``run_tests`` a private ``_Futility`` block schedule.  The sweep then
runs in growing blocks and stops once every permutation-calibrated component
is futile: (1 + count)/(B + 1) > level, the float expression of ``_perm_p``'s
p-value and level check, where count is the replicates at or above the
observed statistic.  The count never falls, at most B replicates are valid and
IEEE division is monotone in its denominator, so the full sweep's p-value
exceeds the level too, and every reject flag is the full sweep's (the exact,
futility-only case of sequential Monte Carlo tests; Besag & Clifford 1991,
Gandy 2009).  A stopped component is judged by ``_perm_p`` on the rows swept
and reports ``p_value=None``.  A degenerate row in any permutation-calibrated
component runs the sweep to B, so no prefix drops a row.  One difference
remains: a replicate whose swept rows are all valid, but whose unswept rows
would pass 20% degenerate, is kept where the full sweep raises
:class:`UnstableStatisticError`.  Without the schedule, as in the ``test``
command, the sweep is the one full sweep above.

``r_statistic`` and ``pillai_adapted`` are L=1 views that equal the observed
statistics of ``run_tests`` bit for bit, and ``pillai_distance`` reads the
report of ``run_test``.  ``ridge=True`` adds 1e-10 * trace/dim to the
diagonal of the AIRM and LERM inputs only; Euc is defined on every symmetric
matrix and is never ridged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from . import engine as _engine
from .distributions import chi2_sf, chi2_upper_quantile, f_sf
from .engine import MomentStack, StatEngine
from .errors import DegenerateDataError, SingularMatrixError, UnstableStatisticError
from .estimators import MomentSet
from .rng import check_seed, permuted_labels
from .samples import GroupedMultiSample
from .spd import (
    SPD_KINDS,
    _floor_ok,
    as_spd,
    stack_airm_sq,
    stack_matrix_log,
    stack_ridge,
)

TEST_NAMES = ("R_Euc", "R_AIRM", "R_LERM", "T_FA", "T_FA_perm", "Pillai", "Pillai_d")
R_TARGETS = ("mean", "cov", "cor")

_PERM_TESTS = frozenset({"R_Euc", "R_AIRM", "R_LERM", "T_FA_perm", "Pillai"})
_MAX_DEGENERATE_FRACTION = 0.2


@dataclass(frozen=True)
class ComponentResult:
    """One component of a test: its statistic and how it was judged."""

    name: str
    statistic: float
    p_value: Optional[float]
    threshold: Optional[float]
    level: float
    reject: bool


@dataclass(frozen=True)
class TestReport:
    """Outcome of one of the seven tests on one multisample."""

    test_name: str
    components: Tuple[ComponentResult, ...]
    alpha: float
    global_reject: bool
    permutations_used: int  # fewest valid replicates of any component; 0 if none permuted
    seed: Optional[int]


@functools.lru_cache(maxsize=64)
def _fa_threshold(df: int, level: float) -> float:
    """χ²_df critical value of each T_FA component at ``level``.  The quantile is
    a pure-Python bisection (about 1 ms at df = 1), and Monte Carlo loops ask
    for the same few (df, level) pairs on every replicate."""
    return chi2_upper_quantile(df, level)


# -- stacked statistic evaluation (shared by observed and permuted paths) ----


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _fa_stack(
    mom: MomentStack, pooled_cov: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """F, U, T matrices (L, S, S) plus validity mask; diagonal = per-space stats."""
    L, J = mom.counts.shape
    F = pooled_cov[None, :, :] - mom.weighted_cov
    degen = mom.degenerate_var
    valid = ~np.any(degen, axis=1)
    Vs = np.where(degen, 1.0, mom.moment_var)
    g = mom.gammas
    cov = mom.group_cov
    U = np.zeros_like(F)
    for j in range(J):
        for jp in range(j + 1, J):
            w = (g[:, j] * g[:, jp])[:, None, None]
            diff = cov[:, j] - cov[:, jp]
            # an overflowed or subnormal product would read U's term as 0 or
            # inexact, so only a finite normal one keeps the cell valid
            den = Vs[:, j] * Vs[:, jp]
            valid &= (den >= np.finfo(float).tiny) & (den < np.inf)
            U += w * diff * diff / den
    den_u = np.einsum("lj,ljst->lst", g, 1.0 / Vs)
    den_f = np.einsum("lj,ljst->lst", g * g, Vs)
    T = n * U / den_u + n * F * F / den_f
    U = np.where(valid, U, np.nan)
    T = np.where(valid, T, np.nan)
    return F, U, T, valid


@np.errstate(over="ignore", invalid="ignore")
def _r_stack(
    mom: MomentStack,
    pooled_cov: np.ndarray,
    kinds: Sequence[str],
    *,
    ridge: bool = False,
) -> Dict[Tuple[str, str], Tuple[np.ndarray, np.ndarray]]:
    """(values, validity) per (kind, target) over the labeling stack.

    ``"mean"`` is d(pooled, weighted); ``"cov"``/``"cor"`` sum
    gamma_j*gamma_j' d(M_j, M_j') over group pairs j < j'.  One stack holds,
    in this order, the pooled covariance, the L weighted covariances, the L*J
    group covariances and the L*J group correlations (an invalid one as I).
    Each distance is one (X, Y) index pair into it, so each kind makes one
    kernel call for all three targets.  The ridge repairs AIRM and LERM
    inputs only.  With AIRM or LERM requested the stack's logs are taken
    first; their mask is each matrix's one strict-PD test, AIRM's on A too.
    """
    L, J = mom.counts.shape
    eye = np.eye(pooled_cov.shape[0])
    cors = np.where(mom.cor_valid[:, :, None, None], mom.group_cor, eye)
    stack = np.concatenate([
        pooled_cov[None],
        mom.weighted_cov,
        mom.group_cov.reshape((L * J,) + eye.shape),
        cors.reshape((L * J,) + eye.shape),
    ])
    j1, j2 = np.triu_indices(J, 1)
    P = j1.size
    # stack index of row l's first group covariance and first group correlation
    cov_at = 1 + L + J * np.arange(L)[:, None]
    cor_at = cov_at + L * J
    X = np.concatenate([np.zeros(L, dtype=int), (cov_at + j1).ravel(), (cor_at + j1).ravel()])
    Y = np.concatenate([1 + np.arange(L), (cov_at + j2).ravel(), (cor_at + j2).ravel()])
    pair_w = mom.gammas[:, j1] * mom.gammas[:, j2]
    cor_ok = mom.cor_valid.all(axis=1)
    spd = stack_ridge(stack) if ridge else stack
    if "AIRM" in kinds or "LERM" in kinds:
        logs, log_ok = stack_matrix_log(spd)

    out: Dict[Tuple[str, str], Tuple[np.ndarray, np.ndarray]] = {}
    for kind in kinds:
        if kind == "AIRM":
            sq, ok = stack_airm_sq(spd[X], spd[Y], log_ok[X])
            d = np.sqrt(sq)
        else:
            points = logs if kind == "LERM" else stack
            d = np.linalg.norm(points[X] - points[Y], axis=(-2, -1))
            ok = log_ok[X] & log_ok[Y] if kind == "LERM" else np.ones(d.shape, dtype=bool)
        out[(kind, "mean")] = (d[:L], ok[:L])
        for target, part in (("cov", slice(L, L + L * P)), ("cor", slice(L + L * P, None))):
            d_t = d[part].reshape(L, P)
            vals = np.zeros(L)
            for p in range(P):
                vals += pair_w[:, p] * d_t[:, p]
            ok_t = ok[part].reshape(L, P).all(axis=1)
            out[(kind, target)] = (vals, ok_t & cor_ok if target == "cor" else ok_t)
    return out


def _pooled_inverse(pooled_cov: np.ndarray) -> np.ndarray:
    """Sigma_p^-1, once the correlation form D^-1/2 Sigma_p D^-1/2 clears the
    strict-PD floor.  Rescaling a space's distances scales D only, so the
    test has no units, as S - tr(Sigma_g Sigma_p^-1) has none.  A non-finite
    entry is left to the observed check of the statistic built on it."""
    if np.all(np.isfinite(pooled_cov)):
        d = np.diag(pooled_cov)
        if not np.all(d > 0.0):
            raise SingularMatrixError("pooled covariance matrix has a zero variance")
        s = 1.0 / np.sqrt(d)  # in range for every positive float d
        w = np.linalg.eigvalsh(pooled_cov * s[:, None] * s)
        if not _floor_ok(w[0], w[-1]):
            raise SingularMatrixError(
                f"pooled correlation matrix is singular (eigenvalue {w[0]:.6e})"
            )
    return np.linalg.inv(pooled_cov)


@np.errstate(over="ignore", invalid="ignore")
def _pillai_stack(weighted_cov: np.ndarray, pooled_inv: np.ndarray) -> np.ndarray:
    """S - tr(Sigma_g Sigma_p^-1) for an (L, S, S) stack of weighted covariances."""
    S = pooled_inv.shape[0]
    return S - np.einsum("lst,ts->l", weighted_cov, pooled_inv)


@np.errstate(over="ignore", invalid="ignore")
def _pillai_d_stack(
    mom: MomentStack, n: int, rows: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Classical one-way Pillai trace tr((H + E)^-1 H) of the group column
    means and scatters of each labeling (of the first ``rows``, else all), and
    its validity: below its bound min(S, J - 1).  A row whose H + E is exactly
    singular reads NaN."""
    counts, col_mean, scatter = mom.counts[:rows], mom.col_mean[:rows], mom.centered_cov[:rows]
    _, J, S = col_mean.shape
    grand = (counts[:, None, :] @ col_mean)[:, 0] / n
    dm = col_mean - grand[:, None, :]
    H = np.einsum("lj,ljs,ljt->lst", counts, dm, dm)
    total = H + np.einsum("lj,ljst->lst", counts, scatter)
    try:
        X = np.linalg.solve(total, H)
    except np.linalg.LinAlgError:
        # one row at a time gives the batched solve's bits on every other row
        X = np.full_like(H, np.nan)
        for l in range(len(H)):
            try:
                X[l] = np.linalg.solve(total[l], H[l])
            except np.linalg.LinAlgError:
                pass
    V = np.einsum("lss->l", X)
    return V, V < min(S, J - 1)


# -- public statistic operations ----------------------------------------------


def _fa_name(s: int, t: int) -> str:
    return f"T_{s + 1}" if s == t else f"T_{s + 1}_{t + 1}"


def _anova_cell(ms: GroupedMultiSample, s: int, t: int) -> Tuple[float, float, float]:
    """(F, U, T) of the ANOVA cell (s, t): a variance if s == t, else a covariance."""
    if ms.n_groups < 2:
        raise ValueError("at least two groups are required")
    for idx in (s, t):
        if not (0 <= idx < ms.n_spaces):
            raise ValueError(f"space index {idx} out of range")
    engine = StatEngine(ms)
    mom = engine.moments(ms.codes[None, :])
    F, U, T, valid = _fa_stack(mom, engine.pooled_cov, ms.n)
    if not valid[0, s, t]:
        raise DegenerateDataError(f"component {_fa_name(s, t)}: degenerate moment variance")
    return float(F[0, s, t]), float(U[0, s, t]), float(T[0, s, t])


def anova_stats_variance(ms: GroupedMultiSample, s: int) -> Tuple[float, float, float]:
    """(F, U, T) for the variance comparison in space ``s`` (0-based)."""
    return _anova_cell(ms, s, s)


def anova_stats_covariance(
    ms: GroupedMultiSample, s: int, s2: int
) -> Tuple[float, float, float]:
    """(F, U, T) for the covariance comparison of spaces ``s`` and ``s2``."""
    if s == s2:
        raise ValueError("covariance statistics need two distinct spaces")
    return _anova_cell(ms, s, s2)


def r_statistic(
    kind: str,
    target: str,
    moments: MomentSet,
    *,
    ridge: bool = False,
) -> float:
    """Riemannian comparison statistic.

    ``target="mean"`` measures d(pooled, group-weighted) covariance matrices;
    ``"cov"``/``"cor"`` sum gamma_j*gamma_j' d(M_j, M_j') over group pairs for
    the covariance and centered-correlation matrices respectively.
    """
    if kind not in SPD_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {SPD_KINDS}")
    if target not in R_TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {R_TARGETS}")
    checked = {
        "mean": (moments.pooled_cov, moments.weighted_cov),
        "cov": moments.group_cov,
        "cor": moments.group_cor,
    }[target]
    for mat in checked:
        as_spd(mat)  # asymmetric, indefinite or non-finite input raises
    cells = _r_stack(moments.stack, moments.pooled_cov, (kind,), ridge=ridge)
    vals, ok = cells[(kind, target)]
    if not ok[0]:
        raise SingularMatrixError(
            f"{_r_name(kind, target)}: singular matrix; consider ridge repair"
        )
    return float(vals[0])


def pillai_adapted(moments: MomentSet) -> float:
    """S - tr(Sigma_g Sigma_p^-1); near zero when groups share moments."""
    pooled_inv = _pooled_inverse(moments.pooled_cov)
    return float(_pillai_stack(moments.stack.weighted_cov, pooled_inv)[0])


def pillai_distance(ms: GroupedMultiSample) -> Tuple[float, float]:
    """Classical Pillai trace on the per-group distance profile, with the
    standard F-approximation p-value: the one component of ``Pillai_d``."""
    component = run_test("Pillai_d", ms).components[0]
    return component.statistic, component.p_value


def permutation_pvalue(
    stat: Callable[[GroupedMultiSample], float],
    ms: GroupedMultiSample,
    B: int,
    seed: int,
) -> float:
    """Label-permutation p-value of an arbitrary statistic.

    Permutes the group labels B times (object vectors stay intact), counting
    permuted values >= the observed one; returns (1 + count)/(B + 1).
    Replicates on which ``stat`` raises :class:`DegenerateDataError` or
    returns NaN or inf are dropped, as in :func:`run_tests`; more than 20% of
    them aborts with :class:`UnstableStatisticError`.  A non-finite observed
    value raises :class:`DegenerateDataError`.
    """
    if B < 1:
        raise ValueError(f"need at least one permutation, got B={B}")
    check_seed(seed)
    observed = float(stat(ms))
    values = np.empty(B)
    # label rows in blocks of at most _CHUNK_BUDGET labels, as in run_tests
    block = max(1, _engine._CHUNK_BUDGET // ms.n)
    for start in range(0, B, block):
        rows = permuted_labels(ms.labels, seed, range(start, min(start + block, B)))
        for b, labels in enumerate(rows, start):
            try:
                values[b] = stat(ms.with_labels(labels))
            except DegenerateDataError:
                values[b] = np.nan
    return _perm_p(observed, values, np.isfinite(values), "statistic")[0]


# -- the seven tests ----------------------------------------------------------


def _perm_p(
    observed: float, values: np.ndarray, valid: np.ndarray, name: str
) -> Tuple[float, int]:
    """Add-one p-value over the valid finite replicates, and their count."""
    if not np.isfinite(observed):
        raise DegenerateDataError(f"component {name}: observed statistic {observed!r}")
    count, n_valid = _exceedances(observed, values, valid)
    B = values.shape[0]
    if B - n_valid > _MAX_DEGENERATE_FRACTION * B:
        raise UnstableStatisticError(
            f"component {name}: {B - n_valid} of {B} permutation replicates degenerate"
        )
    return (1 + count) / (n_valid + 1), n_valid


def _exceedances(observed: float, values: np.ndarray, valid: np.ndarray) -> Tuple[int, int]:
    """Valid finite replicates at or above ``observed``, and the valid finite count."""
    valid = valid & np.isfinite(values)
    return int(np.sum(values[valid] >= observed)), int(valid.sum())


def _fa_components(S: int) -> Dict[str, Tuple[int, int]]:
    """The (s, t) entry of the T matrix behind each ANOVA component, in order."""
    pairs = [(s, s) for s in range(S)] + [(s, t) for s in range(S) for t in range(s + 1, S)]
    return {_fa_name(s, t): (s, t) for s, t in pairs}


def _r_name(kind: str, target: str) -> str:
    return f"R_mu_{kind}" if target == "mean" else f"R_{target}_{kind}"


def _component_names(name: str, S: int) -> list:
    """The components test ``name`` reports, in report order."""
    if name.startswith("R_"):
        return [_r_name(name[2:], target) for target in R_TARGETS]
    if name.startswith("T_FA"):
        return list(_fa_components(S))
    return [name.lower()]


def _component_table(
    mom: MomentStack,
    engine: StatEngine,
    names: Sequence[str],
    pooled_inv: Optional[np.ndarray],
    ridge: bool,
    observed: bool,
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """(values, validity) per component of the tests ``names`` over the
    labeling stack; ``pooled_inv`` is the pooled inverse when ``Pillai`` is
    among them.  ``Pillai_d`` is asymptotic, so it is evaluated on row 0 of the
    block that holds the observed labeling (``observed``) and nowhere else."""
    table = {}
    kinds = tuple(k for k in SPD_KINDS if f"R_{k}" in names)
    if kinds:
        for (kind, target), cell in _r_stack(mom, engine.pooled_cov, kinds, ridge=ridge).items():
            table[_r_name(kind, target)] = cell
    if "T_FA" in names or "T_FA_perm" in names:
        T = _fa_stack(mom, engine.pooled_cov, engine.n)[2]
        for comp_name, (s, t) in _fa_components(engine.S).items():
            table[comp_name] = (T[:, s, t], np.isfinite(T[:, s, t]))
    if "Pillai" in names:
        values = _pillai_stack(mom.weighted_cov, pooled_inv)
        table["pillai"] = (values, np.isfinite(values))
    if "Pillai_d" in names and observed:
        table["pillai_d"] = _pillai_d_stack(mom, engine.n, rows=1)
    return table


def run_test(
    name: str,
    ms: GroupedMultiSample,
    alpha: float = 0.05,
    B: int = 500,
    seed: int = 0,
    *,
    ridge: bool = False,
) -> TestReport:
    """Run one of the seven tests and report components and the global decision."""
    return run_tests([name], ms, alpha=alpha, B=B, seed=seed, ridge=ridge)[0]


def check_test_names(names: Sequence[str]) -> None:
    """Raise ``ValueError`` on an unknown or a repeated test name."""
    for k, name in enumerate(names):
        if name not in TEST_NAMES:
            raise ValueError(f"unknown test {name!r}; expected one of {TEST_NAMES}")
        if name in names[:k]:
            raise ValueError(f"test {name!r} requested twice")


class _Futility:
    """Block schedule of the decisions-only sweep (see ``run_tests``).

    It sets only the block lengths, never a statistic or a decision.  Each
    block costs a fixed 1-2 ms on a 2-core x86 VM (the statistic stacks and
    the label streams' set-up), as much as 20-30 rows.  At a null point most
    sweeps are decided within a few dozen rows, so the first block holds row
    0 and 32 replicates, and later blocks double.  A component with no
    exceedance yet looks like a rejection, which needs every row, so the rest
    is swept in one block.  One instance serves the replicates of one Monte
    Carlo estimate, all drawn at one parameter point: once most of at least
    two earlier replicates needed every row, a later replicate sweeps in one
    block from the start.
    """

    FIRST_REPLICATES = 32

    def __init__(self) -> None:
        self.swept = 0  # replicates swept
        self.needed = 0  # of which a component could still reject at the last row

    def first_block(self, rows: int) -> int:
        if self.swept >= 2 and 2 * self.needed > self.swept:
            return rows
        return 1 + self.FIRST_REPLICATES

    def next_block(self, open_counts: Optional[list], stop: int, rows: int) -> int:
        """Rows of the next block, given the exceedance counts of the components
        still open after ``stop`` rows (None once a row is degenerate)."""
        if open_counts is None or 0 in open_counts:
            return rows
        return 2 * (stop - 1)

    def record(self, open_counts: Optional[list]) -> None:
        self.swept += 1
        self.needed += open_counts != []


def _open_counts(
    table: Dict[str, Tuple[np.ndarray, np.ndarray]],
    levels: Dict[str, float],
    stop: int,
    B: int,
) -> Optional[list]:
    """Exceedance counts over rows 1 .. stop - 1 of the components that can
    still reject, or None if any of those rows is degenerate.  A component is
    futile, and left out, once (1 + count) / (B + 1) > level."""
    counts = []
    for comp_name, level in levels.items():
        values, valid = table[comp_name]
        count, n_valid = _exceedances(values[0], values[1:stop], valid[1:stop])
        if n_valid < stop - 1:
            return None
        if not (1 + count) / (B + 1) > level:
            counts.append(count)
    return counts


def run_tests(
    names: Sequence[str],
    ms: GroupedMultiSample,
    alpha: float = 0.05,
    B: int = 500,
    seed: int = 0,
    *,
    ridge: bool = False,
    _futility: Optional[_Futility] = None,
) -> list:
    """Run several tests on one multisample, sharing the permutation sweep.

    The permutation shuffles depend only on ``(seed, replicate)``, so the
    reports are identical to running each test separately with the same seed.

    ``_futility`` (private, for Monte Carlo loops that read only the reject
    flags) stops the sweep once no permutation-calibrated component can
    reject; see the module docstring.  The reject flags are the full sweep's,
    a stopped component's ``p_value`` is None, and ``permutations_used``
    counts the rows swept.
    """
    check_test_names(names)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if ms.n_groups < 2:
        raise ValueError("at least two groups are required")
    seed = check_seed(seed)
    needs_perm = any(name in _PERM_TESTS for name in names)
    if needs_perm and B < 1:
        raise ValueError(f"need at least one permutation, got B={B}")

    S, J, n = ms.n_spaces, ms.n_groups, ms.n
    if "Pillai_d" in names and n - J - S < 1:  # the F approximation's error df
        raise ValueError(f"need n - J - S >= 1 (n={n}, J={J}, S={S})")
    engine = StatEngine(ms)
    pooled_inv = _pooled_inverse(engine.pooled_cov) if "Pillai" in names else None
    tests = {name: _component_names(name, S) for name in names}
    levels = {name: alpha / len(comp_names) for name, comp_names in tests.items()}
    # the level of each permutation-calibrated component
    perm_levels = {c: levels[name] for name in tests if name in _PERM_TESTS for c in tests[name]}

    # the sweep: row 0 is the observed labeling, row b + 1 permutation
    # replicate b; a block's label stack holds at most _CHUNK_BUDGET labels
    rows = B + 1 if needs_perm else 1
    block = max(1, _engine._CHUNK_BUDGET // n)
    labels = np.empty((min(block, rows), n), dtype=np.int64)
    watch = _futility is not None and needs_perm
    size = _futility.first_block(rows) if watch else rows
    stop = 0
    while stop < rows:
        start, stop = stop, min(stop + min(size, block), rows)
        codes = labels[: stop - start]
        if start == 0:
            codes[0] = ms.codes
        first = max(start, 1)
        permuted_labels(ms.codes, seed, range(first - 1, stop - 1), out=codes[first - start:])
        mom = engine.moments(codes)
        cells = _component_table(mom, engine, names, pooled_inv, ridge, observed=start == 0)
        if start == 0:
            # observed statistics, with strict degeneracy errors
            for comp_name, (values, valid) in cells.items():
                if not valid[0] or not np.isfinite(values[0]):
                    if comp_name.startswith("R_"):
                        raise SingularMatrixError(
                            f"component {comp_name}: singular or degenerate "
                            "matrix; consider ridge repair"
                        )
                    raise DegenerateDataError(
                        f"component {comp_name}: observed statistic {float(values[0])!r}"
                    )
            table = {c: (np.empty(rows), np.empty(rows, dtype=bool)) for c in cells}
        for comp_name, (values, valid) in cells.items():  # Pillai_d's one row too
            table[comp_name][0][start:start + len(values)] = values
            table[comp_name][1][start:start + len(values)] = valid
        if watch:
            open_counts = _open_counts(table, perm_levels, stop, B)
            if open_counts == []:
                break  # every permutation-calibrated component is futile
            size = _futility.next_block(open_counts, stop, rows)
    if watch:
        _futility.record(open_counts)
    stopped = stop < rows

    reports = []
    for name, comp_names in tests.items():
        level = levels[name]
        threshold = _fa_threshold(J - 1, level) if name == "T_FA" else None
        components = []
        used = []  # valid replicates per permutation-calibrated component
        for comp_name in comp_names:
            values, valid = table[comp_name]
            statistic = float(values[0])
            if name == "T_FA":
                p = max(chi2_sf(statistic, J - 1), 5e-324)
                reject = statistic > threshold
            elif name == "Pillai_d":
                # the F approximation of a Pillai trace below its bound s (Pillai 1955)
                s = min(S, J - 1)
                m = (abs(S - J + 1) - 1) / 2.0
                r = (n - J - S - 1) / 2.0
                F = (2.0 * r + s + 1.0) * statistic / ((2.0 * m + s + 1.0) * (s - statistic))
                p = max(f_sf(F, round(s * (2 * m + s + 1)), round(s * (2 * r + s + 1))), 5e-324)
                reject = p <= level
            else:
                p, n_valid = _perm_p(statistic, values[1:stop], valid[1:stop], comp_name)
                used.append(n_valid)
                reject = p <= level
                if stopped:
                    p = None  # futile; a prefix p-value is not the test's
            components.append(
                ComponentResult(
                    name=comp_name,
                    statistic=statistic,
                    p_value=p,
                    threshold=threshold,
                    level=level,
                    reject=bool(reject),
                )
            )
        reports.append(
            TestReport(
                test_name=name,
                components=tuple(components),
                alpha=alpha,
                global_reject=any(c.reject for c in components),
                permutations_used=min(used, default=0),
                seed=seed,
            )
        )
    return reports
