"""Fréchet covariance and correlation estimators and group moment sets.

Two covariance flavors are provided.  The non-centered flavor is the mean of
the products of distances to the means; it is always non-negative and it is
the one the covariance matrices are built from.  The centered flavor is the
classical covariance applied to the distance columns and carries a sign.

All moments use the 1/n convention, never 1/(n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .engine import MomentStack, StatEngine
from .errors import DataError, DegenerateDataError
from .samples import (
    DistanceProfile,
    FrechetMeanResult,
    GroupedMultiSample,
    frechet_mean,
)
from .spd import SpdMatrix

_FLAVORS = ("noncentered", "centered")


def _check_columns(ds: np.ndarray, ds2: np.ndarray, min_n: int) -> Tuple[np.ndarray, np.ndarray]:
    ds = np.asarray(ds, dtype=float)
    ds2 = np.asarray(ds2, dtype=float)
    if ds.ndim != 1 or ds2.ndim != 1:
        raise ValueError("distance columns must be one-dimensional")
    if ds.shape != ds2.shape:
        raise ValueError(f"length mismatch: {ds.shape[0]} vs {ds2.shape[0]}")
    if ds.shape[0] < min_n:
        raise ValueError(f"need at least {min_n} observations")
    if not (np.all(np.isfinite(ds)) and np.all(np.isfinite(ds2))):
        raise DataError("non-finite distance value")
    if np.any(ds < 0) or np.any(ds2 < 0):
        raise DataError("negative distance value")
    return ds, ds2


@np.errstate(over="ignore", invalid="ignore")
def frechet_covariance(ds, ds2, flavor: str = "noncentered") -> float:
    """Fréchet covariance of two aligned distance-to-mean columns.

    ``noncentered`` is the mean of entrywise products (always >= 0);
    ``centered`` subtracts the column means first and may be negative.
    Distances whose products overflow give a non-finite value, not a warning.
    """
    if flavor not in _FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {_FLAVORS}")
    ds, ds2 = _check_columns(ds, ds2, 2 if flavor == "centered" else 1)
    if flavor == "noncentered":
        return float(np.mean(ds * ds2))
    return float(np.mean((ds - ds.mean()) * (ds2 - ds2.mean())))


def frechet_correlation(ds, ds2, flavor: str = "noncentered") -> float:
    """Fréchet correlation of two aligned distance columns.

    The non-centered value lies in [0, 1], the centered value in [-1, 1].
    A column without variation has no correlation, and columns whose Fréchet
    covariances overflow have none that can be computed; both raise
    :class:`DegenerateDataError`.
    """
    if flavor not in _FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {_FLAVORS}")
    ds, ds2 = _check_columns(ds, ds2, 2)
    denom_sq = frechet_covariance(ds, ds, flavor) * frechet_covariance(ds2, ds2, flavor)
    if denom_sq <= 0.0:
        variance = "Fréchet variance" if flavor == "noncentered" else "variance"
        raise DegenerateDataError(f"zero {variance} in a distance column")
    cov = frechet_covariance(ds, ds2, flavor)
    if not np.isfinite([cov, denom_sq]).all():
        raise DegenerateDataError("the Fréchet covariances of the distance columns overflow")
    return float(cov / np.sqrt(denom_sq))


def covariance_matrix(profile) -> SpdMatrix:
    """Fréchet covariance matrix (1/n) sum_i d_i d_i^T of a distance profile.

    The diagonal holds the per-space Fréchet variances.  The result is
    positive semi-definite by construction and strictly positive definite
    exactly when the profile rows span the whole space.
    """
    if not isinstance(profile, DistanceProfile):  # which checks the entries
        values = np.asarray(profile, dtype=float)
        profile = DistanceProfile(values[None, :] if values.ndim == 1 else values, "pooled")
    values = profile.values
    if values.size == 0:
        raise ValueError("empty distance profile")
    n = values.shape[0]
    with np.errstate(over="ignore"):  # SpdMatrix rejects an overflowed entry
        return SpdMatrix(values.T @ values / n)


def _row0(name: str) -> property:
    """A read-only view of row 0 of the ``stack`` field ``name``."""
    return property(lambda self: getattr(self.stack, name)[0])


@dataclass(frozen=True)
class MomentSet:
    """All first- and second-order group moments of a multisample.

    The group moments read row 0 of ``stack``, the engine's moments of the
    observed labeling.  ``group_cov[j]`` is group j's Fréchet covariance
    matrix (variances on the diagonal), ``group_cor[j]`` its centered
    correlation matrix, and ``moment_var[j]`` the moment-variance estimates
    for every covariance entry.  ``pooled_cov`` is built from distances to
    the all-observations pooled means, while ``weighted_cov`` is the
    group-proportion-weighted average of the group matrices.
    """

    stack: MomentStack
    group_ids: np.ndarray
    group_means: Tuple[Tuple[FrechetMeanResult, ...], ...]  # [group][space]
    pooled_means: Tuple[FrechetMeanResult, ...]  # [space]
    pooled_cov: np.ndarray  # (S, S)

    gammas = _row0("gammas")  # (J,)
    group_cov = _row0("group_cov")  # (J, S, S)
    group_cor = _row0("group_cor")  # (J, S, S)
    moment_var = _row0("moment_var")  # (J, S, S)
    weighted_cov = _row0("weighted_cov")  # (S, S)

    @property
    def counts(self) -> np.ndarray:
        """(J,) int64 group sizes."""
        return self.stack.counts[0].astype(np.int64)

    @property
    def n_groups(self) -> int:
        return len(self.group_ids)

    @property
    def n_spaces(self) -> int:
        return self.pooled_cov.shape[0]

    @property
    def group_variances(self) -> np.ndarray:
        """(J, S) per-group Fréchet variances (the covariance diagonals)."""
        return np.einsum("jss->js", self.group_cov)


def moment_set(ms: GroupedMultiSample) -> MomentSet:
    """Compute every group and pooled moment of ``ms``.

    Raises :class:`DegenerateDataError` when a moment-variance estimate or a
    correlation denominator vanishes (test-statistic denominators would blow
    up on such data).
    """
    engine = StatEngine(ms)
    mom = engine.moments(ms.codes[None, :])

    bad = mom.degenerate_var[0]
    if np.any(bad):
        j, s, t = np.argwhere(bad)[0]
        raise DegenerateDataError(
            f"degenerate moment variance for group {ms.group_ids[j].item()!r}, "
            f"space pair ({s}, {t})"
        )
    if not np.all(mom.cor_valid[0]):
        j = int(np.flatnonzero(~mom.cor_valid[0])[0])
        raise DegenerateDataError(
            f"zero-variance distance column in group {ms.group_ids[j].item()!r}"
        )

    group_means = tuple(
        tuple(frechet_mean(sp, ms.group_indices(j)) for sp in ms.spaces)
        for j in range(ms.n_groups)
    )
    return MomentSet(
        stack=mom,
        group_ids=ms.group_ids,
        group_means=group_means,
        pooled_means=tuple(engine.pooled_means),
        pooled_cov=engine.pooled_cov,
    )
