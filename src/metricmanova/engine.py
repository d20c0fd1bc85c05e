"""Internal vectorized evaluation of group moments over label assignments.

Permutation tests recompute per-group Fréchet means, distance profiles, and
moment matrices for hundreds of label shuffles.  This module does that work
for a whole stack of labelings at once: spaces whose metric is an L2
isometry in some coordinate embedding (Gaussian-W2, Euclidean-L2, Laplacian-
Frobenius) are handled with batched array arithmetic, everything else falls
back to a per-labeling loop over groups.  The pooled mean does not depend on
the labels, so pooled quantities are computed once per engine.

Everything here is deterministic: summations run in fixed index order and no
state is mutated after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .samples import GroupedMultiSample, frechet_mean

# a group moment-variance below this relative level counts as degenerate
DEGENERATE_REL_TOL = 1.0e-10
# a profile column variance below this relative level has no correlation
COLUMN_VAR_REL_TOL = 1.0e-14

_CHUNK_BUDGET = 4_000_000  # float64 elements per (chunk, n, S, S) temporary


@dataclass(frozen=True)
class MomentStack:
    """Per-labeling group moments; leading axis indexes the labelings.

    ``group_cov`` holds the non-centered second-moment matrices of the
    distance-profile rows (Fréchet covariance matrices, variances on the
    diagonal).  ``centered_cov``/``group_cor`` are the classical covariance
    and correlation of the profile columns within each group.  ``moment_var``
    is the variance estimate of each covariance entry (fourth-moment minus
    squared second-moment of the entry's product variable).  Fields after
    ``weighted_cov`` are None when they were not computed.
    """

    counts: np.ndarray  # (L, J)
    gammas: np.ndarray  # (L, J)
    group_cov: np.ndarray  # (L, J, S, S)
    weighted_cov: np.ndarray  # (L, S, S)
    col_mean: Optional[np.ndarray] = None  # (L, J, S)
    centered_cov: Optional[np.ndarray] = None  # (L, J, S, S)
    group_cor: Optional[np.ndarray] = None  # (L, J, S, S), NaN where degenerate
    cor_valid: Optional[np.ndarray] = None  # (L, J) bool
    moment_var: Optional[np.ndarray] = None  # (L, J, S, S)
    prod_sqmean: Optional[np.ndarray] = None  # (L, J, S, S) scale for degeneracy checks

    @property
    def degenerate_var(self) -> np.ndarray:
        """(L, J, S, S) mask of entries whose moment variance is degenerate."""
        scale = np.maximum(self.prod_sqmean, 1.0e-300)
        return self.moment_var <= DEGENERATE_REL_TOL * scale


class StatEngine:
    """Caches per-space data for one multisample and evaluates moments."""

    def __init__(self, ms: GroupedMultiSample):
        self.ms = ms
        self.n = ms.n
        self.S = ms.n_spaces
        self.J = ms.n_groups
        self.pooled_means = [frechet_mean(sp) for sp in ms.spaces]
        cols = []
        for sp, res in zip(ms.spaces, self.pooled_means):
            if res.index is not None:
                cols.append(sp.pairwise()[:, res.index])
            else:
                cols.append(sp.distances_to(res.mean))
        self.pooled_profile = np.column_stack(cols)
        self.pooled_cov = self.pooled_profile.T @ self.pooled_profile / self.n

    # -- distance profiles ----------------------------------------------------

    def group_profiles(self, codes: np.ndarray) -> np.ndarray:
        """(L, n, S) distances from each observation to its group mean."""
        codes = np.asarray(codes, dtype=np.int64)
        L, n = codes.shape
        out = np.empty((L, n, self.S), dtype=float)
        for s, sp in enumerate(self.ms.spaces):
            fast = sp._fast
            if fast is not None and fast.embedding is not None:
                out[:, :, s] = self._embedded_profile(fast.embedding, codes)
            else:
                out[:, :, s] = self._generic_profile(sp, codes)
        return out

    def _embedded_profile(self, X: np.ndarray, codes: np.ndarray) -> np.ndarray:
        L, n = codes.shape
        k = X.shape[1]
        out = np.empty((L, n), dtype=float)
        chunk = max(1, _CHUNK_BUDGET // max(1, n * k))
        group_axis = np.arange(self.J)
        for start in range(0, L, chunk):
            c = codes[start : start + chunk]
            C = c.shape[0]
            masks = (c[:, None, :] == group_axis[None, :, None]).astype(float)
            counts = masks.sum(axis=2)
            means = (masks @ X) / counts[:, :, None]
            mean_rows = means[np.arange(C)[:, None], c, :]
            diff = X[None, :, :] - mean_rows
            out[start : start + C] = np.sqrt(np.einsum("cnk,cnk->cn", diff, diff))
        return out

    def _generic_profile(self, sp, codes: np.ndarray) -> np.ndarray:
        L, n = codes.shape
        out = np.empty((L, n), dtype=float)
        use_solver = sp.has_exact_mean
        if not use_solver:
            dist = sp.pairwise()
            dist_sq = dist * dist
        for l in range(L):
            for j in range(self.J):
                idx = np.flatnonzero(codes[l] == j)
                if use_solver:
                    point = sp.mean_of(idx)
                    out[l, idx] = sp.distances_to(point, idx)
                else:
                    sub = dist_sq[np.ix_(idx, idx)]
                    medoid = idx[int(np.argmin(sub.mean(axis=1)))]
                    out[l, idx] = dist[idx, medoid]
        return out

    # -- moments ----------------------------------------------------------------

    def moments(
        self,
        codes: np.ndarray,
        *,
        want_cor: bool = True,
        want_moment_var: bool = True,
        profiles: Optional[np.ndarray] = None,
    ) -> MomentStack:
        codes = np.asarray(codes, dtype=np.int64)
        L, n = codes.shape
        S, J = self.S, self.J
        prof = self.group_profiles(codes) if profiles is None else profiles

        counts = np.empty((L, J), dtype=float)
        col_mean = np.empty((L, J, S), dtype=float)
        group_cov = np.empty((L, J, S, S), dtype=float)
        moment_var = np.empty((L, J, S, S), dtype=float) if want_moment_var else None
        prod_sqmean = np.empty((L, J, S, S), dtype=float) if want_moment_var else None

        chunk = max(1, _CHUNK_BUDGET // max(1, n * S * S))
        group_axis = np.arange(J)
        for start in range(0, L, chunk):
            sl = slice(start, min(start + chunk, L))
            c = codes[sl]
            p = prof[sl]
            masks = (c[:, None, :] == group_axis[None, :, None]).astype(float)
            cnt = masks.sum(axis=2)
            counts[sl] = cnt
            col_mean[sl] = np.einsum("cjn,cns->cjs", masks, p) / cnt[:, :, None]
            prods = p[:, :, :, None] * p[:, :, None, :]
            group_cov[sl] = (
                np.einsum("cjn,cnst->cjst", masks, prods) / cnt[:, :, None, None]
            )
            if want_moment_var:
                sq = np.einsum("cjn,cnst->cjst", masks, prods * prods)
                sq /= cnt[:, :, None, None]
                prod_sqmean[sl] = sq
                moment_var[sl] = sq - group_cov[sl] ** 2

        gammas = counts / float(n)
        weighted_cov = np.einsum("lj,ljst->lst", gammas, group_cov)
        centered_cov = group_cov - col_mean[:, :, :, None] * col_mean[:, :, None, :]

        group_cor = None
        cor_valid = None
        if want_cor:
            var = np.einsum("ljss->ljs", centered_cov)
            raw = np.einsum("ljss->ljs", group_cov)
            ok = var > COLUMN_VAR_REL_TOL * np.maximum(raw, 1.0e-300)
            cor_valid = np.all(ok, axis=2)
            sd = np.sqrt(np.where(var > 0, var, 1.0))
            group_cor = centered_cov / (sd[:, :, :, None] * sd[:, :, None, :])
            diag = np.arange(S)
            group_cor[:, :, diag, diag] = 1.0
            group_cor[~cor_valid] = np.nan

        return MomentStack(
            counts=counts,
            gammas=gammas,
            col_mean=col_mean,
            group_cov=group_cov,
            weighted_cov=weighted_cov,
            centered_cov=centered_cov,
            group_cor=group_cor,
            cor_valid=cor_valid,
            moment_var=moment_var,
            prod_sqmean=prod_sqmean,
        )
