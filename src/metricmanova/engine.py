"""Internal vectorized evaluation of group moments over label assignments.

Permutation tests recompute per-group Fréchet means, distance profiles, and
moment matrices for hundreds of label shuffles.  This module does that work
for a whole stack of labelings at once, through one (labelings, groups, n)
membership mask.  A group sum ``masks @ A`` gives both kinds of mean: with the
coordinates of an L2-embedded space (Gaussian-W2, Euclidean-L2, Laplacian-
Frobenius) as ``A`` it gives the centroids, and with the squared distance
matrix of any other space it gives each candidate's objective, whose argmin
inside the group is the medoid.  Only spaces with a user-supplied exact-mean
solver keep a loop over labelings and groups.  ``moments`` walks the
labelings in chunks small enough that each chunk's temporaries stay
resident in a core's L2 cache; that bounds memory too, but the point is
speed: fresh multi-megabyte temporaries cost more in page faults and memory
traffic than their arithmetic.  A labeling's results never depend on the
chunk it falls in.  The permutation sweep in ``inference.run_tests`` calls
``moments`` on coarser blocks, of ``_CHUNK_BUDGET // n`` labelings: a block's
widest array is its label stack, and the statistics evaluated on each block's
output cost a fixed overhead per call, so evaluating them per profile chunk
ran 2.8x slower (131 ms against 47 ms on a k=100 input with B=500).  The
pooled mean, and the clipped squared distances of
medoid spaces, do not depend on the labels, so they are computed once per
engine.

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

# float64 elements in a chunk's widest temporary.  128k elements (1 MiB)
# keep a chunk's working set near a 2 MiB per-core L2 cache.  Timing
# ``moments`` on the perfbench inputs (2-core x86 VM, 2 MiB L2 per core),
# 64k to 1M elements ran alike; 4M (32 MiB) ran the k=100 stacks 1.25-1.5x
# slower, and 32k fell to one k=100 labeling per chunk, 1.6x slower.
_CHUNK_BUDGET = 131_072


def _group_masks(codes: np.ndarray, J: int) -> np.ndarray:
    """(L, J, n) float membership masks of an (L, n) stack of group codes."""
    return (codes[:, None, :] == np.arange(J)[None, :, None]).astype(float)


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
        self._embeddings = [
            sp._fast.embedding if sp._fast is not None else None for sp in ms.spaces
        ]
        # medoid spaces: squared distances, clipped at the largest float so
        # that an overflowed square never meets a zero mask entry (0 * inf)
        big = np.finfo(float).max
        self._squares = [
            None if X is not None or sp.has_exact_mean
            else np.minimum(np.square(sp.pairwise()), big)
            for sp, X in zip(ms.spaces, self._embeddings)
        ]

    # -- distance profiles ----------------------------------------------------

    def group_profiles(
        self, codes: np.ndarray, masks: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """(L, n, S) distances from each observation to its group mean.

        ``masks`` may pass in ``_group_masks(codes, J)`` when the caller has it.
        """
        codes = np.asarray(codes, dtype=np.int64)
        L, n = codes.shape
        if masks is None:
            masks = _group_masks(codes, self.J)
        counts = masks.sum(axis=2)
        rows = np.arange(L)[:, None]
        out = np.empty((L, n, self.S), dtype=float)
        for s, (sp, X) in enumerate(zip(self.ms.spaces, self._embeddings)):
            if X is not None:
                means = (masks @ X) / counts[:, :, None]
                diff = means[rows, codes]
                np.subtract(X[None, :, :], diff, out=diff)
                out[:, :, s] = np.sqrt(np.einsum("lnk,lnk->ln", diff, diff))
            elif sp.has_exact_mean:
                for l in range(L):
                    for j in range(self.J):
                        idx = np.flatnonzero(codes[l] == j)
                        out[l, idx, s] = sp.distances_to(sp.mean_of(idx), idx)
            else:
                # medoid: the member with the least group sum of squared
                # distances, lowest index on ties.  Clipping the sums keeps
                # every member below the +inf that non-members get.
                sums = np.minimum(masks @ self._squares[s], np.finfo(float).max)
                sums[masks == 0.0] = np.inf
                medoids = np.argmin(sums, axis=2)
                out[:, :, s] = sp.pairwise()[np.arange(n), medoids[rows, codes]]
        return out

    # -- moments ----------------------------------------------------------------

    def moments(
        self,
        codes: np.ndarray,
        *,
        want_cor: bool = True,
        want_moment_var: bool = True,
    ) -> MomentStack:
        codes = np.asarray(codes, dtype=np.int64)
        L, n = codes.shape
        S, J = self.S, self.J

        counts = np.empty((L, J), dtype=float)
        col_mean = np.empty((L, J, S), dtype=float)
        group_cov = np.empty((L, J, S, S), dtype=float)
        moment_var = np.empty((L, J, S, S), dtype=float) if want_moment_var else None
        prod_sqmean = np.empty((L, J, S, S), dtype=float) if want_moment_var else None

        widths = [S * S, J] + [X.shape[1] for X in self._embeddings if X is not None]
        chunk = max(1, _CHUNK_BUDGET // (n * max(widths)))
        for start in range(0, L, chunk):
            sl = slice(start, min(start + chunk, L))
            c = codes[sl]
            masks = _group_masks(c, J)
            p = self.group_profiles(c, masks)
            cnt = masks.sum(axis=2)
            counts[sl] = cnt
            col_mean[sl] = np.einsum("cjn,cns->cjs", masks, p) / cnt[:, :, None]
            prods = p[:, :, :, None] * p[:, :, None, :]
            group_cov[sl] = (
                np.einsum("cjn,cnst->cjst", masks, prods) / cnt[:, :, None, None]
            )
            if want_moment_var:
                np.multiply(prods, prods, out=prods)
                sq = np.einsum("cjn,cnst->cjst", masks, prods)
                sq /= cnt[:, :, None, None]
                prod_sqmean[sl] = sq
                moment_var[sl] = sq - group_cov[sl] ** 2
            # free this chunk's temporaries before the next chunk makes its own
            del p, masks, prods

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
