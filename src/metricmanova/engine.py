"""Internal vectorized evaluation of group moments over label assignments.

Permutation tests recompute per-group Fréchet means, distance profiles, and
moment matrices for hundreds of label shuffles.  This module does that work
for a whole stack of labelings at once.  An (L, n) stack of group codes is
the engine's only input, and ``moments`` returns every ``MomentStack`` field
for each labeling, so its arithmetic and chunk lengths do not depend on which
statistics the caller reads.  ``group_profiles`` builds one (labelings,
groups, n) membership mask from the codes.  A group sum ``masks @ A`` gives
both kinds of mean: with the coordinates of an L2-embedded space
(Gaussian-W2, Euclidean-L2, Laplacian-Frobenius) as ``A`` it gives the
centroids, and with the squared distance matrix of any other space each
candidate's objective; the medoid is the lowest-index member within
2(n_j - 1)·eps·min of the group's least objective, whatever the summation
order.  Only spaces with a user-supplied exact-mean solver keep a loop over
labelings and groups.  ``moments`` walks the labelings in chunks small enough
that each chunk's temporaries stay resident in a core's L2 cache; that bounds
memory too, but the point is speed: fresh multi-megabyte temporaries cost
more in page faults and memory traffic than their arithmetic.  A labeling's
results never depend on the chunk it falls in.  The permutation sweep in
``inference.run_tests`` calls ``moments`` on coarser blocks, of at most
``_CHUNK_BUDGET // n`` labelings: a block's widest array is its label stack,
and the statistics evaluated on each block's output cost a fixed overhead per
call, so evaluating them per profile chunk ran 2.8x slower (131 ms against
47 ms on a k=100 input with B=500).  The pooled means and their distance
columns, and the clipped squared distances of medoid spaces, do not depend on
the labels, so they are computed once per engine; each pooled column is the
one ``frechet_mean`` measures.

Most axes here are only 2 or 3 wide (coordinates, spaces, groups), so data
moves over long axes.  A gather takes one flat row index per observation,
``labeling * J + group``, into the (L * J, ...) stack of group means or
medoids, and a medoid distance is one flat index into the distance matrix.
``group_profiles`` fills one contiguous (L, n) column per space.  ``moments``
sums every column, the S profiles, their S(S+1)/2 unique pair products and
the products' squares, with one ``np.bincount`` over that flat index, which
also counts each group's members.  bincount adds each observation to its bin
in index order, so every group sum adds its members one at a time in
observation order.  That order defines the bits of every statistic, and with
them the continuous T_FA and Pillai_d p-values.  An overflowed product stays
inf in its own group's sum.  The norm einsum and ``masks @ X`` keep their
operand layout and chunking; for one- and two-dimensional embeddings the
squared norm is the einsum's arithmetic spelt out in ufuncs.

Everything here is deterministic: summations run in fixed index order and no
state is mutated after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .samples import GroupedMultiSample, _clipped_squares, _mean_and_distances, _medoids

# a group moment-variance below this relative level counts as degenerate
DEGENERATE_REL_TOL = 1.0e-10
# a profile column variance below this relative level has no correlation
COLUMN_VAR_REL_TOL = 1.0e-14

# a chunk holds _CHUNK_BUDGET // (n * max(F, J, widest embedding)) labelings,
# F the number of columns ``moments`` sums.  Timing ``moments`` on the
# perfbench inputs (2-core x86 VM, 2 MiB L2 per core), 64k to 1M elements
# ran alike; 4M ran the k=100 stacks 1.25-1.5x slower, and 32k fell to one
# k=100 labeling per chunk, 1.6x slower.  F no longer sizes an array, but a
# budget over the widest array alone gives 327-labeling chunks on scenario 1
# (n=200, S=2), against 81, and ``moments`` ran 1.4-1.5x slower there.
_CHUNK_BUDGET = 131_072


def _group_means(flat: np.ndarray, col: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(c, J) group means of a (c, n) column; bincount adds each observation to
    its bin ``flat`` (labeling * J + group) in index order."""
    sums = np.bincount(flat, weights=col.ravel(), minlength=counts.size)
    return sums.reshape(counts.shape) / counts


@dataclass(frozen=True)
class MomentStack:
    """Per-labeling group moments; leading axis indexes the labelings.

    ``group_cov`` holds the non-centered second-moment matrices of the
    distance-profile rows (Fréchet covariance matrices, variances on the
    diagonal).  ``centered_cov``/``group_cor`` are the classical covariance
    and correlation of the profile columns within each group.  ``moment_var``
    is the variance estimate of each covariance entry (fourth-moment minus
    squared second-moment of the entry's product variable).  ``moments``
    fills every field for every labeling.
    """

    counts: np.ndarray  # (L, J)
    gammas: np.ndarray  # (L, J)
    group_cov: np.ndarray  # (L, J, S, S)
    weighted_cov: np.ndarray  # (L, S, S)
    col_mean: np.ndarray  # (L, J, S)
    centered_cov: np.ndarray  # (L, J, S, S)
    group_cor: np.ndarray  # (L, J, S, S), NaN where degenerate
    cor_valid: np.ndarray  # (L, J) bool
    moment_var: np.ndarray  # (L, J, S, S)
    prod_sqmean: np.ndarray  # (L, J, S, S) scale for degeneracy checks

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
        pooled = [_mean_and_distances(sp, np.arange(self.n)) for sp in ms.spaces]
        self.pooled_means = [res for res, _ in pooled]
        self.pooled_profile = np.column_stack([d for _, d in pooled])
        self.pooled_cov = self.pooled_profile.T @ self.pooled_profile / self.n
        self._embeddings = [sp.embedding for sp in ms.spaces]
        self._squares = [
            None if sp.has_exact_mean else _clipped_squares(sp.pairwise())
            for sp in ms.spaces
        ]

    # -- distance profiles ----------------------------------------------------

    def group_profiles(self, codes: np.ndarray) -> np.ndarray:
        """(L, n, S) distances from each observation to its group mean.

        ``codes`` is an (L, n) stack of group labelings, and the method builds
        its own (L, J, n) membership masks from it.  The result is the
        transposed view of one C-contiguous (S, L, n) array.  A medoid is the
        lowest-index member whose group sum of squared distances lies within
        2(n_j - 1)·eps·min of the group's least sum.
        """
        codes = np.asarray(codes, dtype=np.int64)
        L, n = codes.shape
        masks = (codes[:, None, :] == np.arange(self.J)[None, :, None]).astype(float)
        counts = masks.sum(axis=2)
        # row l * J + j of an (L * J, ...) per-group stack is labeling l's group j
        flat = np.arange(L)[:, None] * self.J + codes
        out = np.empty((self.S, L, n), dtype=float)
        for s, (sp, X) in enumerate(zip(self.ms.spaces, self._embeddings)):
            if X is not None:
                means = (masks @ X) / counts[:, :, None]
                diff = np.take(means.reshape(L * self.J, X.shape[1]), flat, axis=0)
                np.subtract(X[None, :, :], diff, out=diff)
                if X.shape[1] <= 2:
                    # the einsum's arithmetic: one product per coordinate, one add
                    np.multiply(diff[:, :, 0], diff[:, :, 0], out=out[s])
                    if X.shape[1] == 2:
                        out[s] += diff[:, :, 1] * diff[:, :, 1]
                else:
                    np.einsum("lnk,lnk->ln", diff, diff, out=out[s])
                np.sqrt(out[s], out=out[s])
            elif sp.has_exact_mean:
                for l in range(L):
                    for j in range(self.J):
                        idx = np.flatnonzero(codes[l] == j)
                        out[s, l, idx] = sp.distances_to(sp.mean_of(idx), idx)
            else:
                # observation i's entry of pairwise() lies at i * n + its medoid
                at = np.take(_medoids(masks, self._squares[s]), flat)
                at += np.arange(0, n * n, n)
                out[s] = np.take(sp.pairwise(), at)
        return out.transpose(1, 2, 0)

    # -- moments ----------------------------------------------------------------

    def moments(self, codes: np.ndarray) -> MomentStack:
        """Every ``MomentStack`` field of an (L, n) stack of group labelings."""
        codes = np.asarray(codes, dtype=np.int64)
        L, n = codes.shape
        S, J = self.S, self.J

        counts = np.empty((L, J), dtype=float)
        col_mean = np.empty((L, J, S), dtype=float)
        group_cov = np.empty((L, J, S, S), dtype=float)
        prod_sqmean = np.empty((L, J, S, S), dtype=float)

        # F = S + 2P columns: S profiles, P = S(S+1)/2 pair products and their squares
        pairs = list(zip(*np.triu_indices(S)))
        F = S + 2 * len(pairs)
        widths = [F, J] + [X.shape[1] for X in self._embeddings if X is not None]
        chunk = max(1, _CHUNK_BUDGET // (n * max(widths)))
        for start in range(0, L, chunk):
            sl = slice(start, min(start + chunk, L))
            c = codes[sl]
            p = self.group_profiles(c)
            flat = (np.arange(len(c))[:, None] * J + c).ravel()
            counts[sl] = cnt = np.bincount(flat, minlength=len(c) * J).reshape(len(c), J)
            for s in range(S):
                col_mean[sl, :, s] = _group_means(flat, p[:, :, s], cnt)
            for a, b in pairs:
                prod = p[:, :, a] * p[:, :, b]
                group_cov[sl, :, a, b] = group_cov[sl, :, b, a] = _group_means(flat, prod, cnt)
                sq = _group_means(flat, prod * prod, cnt)
                prod_sqmean[sl, :, a, b] = prod_sqmean[sl, :, b, a] = sq
            # free this chunk's temporaries before the next chunk makes its own
            del p, prod

        gammas = counts / float(n)
        centered_cov = group_cov - col_mean[:, :, :, None] * col_mean[:, :, None, :]
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
            group_cov=group_cov,
            weighted_cov=np.einsum("lj,ljst->lst", gammas, group_cov),
            col_mean=col_mean,
            centered_cov=centered_cov,
            group_cor=group_cor,
            cor_valid=cor_valid,
            moment_var=prod_sqmean - group_cov**2,
            prod_sqmean=prod_sqmean,
        )
