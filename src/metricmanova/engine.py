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
order.  Only that pick leaves the medoid kernel, so its sums run over the
(labelings * groups, n) mask rows in GEMM calls of as many rows r as keep
r·n² within OpenBLAS's one-thread small-matrix bound (8 at n = 300, 4 from
n = 354), faster than one three-row GEMM per labeling, and non-members get
an additive +inf.  One pass serves every medoid space of a sub-chunk: the
masks' +inf penalty, the tie slack and the sums buffer are built once.  The
centroid sums keep one GEMM per labeling: their bits reach the statistics,
and four-row blocks moved them.  Only spaces with a user-supplied exact-mean
solver keep a loop over labelings and groups.
``moments`` takes two lengths from one budget.  It computes the profiles in
sub-chunks of labelings small enough that each kernel's temporaries, the
(labelings, n, k) differences at the widest, stay resident in a core's L2
cache; that bounds memory too, but the point is speed: fresh multi-megabyte
temporaries cost more in page faults and memory traffic than their
arithmetic.  Each sub-chunk writes its profiles into one (S, labelings, n)
buffer of a moment block, a whole number of sub-chunks sized by the summed
columns alone, and the sums run once per block: a k=100 space cuts an
n=200 sweep into 6-labeling sub-chunks, and with two spaces each bincount
then sums 78 labelings, a twelfth of the calls.  A labeling's results never
depend on the sub-chunk or block it falls in.  The permutation sweep in
``inference.run_tests`` calls ``moments`` on coarser blocks, of at most
``_CHUNK_BUDGET // n`` labelings: a block's widest array is its label stack,
and the statistics evaluated on each block's output cost a fixed overhead per
call, so evaluating them per profile chunk ran 2.8x slower (131 ms against
47 ms on a k=100 input with B=500).  The pooled means and their distance
columns, and the clipped squared distances of medoid spaces, do not depend on
the labels, so they are computed once per engine, the pooled medoid from the
same squares; each pooled column is the one ``frechet_mean`` measures.

Most axes here are only 2 or 3 wide (coordinates, spaces, groups), so data
moves over long axes.  A gather takes one flat row index per observation,
``labeling * J + group``, into the (L * J, ...) stack of group means or
medoids, and a medoid distance is one flat index into the distance matrix.
``group_profiles`` fills one contiguous (L, n) column per space.  ``moments``
transposes each block's columns once to (n, L), observation-major, and sums
every column, the S profiles, their S(S+1)/2 unique pair products and the
products' squares, with one ``np.bincount`` over that flat index in the same
layout, which also counts each group's members.  bincount adds each entry
to its bin in index order, so every group sum adds its members one at a time
in observation order, and consecutive adds land in different labelings'
bins rather than chaining through a labeling's two or three.  That order
defines the bits of every statistic, and with them the continuous T_FA and
Pillai_d p-values.  An overflowed product stays inf in its own group's sum.
The norm einsum and ``masks @ X`` keep their operand layout and chunking;
for one- and two-dimensional embeddings the squared norm is the einsum's
arithmetic spelt out in ufuncs.

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

# a profile sub-chunk holds q = _CHUNK_BUDGET // (n * max(F, J, widest
# embedding)) labelings, F the number of columns ``moments`` sums, and a
# moment block the most whole sub-chunks within _CHUNK_BUDGET // (n * max(F,
# J)), at least one.  Timing ``moments`` on the perfbench inputs (2-core x86
# VM, 2 MiB L2 per core), 64k to 1M elements ran alike; 4M ran the k=100
# stacks 1.25-1.5x slower, and 32k fell to one k=100 labeling per chunk, 1.6x
# slower.  F sizes no array, but a block over the widest array alone holds
# 327 labelings on scenario 1 (n=200, S=2), against 81, and ``moments`` ran
# 1.4-1.5x slower there.  Blocks sized by k as well cut a k=100 sweep into
# 84 rounds of 6-labeling bincounts, against 7 rounds of 78.
_CHUNK_BUDGET = 131_072


def _group_means(flat: np.ndarray, col: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(c, J) group means of an (n, c) column; bincount adds each entry to its
    bin ``flat`` (labeling * J + group, laid out like ``col``) in index order."""
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
        self._embeddings = [sp.embedding for sp in ms.spaces]
        self._squares = [
            None if sp.has_exact_mean else _clipped_squares(sp.pairwise())
            for sp in ms.spaces
        ]
        everyone = np.arange(self.n)
        pooled = [_mean_and_distances(sp, everyone, sq) for sp, sq in zip(ms.spaces, self._squares)]
        self.pooled_means = [res for res, _ in pooled]
        self.pooled_profile = np.column_stack([d for _, d in pooled])
        # an entry past the largest float reads inf, and the statistics built
        # on it fail their observed checks with the documented errors
        with np.errstate(over="ignore"):
            self.pooled_cov = self.pooled_profile.T @ self.pooled_profile / self.n

    # -- distance profiles ----------------------------------------------------

    def group_profiles(self, codes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(L, n, S) distances from each observation to its group mean.

        ``codes`` is an (L, n) stack of group labelings, and the method builds
        its own (L, J, n) membership masks from it.  The result is the
        transposed view of an (S, L, n) array: ``out`` when given (each
        ``out[s]`` C-contiguous), else a fresh C-contiguous one.  A medoid is
        the lowest-index member whose group sum of squared distances lies
        within 2(n_j - 1)·eps·min of the group's least sum.
        """
        codes = np.asarray(codes, dtype=np.int64)
        L, n = codes.shape
        masks = (codes[:, None, :] == np.arange(self.J)[None, :, None]).astype(float)
        counts = masks.sum(axis=2)
        # row l * J + j of an (L * J, ...) per-group stack is labeling l's group j
        flat = np.arange(L)[:, None] * self.J + codes
        if out is None:
            out = np.empty((self.S, L, n), dtype=float)
        # every medoid space's picks in one pass over the shared masks
        medoid_squares = [sq for sq in self._squares if sq is not None]
        picks = iter(_medoids(masks, counts, medoid_squares) if medoid_squares else ())
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
                at = np.take(next(picks), flat)
                at += np.arange(0, n * n, n)
                out[s] = np.take(sp.pairwise(), at)
        return out.transpose(1, 2, 0)

    # -- moments ----------------------------------------------------------------

    # overflowed products make inf and NaN moments, which fail the statistics' checks
    @np.errstate(over="ignore", invalid="ignore")
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
        widest = max([F, J] + [X.shape[1] for X in self._embeddings if X is not None])
        # profiles in sub-chunks of q labelings, moment sums over blocks of m,
        # a whole number of sub-chunks
        q = max(1, _CHUNK_BUDGET // (n * widest))
        m = max(q, _CHUNK_BUDGET // (n * max(F, J)) // q * q)
        profiles = np.empty((S, min(m, L), n), dtype=float)
        for start in range(0, L, m):
            c = codes[start : start + m]
            rows = len(c)
            for sub in range(0, rows, q):
                end = min(sub + q, rows)
                self.group_profiles(c[sub:end], out=profiles[:, sub:end])
            # observation-major: consecutive adds land in different labelings'
            # bins, and each bin still adds its members in observation order
            p = np.ascontiguousarray(profiles[:, :rows].transpose(0, 2, 1))
            flat = (np.arange(rows) * J + c.T).ravel()
            sl = slice(start, start + rows)
            counts[sl] = cnt = np.bincount(flat, minlength=rows * J).reshape(rows, J)
            for s in range(S):
                col_mean[sl, :, s] = _group_means(flat, p[s], cnt)
            for a, b in pairs:
                prod = p[a] * p[b]
                group_cov[sl, :, a, b] = group_cov[sl, :, b, a] = _group_means(flat, prod, cnt)
                sq = _group_means(flat, prod * prod, cnt)
                prod_sqmean[sl, :, a, b] = prod_sqmean[sl, :, b, a] = sq
            # free this block's columns and products before the next block's profiles
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
