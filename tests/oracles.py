"""Independently written brute-force reference implementations.

These deliberately avoid the package's internals: plain Python loops, scipy
where convenient.  They exist so the fast library code can be checked against
straightforward transcriptions of the definitions.  The exceptions are
``oracle_group_profiles``, ``oracle_moment_stack`` and ``oracle_mask_einsums``:
they move the data by fancy indexing and broadcasting, and the engine must
match them bit for bit.  ``oracle_group_profiles`` runs the engine's own
group sums and takes every squared norm by einsum, which the engine spells
out in ufuncs for one- and two-dimensional embeddings; ``oracle_moment_stack``
adds each observation to its group in index order, the rule that fixes the
rounding of every moment and that the engine's per-column ``np.bincount``
follows; and ``oracle_mask_einsums`` keeps the three 0/1-mask einsums that
summed the moments before that, which agree with it for two or more spaces
as long as no product overflows (the masks' 0 * inf is NaN).
"""

import warnings

import numpy as np
import scipy.linalg
import scipy.stats


def oracle_medoid(dist, idx):
    """Medoid of the rows ``idx`` of a distance matrix, lowest index on ties."""
    best, best_obj = None, None
    for cand in idx:
        obj = sum(dist[cand, j] ** 2 for j in idx) / len(idx)
        if best_obj is None or obj < best_obj - 1e-15:
            best, best_obj = cand, obj
    return best


def _group_masks(codes, J):
    """(L, J, n) float 0/1 membership masks of an (L, n) stack of group codes."""
    return (codes[:, None, :] == np.arange(J)[None, :, None]).astype(float)


def oracle_group_profiles(ms, codes):
    """(L, n, S) ``StatEngine.group_profiles`` of centroid and medoid spaces by
    two-array fancy indexing: ``means[rows, codes]`` for centroids and
    ``pairwise()[arange(n), medoids[rows, codes]]`` for medoid distances."""
    from metricmanova.samples import _clipped_squares, _medoids

    L, n = codes.shape
    masks = _group_masks(codes, ms.n_groups)
    counts = masks.sum(axis=2)
    rows = np.arange(L)[:, None]
    out = np.empty((L, n, ms.n_spaces))
    for s, sp in enumerate(ms.spaces):
        X = sp.embedding
        if X is not None:
            diff = X[None, :, :] - ((masks @ X) / counts[:, :, None])[rows, codes]
            out[:, :, s] = np.sqrt(np.einsum("lnk,lnk->ln", diff, diff))
        else:
            medoids = _medoids(masks, _clipped_squares(sp.pairwise()))
            out[:, :, s] = sp.pairwise()[np.arange(n), medoids[rows, codes]]
    return out


def _moment_fields(ms, counts, col_mean, group_cov, prod_sqmean):
    """Every ``MomentStack`` field from the group counts and the group means of
    the profiles, their pair products and the products' squares."""
    from metricmanova.engine import COLUMN_VAR_REL_TOL

    gammas = counts / float(ms.n)
    centered_cov = group_cov - col_mean[:, :, :, None] * col_mean[:, :, None, :]
    var = np.einsum("ljss->ljs", centered_cov)
    ok = var > COLUMN_VAR_REL_TOL * np.maximum(np.einsum("ljss->ljs", group_cov), 1.0e-300)
    cor_valid = np.all(ok, axis=2)
    sd = np.sqrt(np.where(var > 0, var, 1.0))
    group_cor = centered_cov / (sd[:, :, :, None] * sd[:, :, None, :])
    diag = np.arange(ms.n_spaces)
    group_cor[:, :, diag, diag] = 1.0
    group_cor[~cor_valid] = np.nan
    return dict(
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


def oracle_moment_stack(ms, codes):
    """Every ``MomentStack`` field of ``StatEngine.moments(codes)``, from
    ``oracle_group_profiles`` and the broadcast product
    ``p[:, :, :, None] * p[:, :, None, :]``.  Each group sum starts at zero and
    adds its members one at a time in observation order."""
    p = oracle_group_profiles(ms, codes)
    L, n, S = p.shape
    J = ms.n_groups
    prods = p[:, :, :, None] * p[:, :, None, :]
    squares = prods * prods
    counts = np.zeros((L, J))
    sums = np.zeros((L, J, S))
    prod_sums = np.zeros((L, J, S, S))
    square_sums = np.zeros((L, J, S, S))
    rows = np.arange(L)
    for i in range(n):
        # every labeling adds observation i to its own group
        g = codes[:, i]
        counts[rows, g] += 1.0
        sums[rows, g] += p[:, i]
        prod_sums[rows, g] += prods[:, i]
        square_sums[rows, g] += squares[:, i]
    return _moment_fields(
        ms,
        counts,
        sums / counts[:, :, None],
        prod_sums / counts[:, :, None, None],
        square_sums / counts[:, :, None, None],
    )


def oracle_mask_einsums(ms, codes):
    """``oracle_moment_stack`` through three 0/1-mask einsums over the
    profiles, the full (S, S) pair products and their squares."""
    masks = _group_masks(codes, ms.n_groups)
    p = oracle_group_profiles(ms, codes)
    counts = masks.sum(axis=2)
    prods = p[:, :, :, None] * p[:, :, None, :]
    group_cov = np.einsum("cjn,cnst->cjst", masks, prods) / counts[:, :, None, None]
    prod_sqmean = np.einsum("cjn,cnst->cjst", masks, prods * prods)
    prod_sqmean /= counts[:, :, None, None]
    col_mean = np.einsum("cjn,cns->cjs", masks, p) / counts[:, :, None]
    return _moment_fields(ms, counts, col_mean, group_cov, prod_sqmean)


def oracle_profiles_from_matrices(dists, labels):
    """(per-group profile, pooled profile) for distance-matrix spaces."""
    n = len(labels)
    S = len(dists)
    per_group = np.zeros((n, S))
    pooled = np.zeros((n, S))
    everyone = list(range(n))
    for s, dist in enumerate(dists):
        pooled_medoid = oracle_medoid(dist, everyone)
        for i in everyone:
            pooled[i, s] = dist[i, pooled_medoid]
        for g in sorted(set(labels)):
            idx = [i for i in everyone if labels[i] == g]
            medoid = oracle_medoid(dist, idx)
            for i in idx:
                per_group[i, s] = dist[i, medoid]
    return per_group, pooled


def oracle_profiles_euclidean(columns, labels):
    """(per-group, pooled) profiles for a list of (n, k) coordinate arrays."""
    n = len(labels)
    S = len(columns)
    per_group = np.zeros((n, S))
    pooled = np.zeros((n, S))
    for s, pts in enumerate(columns):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        grand = pts.mean(axis=0)
        for i in range(n):
            pooled[i, s] = np.linalg.norm(pts[i] - grand)
        for g in sorted(set(labels)):
            idx = [i for i in range(n) if labels[i] == g]
            center = pts[idx].mean(axis=0)
            for i in idx:
                per_group[i, s] = np.linalg.norm(pts[i] - center)
    return per_group, pooled


def oracle_fa_stats(per_group, pooled, labels):
    """F, U, T for every space pair, straight from the definitions.

    Returns three dicts keyed by (s, t) with s <= t; (s, s) holds the
    variance statistics.
    """
    per_group = np.asarray(per_group, float)
    pooled = np.asarray(pooled, float)
    n, S = per_group.shape
    groups = sorted(set(labels))
    F, U, T = {}, {}, {}
    for s in range(S):
        for t in range(s, S):
            sigma_p = float(np.mean(pooled[:, s] * pooled[:, t]))
            gam, sig, var = {}, {}, {}
            for g in groups:
                idx = [i for i in range(n) if labels[i] == g]
                prods = [per_group[i, s] * per_group[i, t] for i in idx]
                gam[g] = len(idx) / n
                sig[g] = sum(prods) / len(prods)
                var[g] = sum(p * p for p in prods) / len(prods) - sig[g] ** 2
            f_val = sigma_p - sum(gam[g] * sig[g] for g in groups)
            u_val = 0.0
            for a_i, g in enumerate(groups):
                for g2 in groups[a_i + 1:]:
                    u_val += (
                        gam[g] * gam[g2] / (var[g] * var[g2])
                        * (sig[g] - sig[g2]) ** 2
                    )
            den_u = sum(gam[g] / var[g] for g in groups)
            den_f = sum(gam[g] ** 2 * var[g] for g in groups)
            t_val = n * u_val / den_u + n * f_val ** 2 / den_f
            F[(s, t)] = f_val
            U[(s, t)] = u_val
            T[(s, t)] = t_val
    return F, U, T


def oracle_group_matrices(per_group, labels):
    """Per-group covariance and centered correlation matrices plus weights."""
    per_group = np.asarray(per_group, float)
    n, S = per_group.shape
    covs, cors, gammas = [], [], []
    for g in sorted(set(labels)):
        idx = [i for i in range(n) if labels[i] == g]
        rows = per_group[idx]
        m = len(idx)
        cov = np.zeros((S, S))
        for s in range(S):
            for t in range(S):
                cov[s, t] = sum(rows[i, s] * rows[i, t] for i in range(m)) / m
        cor = np.eye(S)
        means = rows.mean(axis=0)
        for s in range(S):
            for t in range(S):
                if s != t:
                    num = np.mean((rows[:, s] - means[s]) * (rows[:, t] - means[t]))
                    den = np.sqrt(
                        np.mean((rows[:, s] - means[s]) ** 2)
                        * np.mean((rows[:, t] - means[t]) ** 2)
                    )
                    cor[s, t] = num / den
        covs.append(cov)
        cors.append(cor)
        gammas.append(m / n)
    return covs, cors, gammas


def oracle_pooled_cov(pooled):
    pooled = np.asarray(pooled, float)
    n, S = pooled.shape
    cov = np.zeros((S, S))
    for s in range(S):
        for t in range(S):
            cov[s, t] = sum(pooled[i, s] * pooled[i, t] for i in range(n)) / n
    return cov


def oracle_spd_distance(kind, A, B):
    if kind == "Euc":
        return np.linalg.norm(A - B)
    if kind == "AIRM":
        w = scipy.linalg.eigvalsh(B, A)  # eigenvalues of A^-1 B
        return np.sqrt(np.sum(np.log(w) ** 2))
    if kind == "LERM":
        return np.linalg.norm(_logm(A) - _logm(B))
    raise ValueError(kind)


def _logm(A):
    """scipy's Schur-based matrix log, without its accuracy warning.  The
    warning tests the round trip expm(logm(A)) against A at 1000 ulp; two
    test inputs miss that by about 2x while their logs agree with an
    eigendecomposition log to about 1e-15."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "logm result may be inaccurate", RuntimeWarning)
        return scipy.linalg.logm(A)


def oracle_r_statistics(per_group, pooled, labels, kind):
    covs, cors, gammas = oracle_group_matrices(per_group, labels)
    pooled_cov = oracle_pooled_cov(pooled)
    weighted = sum(g * c for g, c in zip(gammas, covs))
    r_mean = oracle_spd_distance(kind, pooled_cov, weighted)
    r_cov = 0.0
    r_cor = 0.0
    J = len(covs)
    for j in range(J):
        for jp in range(j + 1, J):
            r_cov += gammas[j] * gammas[jp] * oracle_spd_distance(kind, covs[j], covs[jp])
            r_cor += gammas[j] * gammas[jp] * oracle_spd_distance(kind, cors[j], cors[jp])
    return r_mean, r_cov, r_cor


def oracle_pillai_adapted(per_group, pooled, labels):
    covs, _, gammas = oracle_group_matrices(per_group, labels)
    pooled_cov = oracle_pooled_cov(pooled)
    weighted = sum(g * c for g, c in zip(gammas, covs))
    S = pooled_cov.shape[0]
    return S - np.trace(weighted @ np.linalg.inv(pooled_cov))


def oracle_pillai_distance(per_group, labels):
    """Classical one-way Pillai trace on the profile rows plus F approximation."""
    D = np.asarray(per_group, float)
    n, S = D.shape
    groups = sorted(set(labels))
    J = len(groups)
    grand = D.mean(axis=0)
    H = np.zeros((S, S))
    E = np.zeros((S, S))
    for g in groups:
        idx = [i for i in range(n) if labels[i] == g]
        rows = D[idx]
        m = rows.mean(axis=0)
        H += len(idx) * np.outer(m - grand, m - grand)
        for row in rows:
            E += np.outer(row - m, row - m)
    V = float(np.trace(H @ np.linalg.inv(H + E)))
    p_, q_ = S, J - 1
    s_ = min(p_, q_)
    m_ = (abs(p_ - q_) - 1) / 2.0
    r_ = (n - J - p_ - 1) / 2.0
    F = (2 * r_ + s_ + 1) * V / ((2 * m_ + s_ + 1) * (s_ - V))
    df1 = s_ * (2 * m_ + s_ + 1)
    df2 = s_ * (2 * r_ + s_ + 1)
    p_value = float(scipy.stats.f.sf(F, df1, df2))
    return V, F, df1, df2, p_value


def oracle_ba_graph(gamma, nodes, rng):
    """(Laplacian, final degrees) of one tree, one numpy step per node.

    The definition of the scenario-2 tree stream: node t >= 2 draws one
    ``rng.random()`` and attaches where ``searchsorted(side="right")`` puts
    that fraction of the cumulative sum of ``degrees[:t] ** gamma``.
    """
    degrees = np.zeros(nodes, dtype=float)
    edges = [(0, 1)]
    degrees[0] = degrees[1] = 1.0
    for t in range(2, nodes):
        cum = np.cumsum(degrees[:t] ** gamma)
        target = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        edges.append((target, t))
        degrees[target] += 1.0
        degrees[t] = 1.0
    adj = np.zeros((nodes, nodes), dtype=float)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    return np.diag(adj.sum(axis=1)) - adj, degrees


def oracle_gamma_covariates(degrees, nu, rng):
    """Node covariates of degrees k: one array draw ``gamma(k * k / nu, nu / k)``."""
    k = np.asarray(degrees, dtype=float)
    return rng.gamma(k * k / nu, nu / k)


def oracle_scenario2(params, rng):
    """(Laplacians, covariates, labels) of a scenario-2 dataset, tree by tree:
    per tree the walk's uniforms, then one ``gamma`` draw of size ``nodes``."""
    laps, covs = [], []
    for gamma, nu, size in (
        (params.gamma1, params.nu1, params.n1),
        (params.gamma2, params.nu2, params.n2),
    ):
        for _ in range(size):
            lap, k = oracle_ba_graph(gamma, params.nodes, rng)
            laps.append(lap)
            covs.append(oracle_gamma_covariates(k, nu, rng))
    return np.stack(laps), np.stack(covs), np.repeat([1, 2], [params.n1, params.n2])
