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
``solve_airm_sq`` is no oracle either: it is the solve-based LAPACK AIRM
kernel that three or more spaces ran before the Cholesky inverse, kept as the
reference the accuracy gates of the SPD kernels compare against.
``oracle_msd_blocks`` reads each number of an ``.msd`` file by itself with
``float()``, the rule the package's block reader must match bit for bit.
"""

import decimal
import warnings

import numpy as np
import scipy.linalg
import scipy.stats

from metricmanova.spd import SPD_FLOOR_REL


def oracle_medoid(dist, idx):
    """Medoid of the rows ``idx`` of a distance matrix, lowest index on ties."""
    best, best_obj = None, None
    for cand in idx:
        obj = sum(dist[cand, j] ** 2 for j in idx) / len(idx)
        if best_obj is None or obj < best_obj - 1e-15:
            best, best_obj = cand, obj
    return best


def oracle_medoid_in_order(squares, idx):
    """Medoid of the rows ``idx`` of a squared-distance matrix: each
    candidate's squares over ``idx`` added one at a time in index order as
    Python floats, the total capped at the largest float, and the lowest index
    among the least totals."""
    big = float(np.finfo(float).max)
    totals = []
    for cand in idx:
        total = 0.0
        for j in idx:
            total += float(squares[cand, j])
        totals.append(min(total, big))
    return idx[totals.index(min(totals))]


def _group_masks(codes, J):
    """(L, J, n) float 0/1 membership masks of an (L, n) stack of group codes."""
    return (codes[:, None, :] == np.arange(J)[None, :, None]).astype(float)


def oracle_group_profiles(ms, codes):
    """(L, n, S) ``StatEngine.group_profiles`` by two-array fancy indexing:
    ``means[rows, codes]`` for centroids and ``pairwise()[arange(n),
    medoids[rows, codes]]`` for medoid distances; a space with an exact-mean
    solver measures each group from the solver's mean of that group."""
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
        elif sp.has_exact_mean:
            for l in range(L):
                for j in range(ms.n_groups):
                    idx = np.flatnonzero(codes[l] == j)
                    out[l, idx, s] = sp.distances_to(sp.mean_of(idx), idx)
        else:
            medoids, = _medoids(masks, counts, [_clipped_squares(sp.pairwise())])
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


_DIGITS50 = decimal.Context(prec=50)


def _dec_sym2(M):
    """Entries (a, b, d) of a 2x2 matrix as exact Decimals, b from the lower
    triangle as LAPACK reads it."""
    return tuple(decimal.Decimal(float(x)) for x in (M[0][0], M[1][0], M[1][1]))


def _dec_eigvals2(a, b, d):
    half_gap = (((a - d) / 2) ** 2 + b * b).sqrt()
    mid = (a + d) / 2
    return mid + half_gap, mid - half_gap


def oracle_eigvals_2x2(M):
    """(largest, smallest) eigenvalues of a symmetric 2x2 matrix, computed at
    50 significant digits and rounded once."""
    with decimal.localcontext(_DIGITS50):
        return tuple(float(x) for x in _dec_eigvals2(*_dec_sym2(M)))


def oracle_matrix_log_2x2(M):
    """Principal log of a 2x2 SPD matrix at 50 digits by Sylvester's formula
    (g1*(M - l2*I) - g2*(M - l1*I)) / (l1 - l2), g = log l; log(l)*I when the
    eigenvalues coincide."""
    with decimal.localcontext(_DIGITS50):
        a, b, d = _dec_sym2(M)
        l1, l2 = _dec_eigvals2(a, b, d)
        g1, g2 = l1.ln(), l2.ln()
        if l1 == l2:
            out = [[g1, 0], [0, g1]]
        else:
            gap = l1 - l2
            out = [[(g1 * (a - l2) - g2 * (a - l1)) / gap, (g1 - g2) * b / gap],
                   [(g1 - g2) * b / gap, (g1 * (d - l2) - g2 * (d - l1)) / gap]]
        return np.array([[float(x) for x in row] for row in out])


def _dec_generalized_eigvals2(A, B):
    """Roots lam1 >= lam2 of det(B - lam*A) = 0 by the quadratic formula.  Its
    cancellation when A ~ B costs twice the digits of |log lam|, at most about
    20 of the 50 on the test grid.  B's off-diagonal is the mean of its two
    entries."""
    a, b, d = _dec_sym2(A)
    p, _, r = _dec_sym2(B)
    q = (decimal.Decimal(float(B[0][1])) + decimal.Decimal(float(B[1][0]))) / 2
    det_a, det_b = a * d - b * b, p * r - q * q
    half_trace = (a * r + d * p - 2 * b * q) / 2
    root = max(half_trace * half_trace - det_a * det_b, decimal.Decimal(0)).sqrt()
    lam1 = (half_trace + root) / det_a
    return lam1, det_b / (det_a * lam1)  # the product of the roots is det_b / det_a


def oracle_generalized_eigvals_2x2(A, B):
    """(largest, smallest) eigenvalues of A^-1 B for 2x2 SPD A, at 50 digits."""
    with decimal.localcontext(_DIGITS50):
        return tuple(float(x) for x in _dec_generalized_eigvals2(A, B))


def oracle_airm_sq_2x2(A, B):
    """Squared AIRM distance between 2x2 SPD matrices at 50 digits."""
    with decimal.localcontext(_DIGITS50):
        lam1, lam2 = _dec_generalized_eigvals2(A, B)
        return float(lam1.ln() ** 2 + lam2.ln() ** 2)


def _floor_ok(lo, hi):
    return lo > SPD_FLOOR_REL * np.maximum(hi, 0.0)


def solve_airm_sq(A, B):
    """The solve-based LAPACK AIRM kernel, the package's 3x3-and-larger path
    until its two LU solves gave way to an inverted Cholesky factor:
    eigvalsh(A), cholesky, two ``solve``s and eigvalsh(C) per item.  It is the
    reference the accuracy gates of the SPD kernels measure against."""
    wa = np.linalg.eigvalsh(A)
    valid = _floor_ok(wa[..., 0], wa[..., -1])
    A_safe = np.where(valid[..., None, None], A, np.eye(A.shape[-1]))
    L = np.linalg.cholesky(A_safe)
    Y = np.linalg.solve(L, B)
    C = np.linalg.solve(L, np.swapaxes(Y, -1, -2))
    C = 0.5 * (C + np.swapaxes(C, -1, -2))
    w = np.linalg.eigvalsh(C)
    valid = valid & _floor_ok(w[..., 0], w[..., -1])
    logs = np.log(np.where(w > 0, w, 1.0))
    return np.sum(logs * logs, axis=-1), valid


def _dec_matrix(M):
    """A symmetric matrix as exact Decimals, the lower triangle mirrored as
    LAPACK reads it."""
    n = len(M)
    return [[decimal.Decimal(float(M[max(i, j)][min(i, j)])) for j in range(n)] for i in range(n)]


def _dec_jacobi(M):
    """Eigenvalues and eigenvector columns V (rows of Decimals) of a symmetric
    Decimal matrix by cyclic Jacobi rotations (Golub & Van Loan, Matrix
    Computations, section 8.5), run until no off-diagonal entry exceeds 1e-48
    of the largest entry: by Weyl's inequality no eigenvalue is then off by
    more than that much of the norm."""
    n = len(M)
    M = [row[:] for row in M]
    V = [[decimal.Decimal(int(i == j)) for j in range(n)] for i in range(n)]
    tol = decimal.Decimal("1e-48") * max(abs(x) for row in M for x in row)
    for _ in range(50):  # sweeps; convergence is quadratic
        if max((abs(M[p][q]) for p in range(n) for q in range(p + 1, n)), default=0) <= tol:
            break
        for p in range(n):
            for q in range(p + 1, n):
                if M[p][q] == 0:
                    continue
                tau = (M[q][q] - M[p][p]) / (2 * M[p][q])
                t = 1 / (abs(tau) + (1 + tau * tau).sqrt())
                t = t if tau >= 0 else -t
                c = 1 / (1 + t * t).sqrt()
                s = t * c
                for k in range(n):
                    M[k][p], M[k][q] = c * M[k][p] - s * M[k][q], s * M[k][p] + c * M[k][q]
                for k in range(n):
                    M[p][k], M[q][k] = c * M[p][k] - s * M[q][k], s * M[p][k] + c * M[q][k]
                M[p][q] = M[q][p] = decimal.Decimal(0)
                for k in range(n):
                    V[k][p], V[k][q] = c * V[k][p] - s * V[k][q], s * V[k][p] + c * V[k][q]
    return [M[i][i] for i in range(n)], V


def _dec_jacobi_eigvals(M):
    """Eigenvalues, descending, of a symmetric Decimal matrix by ``_dec_jacobi``."""
    return sorted(_dec_jacobi(M)[0], reverse=True)


def _dec_generalized_eigvals(A, B):
    """Eigenvalues of A^-1 B, descending, as those of C = L^-1 B L^-T with L
    the Cholesky factor of A, everything in Decimals.  B's off-diagonal
    entries are the means of its two triangles."""
    n = len(A)
    a = _dec_matrix(A)
    b = [[(decimal.Decimal(float(B[i][j])) + decimal.Decimal(float(B[j][i]))) / 2
          for j in range(n)] for i in range(n)]
    L = [[decimal.Decimal(0)] * n for _ in range(n)]
    for j in range(n):
        L[j][j] = (a[j][j] - sum(L[j][k] * L[j][k] for k in range(j))).sqrt()
        for i in range(j + 1, n):
            L[i][j] = (a[i][j] - sum(L[i][k] * L[j][k] for k in range(j))) / L[j][j]

    def forward(rhs):  # L^-1 rhs, column by column
        out = [[decimal.Decimal(0)] * n for _ in range(n)]
        for col in range(n):
            for i in range(n):
                out[i][col] = (rhs[i][col] - sum(L[i][k] * out[k][col] for k in range(i))) / L[i][i]
        return out

    Y = forward(b)
    C = forward([[Y[j][i] for j in range(n)] for i in range(n)])  # L^-1 (L^-1 B)^T
    return _dec_jacobi_eigvals(C)


def oracle_eigvals_sym(M):
    """Eigenvalues, descending, of a symmetric matrix at 50 digits, rounded once."""
    with decimal.localcontext(_DIGITS50):
        return [float(x) for x in _dec_jacobi_eigvals(_dec_matrix(M))]


def oracle_matrix_log(M):
    """Principal log V diag(log lambda) V^T of an SPD matrix of any size, at
    50 digits by ``_dec_jacobi``, rounded once."""
    with decimal.localcontext(_DIGITS50):
        lam, V = _dec_jacobi(_dec_matrix(M))
        g = [x.ln() for x in lam]
        n = len(lam)
        return np.array([[float(sum(g[k] * V[i][k] * V[j][k] for k in range(n))) for j in range(n)]
                         for i in range(n)])


def oracle_generalized_eigvals(A, B):
    """Eigenvalues, descending, of A^-1 B for SPD A at 50 digits, rounded once."""
    with decimal.localcontext(_DIGITS50):
        return [float(x) for x in _dec_generalized_eigvals(A, B)]


def oracle_airm_sq(A, B):
    """Squared AIRM distance between SPD matrices of any size at 50 digits."""
    with decimal.localcontext(_DIGITS50):
        return float(sum(mu.ln() ** 2 for mu in _dec_generalized_eigvals(A, B)))


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


def oracle_msd_blocks(text):
    """{space id: numbers} of every block of well-formed ``.msd`` text, each
    token read by itself with ``float()``: a coordinate block's (n, width)
    rows, a distance block's (n, n) matrix with each token in both triangles
    and +0.0 on the diagonal."""
    lines = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            lines.append(tokens)
    n = int(lines[1][1])
    blocks, pos = {}, 4
    while pos < len(lines):
        head = lines[pos]
        pos += 1
        if head[2] == "distances":
            mat = [[0.0] * n for _ in range(n)]
            for i in range(1, n):
                for j, tok in enumerate(lines[pos]):
                    mat[i][j] = mat[j][i] = float(tok)
                pos += 1
        else:
            mat = [[float(tok) for tok in lines[pos + r]] for r in range(n)]
            pos += n
        blocks[head[1]] = np.array(mat, dtype=float)
    return blocks
