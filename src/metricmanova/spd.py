"""Symmetric-matrix eigendecomposition, principal matrix logarithm, and the
three Riemannian distances between symmetric positive definite matrices.

Distances:

* ``Euc``   Frobenius norm of the difference.
* ``AIRM``  affine-invariant metric, sqrt(sum log^2 lambda_i(A^-1 B)); the
  eigenvalues of A^-1 B are computed through a Cholesky reduction, since
  A^-1 B is similar to the symmetric L^-1 B L^-T.
* ``LERM``  log-Euclidean metric, Frobenius distance of the matrix logs.

Operations that need strict positive definiteness raise
:class:`~metricmanova.errors.SingularMatrixError` when an eigenvalue falls at
or below ``1e-12`` times the largest eigenvalue, instead of silently
regularizing; callers may opt into an explicit ridge repair.  Each matrix is
tested once, by the validity mask of :func:`stack_matrix_log`, which the
scalar API and AIRM read; ``_floor_ok`` alone writes the inequality.

The stacked kernels :func:`stack_airm_sq` and :func:`stack_matrix_log` take
closed forms for 2x2 matrices, the two-space case, and LAPACK otherwise.  For
3x3 and larger, AIRM takes LAPACK's Cholesky factor L of A and inverts it by
forward substitution, written out entry by entry over the whole stack, so
C = L^-1 B L^-T is two batched matmuls and one ``eigvalsh`` (Higham 2002,
Accuracy and Stability of Numerical Algorithms, section 8: a triangular
inverse is as accurate as the triangular solves it replaces).  Its A-side
floor test is always handed in as ``a_ok``, the validity mask of the log
kernel, so AIRM takes no eigenvalues of A and judges A exactly as LERM does.
A symmetric 2x2 matrix has eigenvalues m +- h, m = (a + d)/2 and
h = hypot((a - d)/2, b), the smaller taken as det/(m + h) where m - h would
cancel.  Its log is log(l2)*I + beta*(M - l2*I), beta = log1p(2h/l2)/(2h)
the divided difference of log (1/l2 at h = 0).  The AIRM distance writes out
A's Cholesky factor L and the eigenvalues mu of L^-1 B L^-T in scalars; near
A = B it takes log1p of the eigenvalues of L^-1 (B - A) L^-T.  Both agree
with a 50-digit oracle at least as well as LAPACK does; ``notes/decisions.md``
has the table.  Validity and placeholders follow the LAPACK path.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from .errors import DataError, SingularMatrixError

SPD_FLOOR_REL = 1.0e-12  # strict-PD floor, relative to the largest eigenvalue
PSD_TOL_REL = 1.0e-10  # allowed negative rounding for semi-definite carriers
_SYM_TOL = 1.0e-10  # asymmetry allowed, relative to the largest |entry|

SPD_KINDS = ("Euc", "AIRM", "LERM")

MatrixLike = Union[np.ndarray, "SpdMatrix"]


def _symmetrized(A: np.ndarray, what: str = "matrix") -> np.ndarray:
    """The one symmetric-matrix rule, for SPD inputs and distance matrices: an
    exactly symmetric copy of ``A``, which must be square, finite and symmetric
    to ``_SYM_TOL`` of its largest |entry| (else a DataError names ``what``).
    Pairs that agree bit for bit keep their bits; a differing pair a, b becomes
    0.5a + 0.5b, 0.5(a + b) where the halves are normal, and never overflows."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DataError(f"{what} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DataError(f"non-finite {what} entry")
    differ = A.view(np.int64) != A.T.view(np.int64)  # -0.0 against 0.0 becomes 0.0
    a, b = A[differ], A.T[differ]
    with np.errstate(over="ignore"):  # an overflowed gap reads inf and fails
        if np.max(np.abs(a - b), initial=0.0) > _SYM_TOL * max(np.max(A), -np.min(A)):
            raise DataError(f"{what} not symmetric")
    out = A.copy()
    out[differ] = 0.5 * a + 0.5 * b
    return out


def sym_eig(A: MatrixLike) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix."""
    if isinstance(A, SpdMatrix):
        return A.eigenvalues, A.eigenvectors
    w, v = np.linalg.eigh(_symmetrized(A))
    return w[::-1].copy(), v[:, ::-1].copy()


class SpdMatrix:
    """Validated symmetric positive (semi-)definite matrix.

    The eigendecomposition is computed once at construction and cached.
    Construction rejects matrices with eigenvalues below the semi-definite
    rounding tolerance; strictly-positive-definite checks happen in the
    operations that require them.
    """

    __slots__ = ("entries", "eigenvalues", "eigenvectors")

    def __init__(self, entries: Union[np.ndarray, Sequence]):
        mat = _symmetrized(entries)
        w, v = np.linalg.eigh(mat)
        if w[0] < -PSD_TOL_REL * max(abs(w[0]), abs(w[-1])):
            raise DataError(
                f"matrix is not positive semi-definite (eigenvalue {w[0]:.3e})"
            )
        mat.setflags(write=False)
        self.entries = mat
        self.eigenvalues = w[::-1].copy()  # descending
        self.eigenvectors = v[:, ::-1].copy()

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def is_strictly_pd(self) -> bool:
        """The strict-PD mask :func:`stack_matrix_log` gives this matrix."""
        return bool(stack_matrix_log(self.entries)[1])

    def __repr__(self) -> str:
        return f"SpdMatrix(dim={self.dim}, min_eig={self.min_eigenvalue:.3e})"


def as_spd(A: MatrixLike) -> SpdMatrix:
    return A if isinstance(A, SpdMatrix) else SpdMatrix(A)


def stack_ridge(mats: np.ndarray) -> np.ndarray:
    """Add eps*I to each matrix of a stack, eps = 1e-10 * trace / dim."""
    dim = mats.shape[-1]
    eps = 1.0e-10 * np.einsum("...ss->...", mats) / dim
    return mats + eps[..., None, None] * np.eye(dim)


def ridge_repair(A: MatrixLike) -> SpdMatrix:
    """:func:`stack_ridge` of one matrix, making near-singular input usable."""
    return SpdMatrix(stack_ridge(as_spd(A).entries))


def _strict_pd_logs(stack: np.ndarray, names: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`stack_matrix_log` of items that must all pass its strict-PD mask."""
    logs, ok = stack_matrix_log(stack)
    for name, item_ok in zip(names, ok):
        if not item_ok:
            raise SingularMatrixError(f"{name}: eigenvalue at or below the singularity floor")
    return logs, ok


def matrix_log(A: MatrixLike) -> np.ndarray:
    """Principal matrix logarithm U diag(log lambda) U^T of an SPD matrix."""
    return _strict_pd_logs(as_spd(A).entries[None], ("matrix_log",))[0][0]


def matrix_exp_sym(A: MatrixLike) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (inverse of matrix_log)."""
    w, v = sym_eig(A)
    return (v * np.exp(w)[None, :]) @ v.T


def spd_distance(kind: str, A: MatrixLike, B: MatrixLike, *, ridge: bool = False) -> float:
    """Distance between SPD matrices under the Euc, AIRM, or LERM geometry.

    ``ridge=True`` applies :func:`stack_ridge` to both inputs of the
    strictly-positive-definite geometries, AIRM and LERM; Euc needs none.
    """
    if kind not in SPD_KINDS:
        raise ValueError(f"unknown SPD distance kind {kind!r}; expected one of {SPD_KINDS}")
    sa, sb = as_spd(A), as_spd(B)
    if sa.dim != sb.dim:
        raise ValueError(f"dimension mismatch: {sa.dim} vs {sb.dim}")
    if kind == "Euc":
        return float(np.linalg.norm(sa.entries - sb.entries))
    pair = np.stack([sa.entries, sb.entries])
    if ridge:
        pair = stack_ridge(pair)
    logs, ok = _strict_pd_logs(pair, (f"{kind} first argument", f"{kind} second argument"))
    if kind == "LERM":
        return float(np.linalg.norm(logs[0] - logs[1]))
    sq, valid = stack_airm_sq(pair[0], pair[1], ok[0])
    if not valid:
        raise SingularMatrixError("AIRM: generalized eigenvalue at or below the singularity floor")
    return float(np.sqrt(sq))


# -- batched primitives used by the permutation engine -----------------------
#
# Two metric spaces give 2x2 matrices, where numpy's batched LAPACK calls cost
# more in per-matrix dispatch than in arithmetic, so both kernels branch on
# shape[-1] == 2 to the scalar closed forms below.  Their floating-point
# exceptions are silenced: a NaN, inf, singular or indefinite item fails the
# validity test and gets a zero placeholder.  Larger matrices keep LAPACK's
# eigh, eigvalsh and Cholesky factor, but AIRM inverts the factor by forward
# substitution in ufuncs over the stack instead of two LU solves per item
# (per 1503-item 3x3 stack: solve 1.6 ms, cholesky 0.33 ms, matmul 0.11 ms),
# and both AIRM kernels read A's floor test from ``a_ok``, the log's mask.


def _floor_ok(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Strict-PD test on (smallest, largest) eigenvalues."""
    return lo > SPD_FLOOR_REL * np.maximum(hi, 0.0)


def _sym2_eigvals(a, b, d, det=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(l1, l2, h) for the symmetric 2x2 stack [[a, b], [b, d]]: eigenvalues
    l1 >= l2 and their half gap h = hypot((a - d)/2, b).  Where l2 = m - h
    would cancel (m the mean eigenvalue) it is det/l1, det = a*d - b*b unless
    the caller knows it more exactly; a*(d/l1) - b*(b/l1) takes det/l1
    without over- or underflowing a product."""
    m = 0.5 * (a + d)
    h = np.hypot(0.5 * (a - d), b)
    l1 = m + h
    l2 = m - h
    small = a * (d / l1) - b * (b / l1) if det is None else det / l1
    return l1, np.where(l2 <= 0.5 * m, small, l2), h


def _matrix_log_2x2(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # log M = g2*I + beta*(M - l2*I), beta the divided difference
    # (log l1 - log l2)/(l1 - l2) = log1p(2h/l2)/(2h), 1/l2 at h = 0
    # (Higham 2008, Functions of Matrices, section 11)
    a, b, d = stack[..., 0, 0], stack[..., 1, 0], stack[..., 1, 1]
    with np.errstate(all="ignore"):
        l1, l2, h = _sym2_eigvals(a, b, d)
        valid = _floor_ok(l2, l1)
        x = 2.0 * h / l2
        beta = np.where(x > 0.0, np.log1p(x) / x, 1.0) / l2
        g2 = np.log(l2)
        logs = np.empty(stack.shape)
        logs[..., 0, 0] = g2 + beta * (a - l2)
        logs[..., 1, 1] = g2 + beta * (d - l2)
        logs[..., 0, 1] = logs[..., 1, 0] = beta * b
    logs[~valid] = 0.0
    return logs, valid


def _matrix_log_lapack(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(stack)
    valid = _floor_ok(w[..., 0], w[..., -1])
    safe_w = np.where(w > 0, w, 1.0)
    logs = (v * np.log(safe_w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    return logs, valid


def stack_matrix_log(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Matrix logs of a symmetric stack plus a strict-PD validity mask.

    Invalid items get a finite placeholder log; callers must apply the mask.
    """
    if stack.shape[-1] == 2:
        return _matrix_log_2x2(stack)
    return _matrix_log_lapack(stack)


def _airm_sq_2x2(
    A: np.ndarray, B: np.ndarray, a_ok: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    # A^-1 B has the eigenvalues mu of C = L^-1 B L^-T, with L = [[sqrt(a), 0],
    # [u*sqrt(a), sqrt(e)]] the Cholesky factor of A, u = b/a and e = d - u*b.
    # log(mu) keeps an absolute error of an ulp of 1, which near A = B, the
    # R_mu case, is large against log(mu) itself; there, when every |mu - 1|
    # < 1/2, the logs are log1p(nu) of the eigenvalues nu of C - I =
    # L^-1 (B - A) L^-T.  Farther apart, C's small eigenvalue comes from
    # det(C) = det(B)/det(A), which does not cancel as C's own entries would.
    # The quadratic formula for det(B - mu*A) = 0 is not used: its
    # discriminant cancels when A ~ B.
    a, b, d = A[..., 0, 0], A[..., 1, 0], A[..., 1, 1]
    with np.errstate(all="ignore"):
        p, q, r = B[..., 0, 0], 0.5 * (B[..., 0, 1] + B[..., 1, 0]), B[..., 1, 1]
        dp, dq, dr = p - a, q - b, r - d
        u = b / a
        e = d - u * b
        f = np.sqrt(a) * np.sqrt(e)
        det_c = (p * r - q * q) / (a * e)
        mu1, mu2, _ = _sym2_eigvals(
            p / a, (q - u * p) / f, (r - u * (2.0 * q - u * p)) / e, det_c
        )
        n11, n12, n22 = dp / a, (dq - u * dp) / f, (dr - u * (2.0 * dq - u * dp)) / e
        mid = 0.5 * (n11 + n22)
        half_gap = np.hypot(0.5 * (n11 - n22), n12)
        nu1, nu2 = mid + half_gap, mid - half_gap
        near = np.maximum(nu1, -nu2) < 0.5
        g1 = np.where(near, np.log1p(nu1), np.log(mu1))
        g2 = np.where(near, np.log1p(nu2), np.log(mu2))
        valid = a_ok & _floor_ok(mu2, mu1)
        sq = np.where(valid, g1 * g1 + g2 * g2, 0.0)
    return sq, valid


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower-triangular factors by forward substitution,
    one ufunc call per entry and term over the whole stack."""
    dim = L.shape[-1]
    T = np.zeros(L.shape)
    for i in range(dim):
        T[..., i, i] = 1.0 / L[..., i, i]
        for j in range(i):
            acc = L[..., i, j] * T[..., j, j]
            for k in range(j + 1, i):
                acc += L[..., i, k] * T[..., k, j]
            T[..., i, j] = -acc / L[..., i, i]
    return T


def _airm_sq_lapack(
    A: np.ndarray, B: np.ndarray, a_ok: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    A_safe = np.where(a_ok[..., None, None], A, np.eye(A.shape[-1]))
    T = _lower_inverse(np.linalg.cholesky(A_safe))
    C = T @ B @ np.swapaxes(T, -1, -2)
    C = 0.5 * (C + np.swapaxes(C, -1, -2))
    w = np.linalg.eigvalsh(C)
    valid = a_ok & _floor_ok(w[..., 0], w[..., -1])
    logs = np.log(np.where(w > 0, w, 1.0))
    return np.sum(logs * logs, axis=-1), valid


def stack_airm_sq(
    A: np.ndarray, B: np.ndarray, a_ok: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Squared AIRM distances for broadcastable stacks of SPD matrices, with
    validity mask.

    ``a_ok`` is A's strict-PD test, the mask :func:`stack_matrix_log` gives
    for A, so AIRM judges A as LERM does; an item is valid when it holds and
    A^-1 B's eigenvalues clear the same floor.  Invalid items get a finite
    placeholder; callers must apply the mask.
    """
    if A.shape[-1] == 2:
        return _airm_sq_2x2(A, B, a_ok)
    return _airm_sq_lapack(A, B, a_ok)
