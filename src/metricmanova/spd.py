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
regularizing; callers may opt into an explicit ridge repair.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from .errors import DataError, SingularMatrixError

SPD_FLOOR_REL = 1.0e-12  # strict-PD floor, relative to the largest eigenvalue
PSD_TOL_REL = 1.0e-10  # allowed negative rounding for semi-definite carriers
_SYM_TOL = 1.0e-10

SPD_KINDS = ("Euc", "AIRM", "LERM")

MatrixLike = Union[np.ndarray, "SpdMatrix"]


def _check_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DataError("non-finite matrix entry")
    scale = max(1.0, float(np.max(np.abs(A))))
    if np.max(np.abs(A - A.T)) > _SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (A + A.T)


def sym_eig(A: MatrixLike) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix."""
    if isinstance(A, SpdMatrix):
        return A.eigenvalues, A.eigenvectors
    A = _check_symmetric(A)
    w, v = np.linalg.eigh(A)
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
        mat = _check_symmetric(np.asarray(entries, dtype=float))
        w, v = np.linalg.eigh(mat)
        top = max(float(w[-1]), 0.0)
        if w[0] < -PSD_TOL_REL * max(1.0, top):
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
    def spd_floor(self) -> float:
        return SPD_FLOOR_REL * max(float(self.eigenvalues[0]), 0.0)

    @property
    def is_strictly_pd(self) -> bool:
        return self.min_eigenvalue > self.spd_floor

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


def _require_strict_pd(spd: SpdMatrix, what: str) -> None:
    if not spd.is_strictly_pd:
        raise SingularMatrixError(
            f"{what}: eigenvalue {spd.min_eigenvalue:.6e} at or below the "
            f"singularity floor {spd.spd_floor:.6e}"
        )


def matrix_log(A: MatrixLike) -> np.ndarray:
    """Principal matrix logarithm U diag(log lambda) U^T of an SPD matrix."""
    spd = as_spd(A)
    _require_strict_pd(spd, "matrix_log")
    return stack_matrix_log(spd.entries)[0]


def matrix_exp_sym(A: MatrixLike) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (inverse of matrix_log)."""
    w, v = sym_eig(A)
    return (v * np.exp(w)[None, :]) @ v.T


def spd_distance(kind: str, A: MatrixLike, B: MatrixLike, *, ridge: bool = False) -> float:
    """Distance between SPD matrices under the Euc, AIRM, or LERM geometry.

    ``ridge=True`` applies :func:`ridge_repair` to both inputs of the
    strictly-positive-definite geometries, AIRM and LERM; Euc needs none.
    """
    if kind not in SPD_KINDS:
        raise ValueError(f"unknown SPD distance kind {kind!r}; expected one of {SPD_KINDS}")
    sa, sb = as_spd(A), as_spd(B)
    if sa.dim != sb.dim:
        raise ValueError(f"dimension mismatch: {sa.dim} vs {sb.dim}")
    if kind == "Euc":
        return float(np.linalg.norm(sa.entries - sb.entries))
    if ridge:
        sa, sb = ridge_repair(sa), ridge_repair(sb)
    _require_strict_pd(sa, f"{kind} first argument")
    _require_strict_pd(sb, f"{kind} second argument")
    if kind == "LERM":
        return float(np.linalg.norm(matrix_log(sa) - matrix_log(sb)))
    sq, valid = stack_airm_sq(sa.entries, sb.entries)
    if not valid:
        raise SingularMatrixError("AIRM: generalized eigenvalue at or below the singularity floor")
    return float(np.sqrt(sq))


# -- batched primitives used by the permutation engine -----------------------


def stack_min_max_eig(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(min, max) eigenvalues for a (..., S, S) stack of symmetric matrices."""
    w = np.linalg.eigvalsh(stack)
    return w[..., 0], w[..., -1]


def stack_matrix_log(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Matrix logs of a symmetric stack plus a strict-PD validity mask.

    Invalid items get a finite placeholder log; callers must apply the mask.
    """
    w, v = np.linalg.eigh(stack)
    top = np.maximum(w[..., -1], 0.0)
    valid = w[..., 0] > SPD_FLOOR_REL * top
    safe_w = np.where(w > 0, w, 1.0)
    logs = (v * np.log(safe_w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    return logs, valid


def stack_airm_sq(A: np.ndarray, B: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Squared AIRM distances for broadcastable stacks of SPD matrices, with
    validity mask."""
    wa_min, wa_max = stack_min_max_eig(A)
    valid = wa_min > SPD_FLOOR_REL * np.maximum(wa_max, 0.0)
    dim = A.shape[-1]
    eye = np.eye(dim)
    A_safe = np.where(valid[..., None, None], A, eye)
    L = np.linalg.cholesky(A_safe)
    Y = np.linalg.solve(L, B)
    C = np.linalg.solve(L, np.swapaxes(Y, -1, -2))
    C = 0.5 * (C + np.swapaxes(C, -1, -2))
    w = np.linalg.eigvalsh(C)
    valid = valid & (w[..., 0] > SPD_FLOOR_REL * np.maximum(w[..., -1], 0.0))
    logs = np.log(np.where(w > 0, w, 1.0))
    return np.sum(logs * logs, axis=-1), valid
