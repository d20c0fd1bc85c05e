"""Concrete metric spaces: location-scale Gaussians under Wasserstein-2,
Euclidean vectors under L1/L2, and graph Laplacians under Frobenius.

Each constructor returns a :class:`~metricmanova.samples.SpaceSample` in one
of its three representations.  Gaussian-W2, Euclidean-L2, Euclidean-L1 in one
dimension (where L1 equals L2) and Laplacian-Frobenius are coordinate rows
whose L2 distance is the metric, so the exact Fréchet mean is the centroid:
for Gaussians the rows are (mu, sigma), and the squared Wasserstein-2
objective is separable and quadratic in both; for Laplacians they are the
flattened matrices, and the Laplacian constraints are linear, so the mean
stays in the set.  Euclidean-L1 in more dimensions keeps its rows beside
their L1 distance matrix and takes medoid means; ``distance_matrix_space``
and ``custom_space`` are the other two representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DataError
from .samples import SpaceSample

_LAP_TOL = 1.0e-10


@dataclass(frozen=True)
class GaussianPoint:
    """A univariate normal distribution N(mu, sigma^2), sigma > 0; as an
    array, the row (mu, sigma)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.mu) or not np.isfinite(self.sigma):
            raise DataError(f"non-finite Gaussian parameters ({self.mu}, {self.sigma})")
        if self.sigma <= 0:
            raise DataError(f"sigma must be positive, got {self.sigma}")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array([self.mu, self.sigma], dtype=dtype)


@dataclass(frozen=True)
class EuclideanPoint:
    """A point of R^k with finite coordinates."""

    coords: tuple

    def __init__(self, coords: Iterable[float]):
        arr = np.asarray(tuple(coords), dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coords must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise DataError("non-finite coordinate")
        object.__setattr__(self, "coords", tuple(float(c) for c in arr))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.coords, dtype=dtype)


class LaplacianMatrix:
    """Graph Laplacian: symmetric, zero row sums, non-positive off-diagonal;
    as an array, its entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Union[np.ndarray, Sequence]):
        mat = np.array(entries, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DataError(f"Laplacian must be square, got shape {mat.shape}")
        _validate_laplacian_stack(mat[None, :, :])
        mat.setflags(write=False)
        self.entries = mat

    @property
    def n_nodes(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.entries, dtype=dtype)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaplacianMatrix) and np.array_equal(
            self.entries, other.entries
        )

    def __repr__(self) -> str:
        return f"LaplacianMatrix(n_nodes={self.n_nodes})"


def _validate_laplacian_stack(stack: np.ndarray) -> None:
    """Check Laplacian invariants for a (m, k, k) stack in one pass, to a
    tolerance relative to the largest entry: the centroid of integer-weighted
    Laplacians with exactly zero row sums has row sums of rounding size."""
    if not np.all(np.isfinite(stack)):
        raise DataError("non-finite Laplacian entry")
    tol = _LAP_TOL * max(1.0, float(np.max(np.abs(stack))))
    if np.max(np.abs(stack - stack.transpose(0, 2, 1))) > tol:
        raise DataError("Laplacian not symmetric")
    if np.max(np.abs(stack.sum(axis=2))) > tol:
        raise DataError("Laplacian row sums must be zero")
    k = stack.shape[1]
    off = stack.copy()
    diag_idx = np.arange(k)
    off[:, diag_idx, diag_idx] = 0.0
    if np.max(off) > tol:
        raise DataError("Laplacian off-diagonal entries must be non-positive")
    if np.min(stack[:, diag_idx, diag_idx]) < -tol:
        raise DataError("Laplacian diagonal entries must be non-negative")


def w2_gaussian(p: GaussianPoint, q: GaussianPoint) -> float:
    """Wasserstein-2 distance between location-scale Gaussians.

    For univariate normals this is sqrt((mu_p - mu_q)^2 + (sigma_p - sigma_q)^2);
    with equal sigmas it reduces to the absolute difference in means.
    """
    return float(np.hypot(p.mu - q.mu, p.sigma - q.sigma))


def euclidean_distance(x: EuclideanPoint, y: EuclideanPoint, norm: str = "L2") -> float:
    """L1 or L2 distance between Euclidean points of equal dimension."""
    a, b = x.array, y.array
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    if norm == "L2":
        return float(np.linalg.norm(a - b))
    if norm == "L1":
        return float(np.sum(np.abs(a - b)))
    raise ValueError(f"unknown norm {norm!r}")


def frobenius_distance(A: LaplacianMatrix, B: LaplacianMatrix) -> float:
    """Frobenius distance between equally sized Laplacians."""
    if A.entries.shape != B.entries.shape:
        raise ValueError(
            f"dimension mismatch: {A.entries.shape} vs {B.entries.shape}"
        )
    return float(np.linalg.norm(A.entries - B.entries))


def laplacian_from_edges(n: int, edges: Sequence[tuple]) -> LaplacianMatrix:
    """Laplacian L = D - A of an undirected simple graph on nodes 0..n-1."""
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    adj = np.zeros((n, n), dtype=float)
    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise DataError(f"edge ({u}, {v}) out of node range [0, {n})")
        if u == v:
            raise DataError(f"loop edge ({u}, {v}) not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DataError(f"duplicate edge {key}")
        seen.add(key)
        adj[u, v] = adj[v, u] = 1.0
    lap = np.diag(adj.sum(axis=1)) - adj
    return LaplacianMatrix(lap)


# -- space sample constructors ------------------------------------------------


def _as_gaussian_array(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array of (mu, sigma), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError("non-finite Gaussian parameters")
    if np.any(arr[:, 1] <= 0):
        raise DataError("all sigmas must be positive")
    return arr


def gaussian_space(space_id: str, points) -> SpaceSample:
    """Wasserstein-2 space of location-scale Gaussians.

    ``points`` is a sequence of :class:`GaussianPoint` or an (n, 2) array of
    (mu, sigma) rows.  The metric is an L2 isometry in (mu, sigma), so the
    exact Fréchet mean is the component-wise arithmetic mean.
    """
    return SpaceSample(
        space_id,
        coords=_as_gaussian_array(points),
        to_point=lambda row: GaussianPoint(float(row[0]), float(row[1])),
        distance=w2_gaussian,
        kind="gaussian",
    )


def _as_coord_array(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"expected an (n, k) coordinate array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError("non-finite coordinate")
    return arr


def euclidean_space(space_id: str, points, norm: str = "L2") -> SpaceSample:
    """R^k under the L2 or L1 metric.

    ``points`` is a sequence of :class:`EuclideanPoint` or an (n, k) array.
    L2 takes the arithmetic mean as exact solver; L1 does so only for k = 1,
    and otherwise takes the medoid under its L1 distance matrix.
    """
    arr = _as_coord_array(points)
    if norm not in ("L1", "L2"):
        raise ValueError(f"unknown norm {norm!r}")
    l1 = None
    if norm == "L1" and arr.shape[1] > 1:
        l1 = np.abs(arr[:, None, :] - arr[None, :, :]).sum(axis=2)
    return SpaceSample(
        space_id,
        coords=arr,
        distances=l1,
        to_point=EuclideanPoint,
        distance=lambda x, y: euclidean_distance(x, y, norm=norm),
        kind="euclidean-l2" if norm == "L2" else "euclidean-l1",
    )


def _as_laplacian_stack(points) -> np.ndarray:
    stack = np.asarray(points, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected an (n, k, k) stack, got shape {stack.shape}")
    _validate_laplacian_stack(stack)
    return stack


def laplacian_space(space_id: str, points) -> SpaceSample:
    """Graph Laplacians under the Frobenius metric.

    ``points`` is a sequence of :class:`LaplacianMatrix` or an (n, k, k)
    stack.  Frobenius is the L2 metric on the flattened entries, so the exact
    Fréchet mean is the entrywise arithmetic mean (itself a valid Laplacian).
    """
    stack = _as_laplacian_stack(points)
    n, k, _ = stack.shape
    return SpaceSample(
        space_id,
        coords=stack.reshape(n, k * k),
        to_point=lambda row: LaplacianMatrix(row.reshape(k, k)),
        distance=frobenius_distance,
        kind="laplacian",
    )


def distance_matrix_space(space_id: str, distances: np.ndarray) -> SpaceSample:
    """A space known only through its pairwise distances (medoid means)."""
    return SpaceSample(space_id, distances=distances, kind="distances")


def custom_space(space_id: str, points, distance, exact_mean=None) -> SpaceSample:
    """Arbitrary objects with a user distance and optional exact mean solver."""
    return SpaceSample(
        space_id,
        points=points,
        distance=distance,
        exact_mean=exact_mean,
        kind="custom",
    )
