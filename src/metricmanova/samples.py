"""Sample containers and Fréchet mean / variance computation.

A :class:`SpaceSample` holds one metric space's observations, either as
native objects with a distance function or as a precomputed distance matrix.
A :class:`GroupedMultiSample` aligns several spaces observation-by-observation
and carries the group labels; it is the input to every test in the package.

The Fréchet mean of a sample is the point minimizing the mean of squared
distances to the observations.  Spaces constructed through
:mod:`metricmanova.spaces` register exact solvers; a space known only through
its distances falls back to the sample medoid, which restricts the minimizer
to the observed points and is therefore an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .errors import DataError

# comparison slack used when checking user-supplied distance matrices
_SYM_TOL = 1.0e-10


@dataclass
class _FastOps:
    """Vectorized hooks for registered space kinds.

    ``embedding`` holds one row per observation in coordinates where the
    space's metric coincides with the Euclidean L2 distance; group means and
    distances then reduce to array arithmetic.  ``pairwise_fn`` builds the
    distance matrix of a vectorizable kind whose metric is not an L2
    embedding (L1 on R^k); such a space takes medoid means from that matrix.
    """

    embedding: Optional[np.ndarray] = None
    row_to_point: Optional[Callable[[np.ndarray], Any]] = None
    point_to_row: Optional[Callable[[Any], np.ndarray]] = None
    pairwise_fn: Optional[Callable[[], np.ndarray]] = None


class SpaceSample:
    """Observations from one metric space.

    Exactly one of ``points`` (with ``distance``) or ``distances`` must be
    provided.  ``exact_mean`` is an optional solver ``(points, weights) ->
    point`` returning the exact Fréchet mean of a subset; without it the
    sample medoid is used.
    """

    def __init__(
        self,
        space_id: str,
        *,
        points: Optional[Sequence[Any]] = None,
        distance: Optional[Callable[[Any, Any], float]] = None,
        distances: Optional[np.ndarray] = None,
        exact_mean: Optional[Callable] = None,
        kind: str = "custom",
        _fast: Optional[_FastOps] = None,
    ):
        self.space_id = str(space_id)
        self.kind = kind
        self._points = list(points) if points is not None else None
        self.distance = distance
        self.exact_mean_solver = exact_mean
        self._fast = _fast
        self._pairwise: Optional[np.ndarray] = None

        if distances is not None:
            if self._points is not None:
                raise ValueError(
                    f"space {self.space_id!r}: give either points or a distance "
                    "matrix, not both"
                )
            self._pairwise = self._validate_matrix(np.asarray(distances, dtype=float))
            self._n = self._pairwise.shape[0]
        elif self._points is not None:
            if distance is None and _fast is None:
                raise ValueError(
                    f"space {self.space_id!r}: points require a distance function"
                )
            self._n = len(self._points)
        elif _fast is not None and _fast.embedding is not None:
            self._n = _fast.embedding.shape[0]
        else:
            raise ValueError(f"space {self.space_id!r}: no observations provided")
        if self._n == 0:
            raise ValueError(f"space {self.space_id!r} is empty")

    # -- basic introspection ------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def has_exact_mean(self) -> bool:
        return self.exact_mean_solver is not None or (
            self._fast is not None and self._fast.embedding is not None
        )

    def point(self, i: int) -> Any:
        """The i-th observation as a native object."""
        if self._points is not None:
            return self._points[i]
        if self._fast is not None and self._fast.row_to_point is not None:
            return self._fast.row_to_point(self._fast.embedding[i])
        return int(i)  # distance-matrix spaces expose observations by index

    def points(self) -> list:
        return [self.point(i) for i in range(self._n)]

    # -- distances ----------------------------------------------------------

    def _validate_matrix(self, mat: np.ndarray) -> np.ndarray:
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DataError(
                f"space {self.space_id!r}: distance matrix must be square, "
                f"got shape {mat.shape}"
            )
        if not np.all(np.isfinite(mat)):
            raise DataError(f"space {self.space_id!r}: non-finite distance")
        if np.any(mat < 0):
            raise DataError(f"space {self.space_id!r}: negative distance")
        scale = max(1.0, float(np.max(mat)))
        if np.max(np.abs(mat - mat.T)) > _SYM_TOL * scale:
            raise DataError(f"space {self.space_id!r}: distance matrix not symmetric")
        if np.max(np.abs(np.diag(mat))) > _SYM_TOL * scale:
            raise DataError(f"space {self.space_id!r}: distance matrix diagonal not zero")
        mat = 0.5 * (mat + mat.T)
        np.fill_diagonal(mat, 0.0)
        return mat

    def pairwise(self) -> np.ndarray:
        """Full n-by-n distance matrix, computed once and cached."""
        if self._pairwise is None:
            if self._fast is not None and self._fast.embedding is not None:
                X = self._fast.embedding
                sq = np.sum(X * X, axis=1)
                g = X @ X.T
                d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * g, 0.0)
                mat = np.sqrt(d2)
                np.fill_diagonal(mat, 0.0)
            elif self._fast is not None and self._fast.pairwise_fn is not None:
                mat = self._fast.pairwise_fn()
            else:
                pts = self._points
                n = self._n
                mat = np.zeros((n, n), dtype=float)
                for i in range(n):
                    for j in range(i + 1, n):
                        mat[i, j] = mat[j, i] = float(self.distance(pts[i], pts[j]))
            self._pairwise = self._validate_matrix(mat)
        return self._pairwise

    def distances_to(self, point: Any, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """Distances from the observations ``idx`` (default all) to ``point``."""
        if idx is None:
            idx = np.arange(self._n)
        if isinstance(point, (int, np.integer)) and self._points is None and (
            self._fast is None or self._fast.embedding is None
        ):
            return self.pairwise()[idx, int(point)]
        if self._fast is not None and self._fast.embedding is not None:
            row = self._fast.point_to_row(point)
            diff = self._fast.embedding[idx] - row[None, :]
            return np.sqrt(np.sum(diff * diff, axis=1))
        out = np.empty(len(idx), dtype=float)
        for k, i in enumerate(idx):
            out[k] = float(self.distance(self._points[i], point))
        if not np.all(np.isfinite(out)) or np.any(out < 0):
            raise DataError(f"space {self.space_id!r}: invalid distance value")
        return out

    def mean_of(self, idx: np.ndarray) -> Any:
        """Exact Fréchet mean of the observations ``idx`` (requires a solver)."""
        if self.exact_mean_solver is not None:
            pts = [self.point(i) for i in idx]
            return self.exact_mean_solver(pts, None)
        if self._fast is not None and self._fast.embedding is not None:
            return self._fast.row_to_point(self._fast.embedding[idx].mean(axis=0))
        raise ValueError(f"space {self.space_id!r} has no exact mean solver")


@dataclass(frozen=True)
class FrechetMeanResult:
    """Result of a Fréchet mean computation.

    ``mean`` is a native object, or the observation index for spaces known
    only through a distance matrix.  ``objective`` is the attained mean of
    squared distances over the subset.  ``solver`` is ``"exact"`` or
    ``"medoid"``; ``index`` is set when the mean is an observed point.
    """

    mean: Any
    objective: float
    solver: str
    index: Optional[int] = None


def _check_subset(n: int, subset: Optional[Sequence[int]]) -> np.ndarray:
    if subset is None:
        return np.arange(n)
    idx = np.unique(np.asarray(subset, dtype=int))
    if idx.size == 0:
        raise ValueError("subset must be non-empty")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError(f"subset indices out of range [0, {n})")
    return idx


def frechet_mean(sample: SpaceSample, subset: Optional[Sequence[int]] = None) -> FrechetMeanResult:
    """Fréchet mean of ``sample`` restricted to ``subset`` (default: all).

    With an exact solver the returned objective is evaluated at the solver's
    output; otherwise the sample medoid is returned, ties broken by lowest
    observation index.
    """
    idx = _check_subset(sample.n, subset)
    if sample.has_exact_mean:
        point = sample.mean_of(idx)
        d = sample.distances_to(point, idx)
        return FrechetMeanResult(
            mean=point,
            objective=float(np.mean(d * d)),
            solver="exact",
        )
    dist = sample.pairwise()
    sub = dist[np.ix_(idx, idx)]
    objectives = np.mean(sub * sub, axis=1)
    k = int(np.argmin(objectives))  # first minimum = lowest index
    medoid = int(idx[k])
    return FrechetMeanResult(
        mean=sample.point(medoid),
        objective=float(objectives[k]),
        solver="medoid",
        index=medoid,
    )


def frechet_variance(
    sample: SpaceSample,
    mean: FrechetMeanResult,
    subset: Optional[Sequence[int]] = None,
) -> float:
    """Mean squared distance from ``mean`` to the subset's observations."""
    idx = _check_subset(sample.n, subset)
    if mean.index is not None:
        d = sample.pairwise()[idx, mean.index]
    else:
        d = sample.distances_to(mean.mean, idx)
    return float(np.mean(d * d))


class GroupedMultiSample:
    """S aligned space samples plus a group label per observation.

    Observation ``i`` is the object vector ``(spaces[0][i], ..., spaces[S-1][i])``.
    Labels may be any sortable values; they are mapped to contiguous group
    codes internally.  Every group must contain at least two observations.
    """

    def __init__(self, spaces: Sequence[SpaceSample], labels: Sequence):
        spaces = list(spaces)
        if not spaces:
            raise ValueError("at least one space sample is required")
        n = spaces[0].n
        for sp in spaces:
            if sp.n != n:
                raise ValueError(
                    f"space {sp.space_id!r} has {sp.n} observations, expected {n}"
                )
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
        group_ids, codes = np.unique(labels, return_inverse=True)
        counts = np.bincount(codes, minlength=len(group_ids))
        if np.any(counts < 2):
            small = group_ids[counts < 2]
            raise DataError(f"every group needs at least 2 observations; too small: {small}")
        self.spaces = spaces
        self.labels = labels
        self.group_ids = group_ids
        self.codes = codes.astype(np.int64)
        self.counts = counts.astype(np.int64)
        self.gammas = counts / float(n)

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def n_spaces(self) -> int:
        return len(self.spaces)

    @property
    def n_groups(self) -> int:
        return len(self.group_ids)

    def group_indices(self, j: int) -> np.ndarray:
        """Observation indices of group code ``j``."""
        return np.flatnonzero(self.codes == j)

    def with_labels(self, labels: Sequence) -> "GroupedMultiSample":
        """Same observations under a new label vector (spaces are shared)."""
        return GroupedMultiSample(self.spaces, labels)


@dataclass(frozen=True)
class DistanceProfile:
    """n-by-S matrix of distances from each observation to a Fréchet mean.

    ``mean_mode`` is ``"pooled"`` (distance to the all-observations mean of
    each space) or ``"per-group"`` (distance to the observation's own group
    mean).
    """

    values: np.ndarray
    mean_mode: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("profile values must be an n-by-S matrix")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise DataError("distance profile entries must be finite and non-negative")
        object.__setattr__(self, "values", vals)
        if self.mean_mode not in ("pooled", "per-group"):
            raise ValueError(f"unknown mean_mode {self.mean_mode!r}")


def distance_profile(ms: GroupedMultiSample, mode: str = "per-group") -> DistanceProfile:
    """Distance profile of ``ms`` under pooled or per-group means."""
    from .engine import StatEngine  # deferred to avoid an import cycle

    engine = StatEngine(ms)
    if mode == "pooled":
        values = engine.pooled_profile.copy()
    elif mode == "per-group":
        values = engine.group_profiles(ms.codes[None, :])[0]
    else:
        raise ValueError(f"unknown mean_mode {mode!r}")
    return DistanceProfile(values=values, mean_mode=mode)
