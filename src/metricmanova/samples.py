"""Sample containers and Fréchet mean / variance computation.

A :class:`SpaceSample` holds one metric space's observations as coordinate
rows, a distance matrix, or user objects with a distance function, and the
representation decides the Fréchet mean, the point minimizing the mean of
squared distances to the observations: the centroid of rows under an L2
metric, a user's exact solver, or else the sample medoid, which restricts
the minimizer to the observed points and is therefore an approximation.
A :class:`GroupedMultiSample` aligns several spaces observation-by-observation
and carries the group labels; it is the input to every test in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DataError

# comparison slack used when checking user-supplied distance matrices
_SYM_TOL = 1.0e-10


class SpaceSample:
    """Observations from one metric space, in one of three representations.

    * ``coords``: an (n, k) array with one row per observation, and
      ``to_point`` turning a row into the native object (by default a copy
      of the row).  Without a distance matrix the metric is the L2 distance
      between rows, ``embedding`` is ``coords``, and the mean is the
      centroid; a native point enters distances through ``np.asarray(point)``.
    * ``distances``: the n-by-n distance matrix; the mean is the medoid.
      Given beside ``coords`` the matrix is the metric and the rows only carry
      the observations (for ``point`` and for saving), and ``distance``
      measures to points outside the sample.
    * ``points`` with a ``distance`` function, and optionally ``exact_mean``,
      a solver ``(points, weights) -> point`` returning the exact Fréchet mean
      of a subset; without it the mean is the medoid.
    """

    def __init__(
        self,
        space_id: str,
        *,
        points: Optional[Sequence[Any]] = None,
        distance: Optional[Callable[[Any, Any], float]] = None,
        distances: Optional[np.ndarray] = None,
        exact_mean: Optional[Callable] = None,
        coords: Optional[np.ndarray] = None,
        to_point: Callable[[np.ndarray], Any] = np.array,
        kind: str = "custom",
    ):
        self.space_id = str(space_id)
        self.kind = kind
        self._points = list(points) if points is not None else None
        self.distance = distance
        self.exact_mean_solver = exact_mean
        self._to_point = to_point
        if self._points is not None and (coords is not None or distances is not None):
            raise ValueError(
                f"space {self.space_id!r}: give either points or coordinates "
                "and/or a distance matrix, not both"
            )
        if self._points is not None and distance is None:
            raise ValueError(f"space {self.space_id!r}: points require a distance function")
        if coords is not None:
            coords = np.asarray(coords, dtype=float).view()
            if coords.ndim != 2:
                raise ValueError(f"space {self.space_id!r}: coords must be an (n, k) array")
            coords.flags.writeable = False
        if distances is not None:
            distances = self._validate_matrix(np.asarray(distances, dtype=float))
        self._coords = coords
        self._pairwise = distances
        self._embedding = coords if distances is None else None
        sizes = {len(x) for x in (self._points, coords, distances) if x is not None}
        if len(sizes) > 1:
            raise ValueError(f"space {self.space_id!r}: sizes {sorted(sizes)} disagree")
        self._n = sizes.pop() if sizes else 0
        if self._n == 0:
            raise ValueError(f"space {self.space_id!r} has no observations")

    # -- basic introspection ------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def coords(self) -> Optional[np.ndarray]:
        """Read-only (n, k) coordinate rows, or None without coordinates."""
        return self._coords

    @property
    def embedding(self) -> Optional[np.ndarray]:
        """``coords`` when the metric is their L2 distance, else None."""
        return self._embedding

    @property
    def has_exact_mean(self) -> bool:
        return self.exact_mean_solver is not None or self._embedding is not None

    def point(self, i: int) -> Any:
        """The i-th observation as a native object."""
        if self._points is not None:
            return self._points[i]
        if self._coords is not None:
            return self._to_point(self._coords[i])
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
            X = self._embedding
            if X is not None:
                sq = np.sum(X * X, axis=1)
                g = X @ X.T
                d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * g, 0.0)
                mat = np.sqrt(d2)
                np.fill_diagonal(mat, 0.0)
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
        if self._embedding is not None:
            row = np.asarray(point, dtype=float).reshape(-1)
            diff = self._embedding[idx] - row[None, :]
            return np.sqrt(np.sum(diff * diff, axis=1))
        if self._points is None and self._coords is None:
            return self.pairwise()[idx, point]  # a bare matrix: points are indices
        out = np.empty(len(idx), dtype=float)
        for k, i in enumerate(idx):
            out[k] = float(self.distance(self.point(i), point))
        if not np.all(np.isfinite(out)) or np.any(out < 0):
            raise DataError(f"space {self.space_id!r}: invalid distance value")
        return out

    def mean_of(self, idx: np.ndarray) -> Any:
        """Exact Fréchet mean of the observations ``idx`` (requires a solver)."""
        if self.exact_mean_solver is not None:
            pts = [self.point(i) for i in idx]
            return self.exact_mean_solver(pts, None)
        if self._embedding is not None:
            return self._to_point(self._embedding[idx].mean(axis=0))
        raise ValueError(f"space {self.space_id!r} has no exact mean solver")


@dataclass(frozen=True)
class FrechetMeanResult:
    """Result of a Fréchet mean computation.

    ``mean`` is a native object, or the observation index for spaces known
    only through a distance matrix.  ``objective`` is the attained mean of
    squared distances over the subset.  ``solver`` is ``"exact"`` or
    ``"medoid"``; ``index`` is set when the mean is an observed point: the
    medoid, the lowest-index member whose sum of squared distances lies within
    2(n_j - 1)·eps·min of the subset's least sum.
    """

    mean: Any
    objective: float
    solver: str
    index: Optional[int] = None


def _clipped_squares(dist: np.ndarray) -> np.ndarray:
    """Squared distances, clipped at the largest float so that an overflowed
    square never meets a zero mask entry (0 * inf) in :func:`_medoids`."""
    return np.minimum(np.square(dist), np.finfo(float).max)


def _medoids(masks: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """(L, J) medoid of each group of an (L, J, n) stack of 0/1 masks: the
    lowest-index member whose group sum of ``squares`` lies within
    2(n_j - 1)·eps·min of the group's least sum, the rounding bound of any
    n_j-term summation order (Higham 2002, §4.2)."""
    big = np.finfo(float).max
    sums = np.minimum(masks @ squares, big)  # members stay below non-members' inf
    sums[masks == 0.0] = np.inf
    least = sums.min(axis=2, keepdims=True)
    slack = 2.0 * (masks.sum(axis=2, keepdims=True) - 1.0) * np.finfo(float).eps
    # capped, or a group whose sums clip to the largest float admits +inf
    limit = np.minimum(least + slack * least, big)
    return np.argmin(sums > limit, axis=2)  # the first member within the limit


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
    output; otherwise the sample medoid is returned: the lowest-index member
    whose sum of squared distances lies within 2(n_j - 1)·eps·min of the
    subset's least sum, so near-ties resolve alike on every path.
    """
    return _mean_and_distances(sample, _check_subset(sample.n, subset))[0]


def _mean_and_distances(
    sample: SpaceSample, idx: np.ndarray
) -> Tuple[FrechetMeanResult, np.ndarray]:
    """Fréchet mean of the observations ``idx`` and their distances to it."""
    if sample.has_exact_mean:
        point, index = sample.mean_of(idx), None
        d = sample.distances_to(point, idx)
    else:
        squares = _clipped_squares(sample.pairwise()[np.ix_(idx, idx)])
        index = int(idx[_medoids(np.ones((1, 1, idx.size)), squares)[0, 0]])
        point, d = sample.point(index), sample.pairwise()[idx, index]
    solver = "exact" if index is None else "medoid"
    result = FrechetMeanResult(
        mean=point, objective=float(np.mean(d * d)), solver=solver, index=index
    )
    return result, d


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
