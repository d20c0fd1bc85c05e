"""Sample containers and Fréchet mean / variance computation.

A :class:`SpaceSample` holds one metric space's observations as coordinate
rows, a distance matrix, or user objects with a distance function, and the
representation decides the Fréchet mean, the point minimizing the mean of
squared distances to the observations: the centroid of rows under an L2
metric, a user's exact solver, or else the sample medoid, which restricts
the minimizer to the observed points and is therefore an approximation.
A :class:`GroupedMultiSample` aligns several spaces observation-by-observation
and carries the group labels; it is the input to every test in the package.

A :class:`SpaceSample` checks its representation, whatever the kind, raising
:class:`~metricmanova.errors.DataError`: finite (n, k) rows, k >= 1, and
distance matrices that are non-negative, zero on the diagonal and pass
``spd._symmetrized``, which keeps the bits of agreeing pairs and sets each
pair a, b that differs within 1e-10 of the largest entry to 0.5a + 0.5b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DataError
from .spd import _SYM_TOL, _symmetrized

# OpenBLAS runs a GEMM of at most 10**6 multiply-adds on one thread, in its
# small-matrix kernel, and starts its other threads above that (0.3.31 on a
# 2-core AVX-512 Xeon).  The sums of 87 mask rows (one 29-labeling chunk,
# J = 3) in calls of 4, 8, 16 and 32 rows, each shape in a fresh process,
# since ``time.process_time`` also counts an OpenBLAS thread still spinning
# after an earlier threaded call, took in ms of wall time:
#   n =  60: 0.065  0.038  0.026  0.027      n = 250: 0.30  0.34  0.33  [0.24]
#   n = 120: 0.150  0.105  0.081  0.076      n = 300: 0.60  0.49  [0.57]
#   n = 176: 0.235  0.186  0.125  0.122      n = 350: 0.73  0.68  [0.65]
#   n = 200: 0.191  0.189  0.167  [0.185]    n = 360: 0.79  [1.04]
# with CPU equal to wall, but for the bracketed calls past the bound, which
# ran both threads at about twice the CPU of wall.  Four rows at n = 500
# (exactly 10**6) took 1.91 ms on one thread, eight 1.28 ms wall and 2.59 ms
# CPU.  Above n = 500 even four rows thread (5.2 ms wall and 9.4 ms CPU at
# n = 600), yet one-row calls took 14.0 ms there, so four rows stay; bounding
# the thread count needs thread control that numpy alone does not give
_SMALL_GEMM = 1_000_000


def _gemm_rows(n: int) -> int:
    """Mask rows per GEMM call in :func:`_medoid_sums` at n observations:
    the largest 4·2^k with rows·n² <= ``_SMALL_GEMM``, and 4 above n = 500,
    where even four rows exceed it: 8 at n = 300, 16 at n <= 250, 32 at
    n <= 176."""
    rows = 4
    while 2 * rows * n * n <= _SMALL_GEMM:
        rows *= 2
    return rows


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

    ``kind`` is the space's ``.msd`` block tag.  The five tags that save are
    ``gaussian``, ``euclidean-l2``, ``euclidean-l1``, ``laplacian`` and
    ``distances``; ``save_msd`` refuses any other kind.
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
            if coords.ndim != 2 or coords.shape[1] == 0 or not np.all(np.isfinite(coords)):
                raise DataError(f"space {self.space_id!r}: coords must be finite (n, k) rows, k >= 1")
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
        """``_symmetrized(mat)``, where ``mat`` is also non-negative with a zero diagonal."""
        try:
            sym = _symmetrized(mat, "distance matrix")
        except DataError as exc:
            raise DataError(f"space {self.space_id!r}: {exc}") from None
        if np.any(mat < 0):
            raise DataError(f"space {self.space_id!r}: negative distance")
        if np.max(np.abs(np.diag(mat))) > _SYM_TOL * np.max(mat):
            raise DataError(f"space {self.space_id!r}: distance matrix diagonal not zero")
        np.fill_diagonal(sym, 0.0)
        return sym

    def pairwise(self) -> np.ndarray:
        """Full n-by-n distance matrix, computed once and cached."""
        if self._pairwise is None:
            X = self._embedding
            if X is not None:  # exactly symmetric, with a zero diagonal
                mat = np.stack([self.distances_to(row) for row in X])
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
            with np.errstate(over="ignore"):  # an overflowed square reads inf
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
    square never meets a zero mask entry (0 * inf) in :func:`_medoids`.  The
    overflow is expected, so no warning is raised.  The square is clipped in
    place, so the n² array is allocated once."""
    with np.errstate(over="ignore"):
        squares = np.square(dist)
    return np.minimum(squares, np.finfo(float).max, out=squares)


def _mean_square(d: np.ndarray) -> float:
    """Mean of ``d * d``; inf, without a warning, where a square overflows."""
    with np.errstate(over="ignore"):
        return float(np.mean(d * d))


def _medoid_sums(
    rows: np.ndarray, squares: np.ndarray, penalty: np.ndarray, out: np.ndarray
) -> None:
    """Write into ``out`` the (m, n) group sums ``rows @ squares`` of an
    (m, n) stack of 0/1 mask rows: each member's sum of ``squares`` over its
    group, capped at the largest float, plus ``penalty`` (1/mask − 1: 0 for
    a member, +inf for a non-member).

    The rows are multiplied ``_gemm_rows(n)`` at a time; the last call takes
    the final rows, overlapping the one before it, because a one-row product
    runs as a GEMV whose sums differ from a GEMM row's in the last bits.
    Sums that overflow are expected and capped, so no warning is raised."""
    m, n = rows.shape
    step = _gemm_rows(n)
    last = max(m - step, 0)
    with np.errstate(over="ignore"):
        for start in range(0, m, step):
            block = slice(min(start, last), min(start, last) + step)
            np.matmul(rows[block], squares, out=out[block])
        np.minimum(out, np.finfo(float).max, out=out)  # members stay below inf
    out += penalty


def _medoids(
    masks: np.ndarray, counts: np.ndarray, squares: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """(L, J) medoids of each group of an (L, J, n) stack of 0/1 masks with
    (L, J) member ``counts``, one array per matrix of ``squares``: the
    lowest-index member whose group sum of that matrix lies within
    2(n_j - 1)·eps·min of the group's least sum, the rounding bound of any
    n_j-term summation order (Higham 2002, §4.2).

    Only this pick leaves the function, and the slack makes it independent
    of how the sums are grouped, so :func:`_medoid_sums` multiplies the masks
    in GEMM calls as tall as one BLAS thread allows and gives non-members an
    additive +inf.  The penalty, the slack and the sums buffer are built once
    and serve every matrix.  The centroid sums ``masks @ X`` in the engine
    keep one GEMM per labeling: their bits reach the statistics, four-row
    blocks moved them at k ≤ 10 (and with them the continuous T_FA
    p-values), and they were slower at small k."""
    L, J, n = masks.shape
    rows = masks.reshape(L * J, n)
    with np.errstate(divide="ignore"):
        penalty = np.reciprocal(rows)
    penalty -= 1.0
    slack = 2.0 * (counts.reshape(L * J, 1) - 1.0) * np.finfo(float).eps
    sums = np.empty((L * J, n), dtype=float)
    picks = []
    for sq in squares:
        _medoid_sums(rows, sq, penalty, sums)
        least = sums.min(axis=1, keepdims=True)
        # capped, or a group whose sums clip to the largest float admits +inf
        with np.errstate(over="ignore"):
            limit = np.minimum(least + slack * least, np.finfo(float).max)
        # the first member within the limit
        picks.append(np.argmin(sums > limit, axis=1).reshape(L, J))
    return picks


def _check_subset(n: int, subset: Optional[Sequence[int]]) -> np.ndarray:
    if subset is None:
        return np.arange(n)
    idx = np.asarray(subset)
    if idx.size == 0 or idx.dtype.kind not in "iu":  # never read a mask or floats as indices
        raise ValueError(f"subset must be one or more integer indices, got {idx.size} {idx.dtype}")
    idx = np.unique(idx.astype(int))
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
    sample: SpaceSample, idx: np.ndarray, squares: Optional[np.ndarray] = None
) -> Tuple[FrechetMeanResult, np.ndarray]:
    """Fréchet mean of the observations ``idx`` and their distances to it.
    ``squares``, the clipped squares among ``idx`` where the caller already
    holds them, spares a medoid space building them again."""
    if sample.has_exact_mean:
        point, index = sample.mean_of(idx), None
        d = sample.distances_to(point, idx)
    else:
        if squares is None:
            squares = _clipped_squares(sample.pairwise()[np.ix_(idx, idx)])
        everyone = np.ones((1, 1, idx.size))
        index = int(idx[_medoids(everyone, everyone.sum(axis=2), [squares])[0][0, 0]])
        point, d = sample.point(index), sample.pairwise()[idx, index]
    solver = "exact" if index is None else "medoid"
    result = FrechetMeanResult(mean=point, objective=_mean_square(d), solver=solver, index=index)
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
    return _mean_square(d)


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
